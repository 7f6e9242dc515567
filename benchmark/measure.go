package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// sample is one operation as the load generator saw it: when it was due
// (open loop) or sent (closed loop) relative to the start of the run, how
// long it took from then to its verified response, and whether the
// response was right.
type sample struct {
	at  time.Duration
	lat time.Duration
	op  int32 // index of the distinct operation sent
	ok  bool
}

// span is one traced call into one layer's public entry point. Spans of
// one operation share Op; Parent names the leg that encloses this one in
// the serving stack ("" for the outermost).
type span struct {
	Op      int    `json:"op"`
	Leg     string `json:"leg"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// latencies extracts the verified operations' latencies in ms.
func latencies(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, msOf(s.lat))
		}
	}
	return out
}

// cutWindows cuts a run of length total into n equal windows by each sample's
// start time. Steady-state numbers are reported as the median over these
// windows, so one stall moves one window and not the result.
func cutWindows(ss []sample, total time.Duration, n int) [][]sample {
	out := make([][]sample, n)
	for _, s := range ss {
		i := int(int64(s.at) * int64(n) / int64(total))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		out[i] = append(out[i], s)
	}
	return out
}

func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n++
		}
	}
	return n
}

// procTimes is what /proc reports for one process: CPU time consumed so
// far and the peak resident set.
type procTimes struct {
	cpu time.Duration
	hwm float64 // MB
}

// clockTick is Linux's USER_HZ, the unit of utime/stime in /proc/pid/stat.
const clockTick = 10 * time.Millisecond

// statFields returns the fields of /proc/pid/stat from the third (state)
// on: the command name before them may hold spaces, and ends at the last ')'.
func statFields(pid int) ([]string, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, err
	}
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return nil, fmt.Errorf("/proc/%d/stat: short read", pid)
	}
	return f, nil
}

func readProc(pid int) (procTimes, error) {
	var pt procTimes
	f, err := statFields(pid)
	if err != nil {
		return pt, err
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return pt, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	pt.cpu = time.Duration(utime+stime) * clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return pt, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return pt, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, v)
			}
			pt.hwm = kb / 1024
		}
	}
	return pt, nil
}

// sumProcs adds up CPU time and peak RSS over the benchmark process and
// its shard subprocesses.
func sumProcs(pids []int) (procTimes, error) {
	var sum procTimes
	for _, pid := range pids {
		pt, err := readProc(pid)
		if err != nil {
			return sum, err
		}
		sum.cpu += pt.cpu
		sum.hwm += pt.hwm
	}
	return sum, nil
}

// childPids lists the live direct children of this process — the shard
// subprocesses, whose pids cluster.ShardProc keeps to itself.
func childPids() ([]int, error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	self := os.Getpid()
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		f, err := statFields(pid)
		if err != nil {
			continue // exited between ReadDir and here
		}
		if f[1] == strconv.Itoa(self) && f[0] != "Z" {
			out = append(out, pid)
		}
	}
	return out, nil
}
