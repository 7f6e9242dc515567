// Command benchmark is the repository's one benchmark: four workloads over
// the whole stack, end-to-end metrics from an untraced run, per-layer
// metrics from a traced one. See README.md beside this file.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run, one JSON line
//	benchmark -seed N [-runs K]                              every workload, both modes, in child processes
//	benchmark -compare old.json new.json                     delta table with a verdict per row
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"hfi/internal/cluster"
)

func main() {
	// cluster.Spawn re-executes this binary as each shard subprocess.
	if cluster.IsShardProc() {
		os.Exit(cluster.ShardMain())
	}
	workload := flag.String("workload", "", "workload to run (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "seed for schedules, tenant draws, bodies and the traced sample")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := flag.String("out", ".bench_build/out", "directory for trace-<workload>.json and results.json")
	runs := flag.Int("runs", 1, "with no -workload: repeat the whole set this many times")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition, for -compare's bounds")
	flag.StringVar(&updateGolden, "update-golden", "", "write sim_corpus's simulated statistics to this file instead of checking them")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(*spec, flag.Args())
	case *workload == "":
		err = runAll(*seed, *seconds, *runs, *outDir)
	default:
		err = runOne(*workload, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result as the
// last line of standard output. A wrong output is a non-zero exit.
func runOne(name string, seed int64, dur time.Duration, traced bool, outDir string) error {
	for _, w := range workloadSet {
		if w.name != name {
			continue
		}
		var res result
		var err error
		if traced {
			res, err = runTraced(w, seed, dur, outDir)
		} else {
			res, err = runEndToEnd(w, seed, dur, setupRepeats)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", name)
}
