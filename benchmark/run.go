package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hfi/internal/stats"
)

// metric is one reported number with its unit, as BENCHMARK.json's
// contract wants it printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits are the end-to-end metrics and their units; every
// workload reports all of them from its untraced run.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"sim_minstr_per_s": "Minstr/s",
	"throughput_rps":   "1/s",
	"p50_ms":           "ms",
	"p99_ms":           "ms",
	"peak_rss_mb":      "MB",
	"cpu_ms_per_op":    "ms",
}

// perLayerUnits are the per-layer metrics, <module>.<metric>, and their
// units; every workload reports all of them from its traced run, 0 where
// the workload does not pass through the layer.
var perLayerUnits = map[string]string{
	"cpu.tier_host_ns_per_instr.hfi":         "ns",
	"cpu.tier_host_ns_per_instr.guardpages":  "ns",
	"cpu.tier_host_ns_per_instr.boundscheck": "ns",
	"cpu.tier_host_ns_per_instr.masking":     "ns",
	"cpu.interp_host_ns_per_instr":           "ns",
	"cpu.core_kinstr_per_s":                  "kinstr/s",
	"cpu.sim_instrs":                         "count",
	"cpu.sim_cycles":                         "count",
	"cpu.cpi":                                "ratio",
	"cpu.fact_elisions_per_kinstr":           "count",
	"tier.tiered_instr_share":                "ratio",
	"tier.promoted_blocks":                   "count",
	"tier.fused_block_share":                 "ratio",
	"tier.lower_ms":                          "ms",
	"mem.l1d_miss_per_kinstr":                "count",
	"mem.l2_miss_per_kinstr":                 "count",
	"mem.dtb_miss_per_kinstr":                "count",
	"mem.accesses_per_instr":                 "ratio",
	"hfi.checks_per_instr":                   "ratio",
	"hfi.vs_guard_pct":                       "%",
	"hfi.bounds_vs_guard_pct":                "%",
	"hfi.masking_vs_guard_pct":               "%",
	"wasm.compile_ms":                        "ms",
	"wasm.code_instrs":                       "count",
	"verifier.analyze_ms":                    "ms",
	"verifier.audit_ms":                      "ms",
	"verifier.fact_coverage":                 "ratio",
	"kernel.sim_ns_per_provision":            "ns",
	"kernel.sim_ns_per_teardown":             "ns",
	"sandbox.instantiate_cold_ms":            "ms",
	"sandbox.instantiate_warm_us":            "us",
	"sandbox.heap_hash_us":                   "us",
	"sandbox.reset_us":                       "us",
	"sandbox.teardown_us":                    "us",
	"sandbox.invoke_self_us":                 "us",
	"sandbox.codecache_hit_share":            "ratio",
	"hostcall.calls_per_req":                 "count",
	"hostcall.host_ns_per_call":              "ns",
	"hostcall.sim_ns_per_call":               "ns",
	"faas.serve_us_p50":                      "us",
	"faas.instrs_per_req":                    "count",
	"faas.sim_us_per_req":                    "us",
	"faas.provision_warm_us":                 "us",
	"faas.provision_cold_ms":                 "ms",
	"host.self_us_p50":                       "us",
	"host.allocs_per_req":                    "count",
	"host.cold_start_share":                  "ratio",
	"host.evictions":                         "count",
	"host.shed":                              "count",
	"host.scaling_2_over_1":                  "ratio",
	"stats.record_ns":                        "ns",
	"stats.snapshot_ms_at_100k":              "ms",
	"httpfront.handler_self_us_p50":          "us",
	"httpfront.wire_self_us_p50":             "us",
	"httpfront.statsz_ms":                    "ms",
	"cluster.hop_self_us_p50":                "us",
	"cluster.routing_hit_share":              "ratio",
	"cluster.hedges":                         "count",
	"cluster.retries":                        "count",
	"cluster.transport_errors":               "count",
	"loadgen.rps_last_over_first":            "ratio",
	"loadgen.late_ms_p99":                    "ms",
	"loadgen.trace_overhead_pct":             "%",
}

// withUnits attaches each value's unit and insists the set is exactly the
// declared one, so a metric can be neither dropped nor invented silently.
func withUnits(values map[string]float64, units map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

const (
	// setupRepeats is how many times a run sets the workload up from
	// cold; setup_s is the median, the last one is the one measured on.
	setupRepeats = 5
	// windows is how many equal stretches of the timed run the latency
	// percentiles are computed over; the reported value is the median
	// stretch's.
	windows = 5
)

func p50(ss []sample) float64 { return stats.Percentile(latencies(ss), 50) }
func p99(ss []sample) float64 { return stats.Percentile(latencies(ss), 99) }

// windowed computes f over each window's samples and returns the median.
func windowed(ss []sample, dur time.Duration, f func(w []sample) float64) float64 {
	var vals []float64
	for _, w := range cutWindows(ss, dur, windows) {
		vals = append(vals, f(w))
	}
	return stats.Median(vals)
}

// runEndToEnd measures one workload untraced: what a user of the stack
// would see, plus what it cost the machine. The workload is set up
// repeats times from cold and measured on the last.
func runEndToEnd(w workloadSpec, seed int64, dur time.Duration, repeats int) (result, error) {
	var b *bench
	var setups []float64
	for i := 0; i < repeats; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(seed); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()

	instrs0, err := b.guestInstrs()
	if err != nil {
		return result{}, err
	}
	procs0, err := sumProcs(b.pids)
	if err != nil {
		return result{}, err
	}
	t0 := time.Now()
	samples, _ := b.load(dur, nil)
	elapsed := time.Since(t0)
	procs1, err := sumProcs(b.pids)
	if err != nil {
		return result{}, err
	}
	instrs1, err := b.guestInstrs()
	if err != nil {
		return result{}, err
	}

	for i, win := range cutWindows(samples, dur, windows) {
		fmt.Fprintf(os.Stderr, "%s: window %d: %d ok, p50 %.3f ms, p99 %.3f ms\n",
			w.name, i, countOK(win), p50(win), p99(win))
	}
	ok := countOK(samples)
	res := result{Attempted: len(samples), Failed: len(samples) - ok}
	res.Correct = res.Failed == 0 && ok > 0
	if b.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failure: %v\n", w.name, b.firstErr)
	}
	res.Metrics, err = withUnits(map[string]float64{
		"setup_s":          stats.Median(setups),
		"sim_minstr_per_s": float64(instrs1-instrs0) / 1e6 / elapsed.Seconds(),
		"throughput_rps":   float64(ok) / elapsed.Seconds(),
		"p50_ms":           windowed(samples, dur, p50),
		"p99_ms":           windowed(samples, dur, p99),
		"peak_rss_mb":      procs1.hwm,
		"cpu_ms_per_op":    ratio(msOf(procs1.cpu-procs0.cpu), float64(ok)),
	}, endToEndUnits)
	return res, err
}

// replayOps is how many operations the traced run replays through every
// leg; a fixed count, so the simulator's exact counters repeat exactly.
func (b *bench) replayOps() int {
	if b.hostCfg == nil {
		return 2 * len(b.ops) // two passes of the corpus
	}
	return 512
}

// traceFile is what a traced run writes to <out>/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Legs     []string           `json:"legs"`
	MedianUs map[string]float64 `json:"leg_median_us"`
	// ServeUntracedUs is faas.ServeBody's median over the replayed
	// operations timed without spans; it should agree with the faas leg.
	ServeUntracedUs float64 `json:"serve_untraced_us"`
	Spans           []span  `json:"spans"`
}

// runTraced measures one workload's layers: a fixed sample of its
// operations replayed through each deeper entry point, then the workload's
// own load for half the time with spans recorded on half of it, then each
// layer's public functions timed directly.
func runTraced(w workloadSpec, seed int64, dur time.Duration, outDir string) (result, error) {
	b, err := w.setup(seed)
	if err != nil {
		return result{}, err
	}
	defer b.close()

	// The replay goes first, on state that depends on nothing but the
	// seed, so its exact counters repeat exactly.
	if err := b.deepen(); err != nil {
		return result{}, err
	}
	rr := b.replay(b.replayOps())

	// Spans on in eighths 1, 2, 5 and 6 of the load: the traced and the
	// untraced stretches then have the same mean position in the run, so a
	// steady drift in the server's speed cancels out of their difference.
	loadDur := dur / 2
	tr := &tracer{on: func(at time.Duration) bool { k := int(8*at/loadDur) % 4; return k == 1 || k == 2 }}
	lc0, err := b.layerCounts()
	if err != nil {
		return result{}, err
	}
	samples, late := b.load(loadDur, tr)
	lc, err := b.layerCounts()
	if err != nil {
		return result{}, err
	}
	vals, err := b.probes()
	if err != nil {
		return result{}, err
	}

	// The load generator itself.
	quarters := cutWindows(samples, loadDur, 4)
	vals["loadgen.rps_last_over_first"] = ratio(float64(countOK(quarters[3])), float64(countOK(quarters[0])))
	vals["loadgen.trace_overhead_pct"] = traceOverhead(samples, tr.on)
	var lateMs []float64
	for _, d := range late {
		lateMs = append(lateMs, msOf(d))
	}
	vals["loadgen.late_ms_p99"] = stats.Percentile(lateMs, 99)

	// The serving layers' own counters over the load.
	admitted := float64(lc.admitted - lc0.admitted)
	vals["host.cold_start_share"] = ratio(float64(lc.coldStarts-lc0.coldStarts), admitted)
	vals["host.evictions"] = float64(lc.evictions - lc0.evictions)
	vals["host.shed"] = float64(lc.shed - lc0.shed)
	vals["hostcall.calls_per_req"] = ratio(float64(lc.hostcalls-lc0.hostcalls), float64(lc.served-lc0.served))
	vals["httpfront.statsz_ms"] = lc.statszMs
	vals["cluster.routing_hit_share"] = lc.routingHitShare
	vals["cluster.hedges"] = float64(lc.hedges)
	vals["cluster.retries"] = float64(lc.retries)
	vals["cluster.transport_errors"] = float64(lc.transportErrors)

	// Self time per leg.
	vals["cluster.hop_self_us_p50"] = rr.self(b, "router")
	vals["httpfront.wire_self_us_p50"] = rr.self(b, "shard")
	vals["httpfront.handler_self_us_p50"] = rr.self(b, "front")
	vals["host.self_us_p50"] = rr.self(b, "host")
	vals["sandbox.invoke_self_us"] = rr.self(b, "invoke")
	vals["faas.serve_us_p50"] = rr.serveUntraced
	vals["host.allocs_per_req"] = rr.allocsPerReq
	vals["faas.instrs_per_req"] = ratio(float64(rr.served.instrs), float64(rr.ops))
	vals["faas.sim_us_per_req"] = ratio(float64(rr.served.simNs)/1e3, float64(rr.ops))

	// The simulator's exact counters over the replay's invoke leg.
	sim := rr.sim
	kinstr := float64(sim.instrs) / 1e3
	for name, sc := range b.byScheme {
		vals["cpu.tier_host_ns_per_instr."+name] = ratio(float64(sc.ns.Nanoseconds()), float64(sc.instrs))
	}
	vals["cpu.sim_instrs"] = float64(sim.instrs)
	vals["cpu.sim_cycles"] = float64(sim.cycles)
	vals["cpu.cpi"] = ratio(float64(sim.cycles), float64(sim.instrs))
	vals["cpu.fact_elisions_per_kinstr"] = ratio(float64(sim.elisions), kinstr)
	vals["tier.tiered_instr_share"] = ratio(float64(sim.tiered), float64(sim.tiered+sim.interp))
	vals["tier.promoted_blocks"] = float64(sim.promoted)
	vals["mem.l1d_miss_per_kinstr"] = ratio(float64(sim.l1dMiss), kinstr)
	vals["mem.l2_miss_per_kinstr"] = ratio(float64(sim.l2Miss), kinstr)
	vals["mem.dtb_miss_per_kinstr"] = ratio(float64(sim.dtbMiss), kinstr)
	vals["mem.accesses_per_instr"] = ratio(float64(sim.l1dAcc), float64(sim.instrs))
	vals["hfi.checks_per_instr"] = ratio(float64(sim.checks), float64(sim.instrs))

	failed := len(samples) - countOK(samples) + rr.failed
	res := result{Attempted: len(samples) + rr.ops*len(b.legs), Failed: failed, Correct: failed == 0}
	if b.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failure: %v\n", w.name, b.firstErr)
	}
	if res.Metrics, err = withUnits(vals, perLayerUnits); err != nil {
		return res, err
	}

	tf := traceFile{Workload: w.name, Seed: seed, MedianUs: rr.medians, ServeUntracedUs: rr.serveUntraced, Spans: append(tr.spans, rr.spans...)}
	for _, lg := range b.legs {
		tf.Legs = append(tf.Legs, lg.name)
	}
	return res, writeJSON(filepath.Join(outDir, "trace-"+w.name+".json"), tf)
}

// traceOverhead is how much slower operations ran while the load generator
// recorded spans, in percent. Operations differ in cost by orders of
// magnitude, so each distinct operation's mean latency is compared with its
// own, and the means are summed over the operations seen both ways. In a
// closed loop the request rate is the client count over the mean latency,
// so this is also the difference between the two rates.
func traceOverhead(ss []sample, on func(at time.Duration) bool) float64 {
	type acc struct {
		sum [2]float64
		n   [2]float64
	}
	per := map[int32]*acc{}
	for _, s := range ss {
		a := per[s.op]
		if a == nil {
			a = &acc{}
			per[s.op] = a
		}
		i := 0
		if on(s.at) {
			i = 1
		}
		a.sum[i] += msOf(s.lat)
		a.n[i]++
	}
	var plain, traced float64
	for _, a := range per {
		if a.n[0] > 0 && a.n[1] > 0 {
			plain += a.sum[0] / a.n[0]
			traced += a.sum[1] / a.n[1]
		}
	}
	return 100 * (ratio(traced, plain) - 1)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
