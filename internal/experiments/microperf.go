package experiments

import (
	"fmt"
	"runtime"
	"time"

	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/stats"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// MicroPerf reports the simulator's own (host wall-clock) performance —
// not simulated guest time. The paper's macro experiments need billions of
// emulated instructions, so interpreter throughput bounds how much of the
// evaluation is reproducible per CPU-hour; these are the numbers the
// "Simulator performance" section of DESIGN.md describes.
type MicroPerf struct {
	// Interpreter throughput over a load/store-heavy HFI guest.
	FastInstrsPerSec float64 // fast paths on (the default)
	SlowInstrsPerSec float64 // NoFastPath: uncached fetch + full checks
	Speedup          float64
	AllocsPerMInstr  float64 // host allocations per million guest instrs (fast)

	// Tenant provisioning with the shared code-image cache.
	ColdProvisionNs float64 // first provision: compile + verify + map
	WarmProvisionNs float64 // subsequent provisions: shared image
	ProvisionSpeedup float64
}

// measureInterpThroughput runs a memory-heavy kernel under HFI until at
// least minInstrs retire, returning guest instructions per host second and
// host allocations per million guest instructions.
func measureInterpThroughput(minInstrs uint64, noFast bool) (ips, allocsPerM float64, err error) {
	rt := sandbox.NewRuntime()
	inst, err := rt.Instantiate(workloads.Memmove(1), sfi.HFI, wasm.Options{})
	if err != nil {
		return 0, 0, err
	}
	ip := cpu.NewInterp(rt.M)
	ip.NoFastPath = noFast

	// Warm the instance (page faults, cache fills, compile of nothing
	// left to do) before timing.
	if res, _ := inst.Invoke(ip, 0); res.Reason != cpu.StopHalt {
		return 0, 0, fmt.Errorf("microperf warmup: stop %v", res.Reason)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := rt.M.Instret
	t0 := time.Now()
	for rt.M.Instret-start < minInstrs {
		if res, _ := inst.Invoke(ip, 0); res.Reason != cpu.StopHalt {
			return 0, 0, fmt.Errorf("microperf: stop %v", res.Reason)
		}
	}
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	instrs := rt.M.Instret - start
	return float64(instrs) / elapsed,
		float64(ms1.Mallocs-ms0.Mallocs) / (float64(instrs) / 1e6),
		nil
}

// measureProvision times tenant provisioning: one cold provision against a
// fresh image cache, then reps warm provisions sharing its image.
func measureProvision(reps int) (coldNs, warmNs float64, err error) {
	tenant := workloads.FaaSTenantsLight()[0]
	cfg := faas.Config{Name: "HFI", Scheme: sfi.HFI}
	images := sandbox.NewCodeCache()

	t0 := time.Now()
	if _, err := faas.ProvisionShared(tenant, cfg, images); err != nil {
		return 0, 0, err
	}
	coldNs = float64(time.Since(t0).Nanoseconds())

	t1 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := faas.ProvisionShared(tenant, cfg, images); err != nil {
			return 0, 0, err
		}
	}
	warmNs = float64(time.Since(t1).Nanoseconds()) / float64(reps)
	return coldNs, warmNs, nil
}

// RunMicroPerf measures simulator throughput (interpreter fast paths on vs
// off) and provisioning cost (cold vs shared-image warm), and renders them
// as a table (`hfibench -exp micro`).
func RunMicroPerf(minInstrs uint64) (MicroPerf, *stats.Table, error) {
	var mp MicroPerf
	var err error
	if mp.FastInstrsPerSec, mp.AllocsPerMInstr, err = measureInterpThroughput(minInstrs, false); err != nil {
		return mp, nil, err
	}
	if mp.SlowInstrsPerSec, _, err = measureInterpThroughput(minInstrs, true); err != nil {
		return mp, nil, err
	}
	mp.Speedup = mp.FastInstrsPerSec / mp.SlowInstrsPerSec
	if mp.ColdProvisionNs, mp.WarmProvisionNs, err = measureProvision(20); err != nil {
		return mp, nil, err
	}
	mp.ProvisionSpeedup = mp.ColdProvisionNs / mp.WarmProvisionNs

	tb := &stats.Table{
		Title:   "Micro: simulator performance (host wall-clock, not simulated time)",
		Columns: []string{"metric", "fast path", "slow path", "speedup"},
	}
	tb.AddRow("interp instrs/sec",
		fmt.Sprintf("%.1fM", mp.FastInstrsPerSec/1e6),
		fmt.Sprintf("%.1fM", mp.SlowInstrsPerSec/1e6),
		fmt.Sprintf("%.2fx", mp.Speedup))
	tb.AddRow("allocs per M instrs",
		fmt.Sprintf("%.2f", mp.AllocsPerMInstr), "-", "-")
	tb.AddRow("provision ns (cold/warm)",
		fmt.Sprintf("%.0f", mp.WarmProvisionNs),
		fmt.Sprintf("%.0f", mp.ColdProvisionNs),
		fmt.Sprintf("%.2fx", mp.ProvisionSpeedup))
	tb.AddNote("slow path = -NoFastPath interpreter (uncached fetch, per-access HFI+MMU checks); cold provision compiles+verifies, warm shares the image cache")
	return mp, tb, nil
}
