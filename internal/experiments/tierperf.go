package experiments

import (
	"fmt"
	"runtime"
	"time"

	"hfi/internal/cpu"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/stats"
	"hfi/internal/tier"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// TierPerfScheme is one scheme's row in the tiered-engine experiment:
// Sightglass corpus throughput under the plain interpreter vs the tiered
// superinstruction engine, both cycle-exact with each other (the sandbox
// differential corpus gate proves it), plus the tier's own telemetry.
type TierPerfScheme struct {
	Scheme string

	InterpInstrsPerSec float64
	TierInstrsPerSec   float64
	Speedup            float64

	// PromotedBlocks and TieredShare describe the steady state: how many
	// basic blocks crossed the promotion threshold and what fraction of
	// retirement the fused paths carried.
	PromotedBlocks uint64
	TieredShare    float64

	// FusableBlocks/FullBlocks/Blocks summarize the shared lowering.
	Blocks        int
	FusableBlocks int
	FullBlocks    int

	// AllocsPerOp is steady-state heap allocations per corpus iteration
	// under the tiered engine (must be 0).
	AllocsPerOp float64
}

// TierPerf is the full experiment result.
type TierPerf struct {
	Schemes []TierPerfScheme
}

// measureCorpusTier loops the warm corpus until minInstrs retire. With
// tiered set it runs every instance under a tier.Engine (default promotion
// threshold; the warmup invocations are what promote the hot blocks) and
// also reports promoted blocks, the tiered retirement share, and
// steady-state allocations per corpus iteration.
func measureCorpusTier(scheme sfi.Scheme, tiered bool, minInstrs uint64) (instrsPerSec, allocsPerOp float64, promoted uint64, share float64, low *tier.Lowered, err error) {
	type warmInst struct {
		inst *sandbox.Instance
		eng  cpu.Engine
		te   *tier.Engine
	}
	var warm []warmInst
	for _, w := range workloads.Sightglass() {
		rt := sandbox.NewRuntime()
		inst, ierr := rt.Instantiate(w.Build(1), scheme, wasm.Options{})
		if ierr != nil {
			return 0, 0, 0, 0, nil, ierr
		}
		ip := cpu.NewInterp(rt.M)
		wi := warmInst{inst: inst, eng: ip}
		if tiered {
			wi.te = tier.NewEngine(ip, inst.Lowered)
			wi.eng = wi.te
			if low == nil {
				low = inst.Lowered
			}
		}
		// Warm past the promotion threshold so the measured loop is the
		// steady state (for the plain interpreter one pass warms the
		// caches; extra passes are harmless).
		for i := 0; i <= tier.DefaultPromoteAfter; i++ {
			if res, _ := inst.Invoke(wi.eng, 500_000_000); res.Reason != cpu.StopHalt {
				return 0, 0, 0, 0, nil, fmt.Errorf("%s/%v warmup: stop %v", w.Name, scheme, res.Reason)
			}
			if !tiered {
				break
			}
		}
		warm = append(warm, wi)
	}
	var done uint64
	var iters uint64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for done < minInstrs {
		for _, wi := range warm {
			before := wi.inst.RT.M.Instret
			if res, _ := wi.inst.Invoke(wi.eng, 500_000_000); res.Reason != cpu.StopHalt {
				return 0, 0, 0, 0, nil, fmt.Errorf("throughput: stop %v", res.Reason)
			}
			done += wi.inst.RT.M.Instret - before
			iters++
		}
	}
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	instrsPerSec = float64(done) / elapsed
	allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
	if tiered {
		var tieredInstrs, interpInstrs uint64
		for _, wi := range warm {
			p, td, ii := wi.te.Counters()
			promoted += p
			tieredInstrs += td
			interpInstrs += ii
		}
		if total := tieredInstrs + interpInstrs; total > 0 {
			share = float64(tieredInstrs) / float64(total)
		}
	}
	return instrsPerSec, allocsPerOp, promoted, share, low, nil
}

// RunTierPerf measures, per scheme, what lowering hot verified programs to
// fused superinstruction blocks buys over the plain interpreter on the
// Sightglass corpus — same guest, same facts, same simulated cycles, fewer
// host instructions per retired guest instruction.
func RunTierPerf(minInstrs uint64) (TierPerf, *stats.Table, error) {
	var out TierPerf
	for _, scheme := range []sfi.Scheme{sfi.HFI, sfi.GuardPages, sfi.BoundsCheck, sfi.Masking} {
		interpRate, _, _, _, _, err := measureCorpusTier(scheme, false, minInstrs)
		if err != nil {
			return out, nil, err
		}
		tierRate, allocs, promoted, share, low, err := measureCorpusTier(scheme, true, minInstrs)
		if err != nil {
			return out, nil, err
		}
		row := TierPerfScheme{
			Scheme:             scheme.String(),
			InterpInstrsPerSec: interpRate,
			TierInstrsPerSec:   tierRate,
			Speedup:            tierRate / interpRate,
			PromotedBlocks:     promoted,
			TieredShare:        share,
			AllocsPerOp:        allocs,
		}
		if low != nil {
			row.Blocks, row.FusableBlocks, row.FullBlocks, _ = low.Summary()
		}
		out.Schemes = append(out.Schemes, row)
	}

	tb := &stats.Table{
		Title:   "Tier: fused superinstruction engine vs interpreter on Sightglass (host throughput, cycle-exact)",
		Columns: []string{"scheme", "interp instrs/s", "tier instrs/s", "speedup", "promoted", "tiered share", "blocks fused/full/total", "allocs/op"},
	}
	for _, r := range out.Schemes {
		tb.AddRow(r.Scheme,
			fmt.Sprintf("%.1fM", r.InterpInstrsPerSec/1e6),
			fmt.Sprintf("%.1fM", r.TierInstrsPerSec/1e6),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d", r.PromotedBlocks),
			fmt.Sprintf("%.0f%%", 100*r.TieredShare),
			fmt.Sprintf("%d/%d/%d", r.FusableBlocks, r.FullBlocks, r.Blocks),
			fmt.Sprintf("%.1f", r.AllocsPerOp))
	}
	tb.AddNote("both engines retire identical architectural state, simulated cycles and check counters (sandbox differential corpus gate); the tier row additionally reports promotion telemetry from the engines and the shared per-image lowering")
	return out, tb, nil
}
