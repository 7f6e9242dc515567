package tier_test

import (
	"testing"

	"hfi/internal/cpu"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/tier"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// benchCorpus measures corpus throughput under either engine; the tiered
// variant is warmed past the promotion threshold first. This is the
// microscope behind the `hfibench -exp tier` numbers.
func benchCorpus(b *testing.B, scheme sfi.Scheme, tiered bool) {
	type warmInst struct {
		inst *sandbox.Instance
		eng  cpu.Engine
	}
	var warm []warmInst
	var instrs uint64
	for _, w := range workloads.Sightglass() {
		rt := sandbox.NewRuntime()
		inst, err := rt.Instantiate(w.Build(1), scheme, wasm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ip := cpu.NewInterp(rt.M)
		var eng cpu.Engine = ip
		if tiered {
			te := tier.NewEngine(ip, inst.Lowered)
			te.PromoteAfter = 1
			eng = te
		}
		for i := 0; i < 2; i++ {
			if res, _ := inst.Invoke(eng, 500_000_000); res.Reason != cpu.StopHalt {
				b.Fatalf("%s warmup: stop %v", w.Name, res.Reason)
			}
		}
		warm = append(warm, warmInst{inst, eng})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, wi := range warm {
			before := wi.inst.RT.M.Instret
			if res, _ := wi.inst.Invoke(wi.eng, 500_000_000); res.Reason != cpu.StopHalt {
				b.Fatalf("stop %v", res.Reason)
			}
			instrs += wi.inst.RT.M.Instret - before
		}
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkCorpusInterpHFI(b *testing.B) { benchCorpus(b, sfi.HFI, false) }
func BenchmarkCorpusTierHFI(b *testing.B)   { benchCorpus(b, sfi.HFI, true) }
