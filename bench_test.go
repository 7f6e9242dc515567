// Package bench is the top-level benchmark harness: one testing.B target
// per table and figure of the paper's evaluation (run them all with
//
//	go test -bench=. -benchmem
//
// at the repository root), plus microarchitectural ablation benches for
// the design choices DESIGN.md calls out. Each benchmark reports its
// headline quantity as a custom metric so bench_output.txt reads as a
// results summary; cmd/hfibench prints the full tables.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hfi/internal/experiments"
	"hfi/internal/faas"
	"hfi/internal/hfi"
	"hfi/internal/host"
	"hfi/internal/loadgen"
	"hfi/internal/nginxsim"
	"hfi/internal/sfi"
	"hfi/internal/spectre"
	"hfi/internal/stats"
)

// BenchmarkFig2_EmulationAccuracy cross-validates the emulation engine
// against the cycle-level simulator on the Sightglass suite (§5.2, Fig 2).
func BenchmarkFig2_EmulationAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.RunFig2(1)
		if err != nil {
			b.Fatal(err)
		}
		accs := make([]float64, len(rows))
		for j, r := range rows {
			accs[j] = r.Accuracy
		}
		b.ReportMetric(stats.GeoMean(accs)*100, "accuracy-%")
		b.ReportMetric(stats.Min(accs)*100, "min-accuracy-%")
		b.ReportMetric(stats.Max(accs)*100, "max-accuracy-%")
	}
}

// BenchmarkFig3_SPEC regenerates Fig 3: SPEC-like kernels under bounds
// checking and HFI, normalized against guard pages.
func BenchmarkFig3_SPEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.RunFig3(1)
		if err != nil {
			b.Fatal(err)
		}
		var bs, hs []float64
		for _, r := range rows {
			bs = append(bs, r.Bounds)
			hs = append(hs, r.HFI)
		}
		b.ReportMetric(stats.GeoMean(bs)*100, "bounds-vs-guard-%")
		b.ReportMetric(stats.GeoMean(hs)*100, "hfi-vs-guard-%")
	}
}

// BenchmarkFig4_ImageRender regenerates Fig 4: per-scanline sandboxed
// image decoding across resolutions and compression levels.
func BenchmarkFig4_ImageRender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.RunFig4()
		if err != nil {
			b.Fatal(err)
		}
		var hs []float64
		for _, c := range cells {
			hs = append(hs, c.HFI)
		}
		b.ReportMetric(stats.GeoMean(hs)*100, "hfi-vs-guard-%")
		b.ReportMetric(stats.Min(hs)*100, "best-case-%")
	}
}

// BenchmarkFig5_NGINX regenerates Fig 5: NGINX+OpenSSL throughput under
// MPK and HFI session-key protection.
func BenchmarkFig5_NGINX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.RunFig5(10)
		if err != nil {
			b.Fatal(err)
		}
		var hfiN, mpkN []float64
		for _, p := range points {
			switch p.Prot {
			case nginxsim.ProtHFI:
				hfiN = append(hfiN, p.Normalized)
			case nginxsim.ProtMPK:
				mpkN = append(mpkN, p.Normalized)
			}
		}
		b.ReportMetric(stats.GeoMean(hfiN)*100, "hfi-throughput-%")
		b.ReportMetric(stats.GeoMean(mpkN)*100, "mpk-throughput-%")
	}
}

// BenchmarkFig7_Spectre regenerates Fig 7 / §5.3: the Spectre-PHT attack
// leaks the full secret without HFI and nothing with it.
func BenchmarkFig7_Spectre(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, _, err := experiments.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		leakedBytes, protectedLeaks := 0, 0
		for _, s := range series {
			for _, c := range s.Leaked {
				if c != '?' {
					if s.Name == "pht-off" || s.Name == "btb-off" {
						leakedBytes++
					} else {
						protectedLeaks++
					}
				}
			}
		}
		b.ReportMetric(float64(leakedBytes), "unprotected-bytes-leaked")
		b.ReportMetric(float64(protectedLeaks), "hfi-bytes-leaked")
	}
}

// BenchmarkTable1_FaaS regenerates Table 1: FaaS tail latency under HFI
// versus Swivel Spectre protection.
func BenchmarkTable1_FaaS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.RunTable1(16)
		if err != nil {
			b.Fatal(err)
		}
		base := map[string]float64{}
		var hfiTail, swivelTail []float64
		for _, r := range results {
			switch r.Config {
			case "Lucet(Unsafe)":
				base[r.Tenant] = r.TailLatNs
			case "Lucet+HFI":
				hfiTail = append(hfiTail, r.TailLatNs/base[r.Tenant])
			case "Lucet+Swivel":
				swivelTail = append(swivelTail, r.TailLatNs/base[r.Tenant])
			}
		}
		b.ReportMetric((stats.GeoMean(hfiTail)-1)*100, "hfi-tail-overhead-%")
		b.ReportMetric((stats.GeoMean(swivelTail)-1)*100, "swivel-tail-overhead-%")
	}
}

// BenchmarkHeapGrowth regenerates the §6.1 heap-growth experiment
// (mprotect vs hfi_set_region, reduced step count per iteration).
func BenchmarkHeapGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunHeapGrowth(4000)
		if err != nil {
			b.Fatal(err)
		}
		_ = tb
	}
}

// BenchmarkTeardown regenerates §6.3.1: per-sandbox teardown cost for the
// three strategies.
func BenchmarkTeardown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stock, err := faas.MeasureTeardown(faas.TeardownStock, 400, 1)
		if err != nil {
			b.Fatal(err)
		}
		hfiB, err := faas.MeasureTeardown(faas.TeardownBatchedHFI, 400, 50)
		if err != nil {
			b.Fatal(err)
		}
		nonHFI, err := faas.MeasureTeardown(faas.TeardownBatched, 400, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stock.PerSandboxNs/1e3, "stock-us")
		b.ReportMetric(hfiB.PerSandboxNs/1e3, "hfi-batched-us")
		b.ReportMetric(nonHFI.PerSandboxNs/1e3, "guard-batched-us")
	}
}

// BenchmarkScaling regenerates §6.3.2: sandbox capacity per address space.
func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guard, err := faas.MeasureScaling(sfi.GuardPages, 1, 1024)
		if err != nil {
			b.Fatal(err)
		}
		h, err := faas.MeasureScaling(sfi.HFI, 1, 1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(guard.CapacityCount), "guard-sandboxes")
		b.ReportMetric(float64(h.CapacityCount), "hfi-sandboxes")
	}
}

// BenchmarkSyscallInterpose regenerates §6.4.1: seccomp-bpf versus HFI
// syscall interposition.
func BenchmarkSyscallInterpose(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunSyscallInterposition(20_000)
		if err != nil {
			b.Fatal(err)
		}
		_ = tb
	}
}

// BenchmarkAblationSwitchOnExit compares serialize-every-transition
// against the §4.5 switch-on-exit extension on the timing core.
func BenchmarkAblationSwitchOnExit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunAblationSwitchOnExit(200)
		if err != nil {
			b.Fatal(err)
		}
		_ = tb
	}
}

// BenchmarkAblationSchemes measures per-access enforcement cost per
// scheme on the timing core.
func BenchmarkAblationSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunAblationSchemes()
		if err != nil {
			b.Fatal(err)
		}
		_ = tb
	}
}

// BenchmarkAblationImplicitCheck compares the cost of HFI's
// prefix-masked implicit-region check against the naive 64-bit
// base/bound comparator chain the paper's §4 rejects. On hardware the
// difference is comparator width and circuit area; here it shows up as
// the work per check.
func BenchmarkAblationImplicitCheck(b *testing.B) {
	s := hfi.NewState()
	s.SetDataRegion(0, hfi.ImplicitRegion{BasePrefix: 0x10000, LSBMask: 0xffff, Read: true, Write: true})
	s.SetDataRegion(1, hfi.ImplicitRegion{BasePrefix: 0x40000000, LSBMask: 0xfffff, Read: true})
	s.Enter(hfi.Config{Hybrid: true})

	b.Run("prefix-mask", func(b *testing.B) {
		ok := true
		for i := 0; i < b.N; i++ {
			// 8-byte accesses at 8-byte-aligned offsets, so none straddle
			// the region edge.
			ok = ok && s.PeekData(0x10000+(uint64(i)*8)&0xfff8, 8, false)
		}
		if !ok {
			b.Fatal("check failed")
		}
	})
	b.Run("base-bound-64bit", func(b *testing.B) {
		// The rejected design: two 64-bit comparisons per region.
		type region struct{ base, end uint64 }
		regions := [4]region{{0x10000, 0x20000}, {0x40000000, 0x40100000}, {}, {}}
		ok := true
		for i := 0; i < b.N; i++ {
			addr := 0x10000 + (uint64(i)*8)&0xfff8
			hit := false
			for _, r := range regions {
				if addr >= r.base && addr+8 <= r.end {
					hit = true
					break
				}
			}
			ok = ok && hit
		}
		if !ok {
			b.Fatal("check failed")
		}
	})
}

// BenchmarkServeThroughput drives the concurrent serving layer
// (internal/host) closed-loop over the standard mixed-tenant traffic at
// several worker-pool sizes. Since the load is wall-clock (workers overlap
// real per-request dispatch waits), the interesting metrics are the custom
// ones: requests per second, p99 latency, and shed rate per pool size.
func BenchmarkServeThroughput(b *testing.B) {
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		counts = append(counts, g)
	}
	const total = 64
	reqs := host.BuildSchedule(host.DefaultMix(), total, 1)
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := host.New(host.Config{Workers: w, DispatchWall: 2 * time.Millisecond})
				pt, err := loadgen.Run(context.Background(), loadgen.InProcess(s), reqs, loadgen.Pacing{Clients: 2 * w})
				s.Close()
				if err != nil || pt.OK != total {
					b.Fatalf("OK = %d, want %d (err %v)", pt.OK, total, err)
				}
				b.ReportMetric(pt.AchievedRPS, "req/s")
				b.ReportMetric(pt.P99Ns/1e6, "p99-ms")
				b.ReportMetric(pt.ShedRate*100, "shed-%")
			}
		})
	}
}

// BenchmarkSpectreAttack measures the attack harness itself (per leaked
// byte) — useful for tracking simulator performance.
func BenchmarkSpectreAttack(b *testing.B) {
	h, err := spectre.NewPHT(false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := h.AttackByte(i % len(spectre.Secret))
		if !r.Hit {
			b.Fatal("attack lost its signal")
		}
	}
}
