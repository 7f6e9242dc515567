package cpu

import (
	"testing"

	"hfi/internal/kernel"
)

// The interpreter throughput benchmarks run the load/store-heavy kernel the
// fast-path work is tuned against: a fill loop (mul, store, add, branch)
// followed by a sum loop (load, add, add, branch), all inside one code page
// and one data page. The 0 allocs/op requirement is enforced separately by
// TestInterpHotLoopZeroAllocs so `make verify` catches regressions without
// running benchmarks.

func benchInterp(b *testing.B, noFast bool) {
	m := NewMachine()
	const buf = 0x100000
	if err := m.AS.MapFixed(buf, 0x10000, kernel.ProtRead|kernel.ProtWrite); err != nil {
		b.Fatal(err)
	}
	m.MustLoadProgram(buildMemKernel(0x1000, buf, 64))
	ip := NewInterp(m)
	ip.NoFastPath = noFast
	m.PC = 0x1000
	if res := ip.Run(0); res.Reason != StopHalt {
		b.Fatalf("warmup stop = %v", res.Reason)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PC = 0x1000
		ip.Run(0)
	}
	b.ReportMetric(float64(m.Instret)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkInterpMemKernel measures the interpreter with its fast paths on
// (the default): direct-indexed code cache, 1-entry data-translation and
// exec-permission caches, and the memory hierarchy's MRU short-circuits.
func BenchmarkInterpMemKernel(b *testing.B) { benchInterp(b, false) }

// BenchmarkInterpMemKernelNoFastPath forces every fetch through the binary
// search and every access through the full HFI + MMU checks — the
// differential-testing configuration, and the floor the fast paths are
// measured against.
func BenchmarkInterpMemKernelNoFastPath(b *testing.B) { benchInterp(b, true) }
