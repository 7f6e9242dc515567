package sandbox

import (
	"testing"

	"hfi/internal/cpu"
	"hfi/internal/isa"
	"hfi/internal/sfi"
	"hfi/internal/tier"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// runSnapshot captures everything observable about a finished run. Two runs
// that differ only in which engine variant executed them must produce
// byte-identical snapshots.
type runSnapshot struct {
	reason    cpu.StopReason
	result    uint64
	regs      [isa.NumRegs]uint64
	instret   uint64
	cycles    uint64
	clockNs   uint64
	heapHash  uint64
	checksD   uint64 // HFI data checks, the fast path's preserved counter
	checksC   uint64
	hfiFaults uint64
	// hookN and hookHash fold the Machine.MemHook stream — every (pc,
	// addr, size, write) in order — when the run was hooked; zero otherwise.
	hookN    uint64
	hookHash uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashBytes(data []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// engineVariant selects how a differential run executes: the fully dynamic
// reference interpreter (noFast), the cached interpreter (neither flag), or
// the tiered engine over the cached interpreter.
type engineVariant struct {
	noFast, tiered bool
}

// runVariant instantiates w under scheme on a fresh runtime, executes it
// to halt under v — with a hashing MemHook armed when hooked — and returns
// the snapshot plus the instructions retired through fused blocks.
func runVariant(t *testing.T, w workloads.Workload, scheme sfi.Scheme, v engineVariant, hooked bool) (runSnapshot, uint64) {
	t.Helper()
	rt := NewRuntime()
	inst, err := rt.Instantiate(w.Build(1), scheme, wasm.Options{})
	if err != nil {
		t.Fatalf("%s/%v: %v", w.Name, scheme, err)
	}
	m := rt.M
	ip := cpu.NewInterp(m)
	ip.NoFastPath = v.noFast
	var eng cpu.Engine = ip
	var te *tier.Engine
	if v.tiered {
		te = tier.NewEngine(ip, inst.Lowered)
		// Promote on the second execution of every block so the fused
		// paths carry as much of the run as possible.
		te.PromoteAfter = 1
		eng = te
	}
	snap := runSnapshot{}
	if hooked {
		snap.hookHash = fnvOffset64
		m.MemHook = func(pc, addr uint64, size uint8, write bool) {
			wr := uint64(0)
			if write {
				wr = 1
			}
			snap.hookN++
			for _, x := range [4]uint64{pc, addr, uint64(size), wr} {
				snap.hookHash = (snap.hookHash ^ x) * fnvPrime64
			}
		}
	}
	res, r0 := inst.Invoke(eng, 500_000_000)
	if res.Reason != cpu.StopHalt {
		t.Fatalf("%s/%v %+v: stop = %v", w.Name, scheme, v, res.Reason)
	}
	heap := inst.ReadHeap(0, int(uint64(inst.CurPages)*wasm.PageSize))
	snap.reason = res.Reason
	snap.result = r0
	snap.regs = m.Regs
	snap.instret = m.Instret
	snap.cycles = m.Cycles
	snap.clockNs = m.Kern.Clock.Now()
	snap.heapHash = hashBytes(heap)
	snap.checksD = m.HFI.ChecksData
	snap.checksC = m.HFI.ChecksCode
	snap.hfiFaults = m.HFI.Faults
	var tiered uint64
	if te != nil {
		_, tiered, _ = te.Counters()
	}
	return snap, tiered
}

var differentialSchemes = []sfi.Scheme{sfi.GuardPages, sfi.BoundsCheck, sfi.Masking, sfi.HFI}

// TestDifferentialFastPathCorpus runs the full Sightglass corpus under all
// four isolation schemes on three engine variants — the fully dynamic
// reference interpreter (NoFastPath), the cached interpreter, and the
// tiered superinstruction engine with an aggressive promotion threshold —
// and asserts identical architectural outcomes: stop reason, result,
// registers, retired instructions, cycle counts, simulated clock, heap
// image, and HFI check counters. The interpreter's caches are pure caching
// and the tiered engine is a pure re-encoding of the same semantics under
// the verifier's facts — any divergence is a bug in cache invalidation, in
// a fact the verifier should not have emitted, or in a superinstruction
// lowering. The tiered runs must actually retire fused instructions, so
// the equivalence is not vacuous.
func TestDifferentialFastPathCorpus(t *testing.T) {
	wls := workloads.Sightglass()
	if testing.Short() {
		wls = wls[:4]
	}
	tieredRan := make(map[sfi.Scheme]uint64)
	for _, w := range wls {
		for _, scheme := range differentialSchemes {
			want, _ := runVariant(t, w, scheme, engineVariant{noFast: true}, false)
			for _, v := range []engineVariant{{}, {tiered: true}} {
				got, tiered := runVariant(t, w, scheme, v, false)
				tieredRan[scheme] += tiered
				if got != want {
					t.Fatalf("%s/%v %+v: divergence from dynamic baseline:\nbase: %+v\ngot:  %+v",
						w.Name, scheme, v, want, got)
				}
			}
		}
	}
	// Non-vacuity for the tiered variant: under every scheme, at least part
	// of the corpus must have retired instructions through fused blocks.
	for _, scheme := range differentialSchemes {
		if tieredRan[scheme] == 0 {
			t.Errorf("%v: tiered engine retired no fused instructions across the corpus; the differential is vacuous", scheme)
		}
	}
}

// TestMemHookStreamTieredMatchesReference pins that the escape oracle sees
// the engine that serves production: with Machine.MemHook armed the tiered
// engine still retires fused instructions (it does not fall back to the
// interpreter), and the hook observes exactly the reference interpreter's
// access stream — same (pc, addr, size, write) tuples in the same order —
// under all four schemes.
func TestMemHookStreamTieredMatchesReference(t *testing.T) {
	for _, scheme := range differentialSchemes {
		tieredRan := uint64(0)
		for _, w := range workloads.Sightglass()[:4] {
			want, _ := runVariant(t, w, scheme, engineVariant{noFast: true}, true)
			if want.hookN == 0 {
				t.Fatalf("%s/%v: reference run made no hooked accesses", w.Name, scheme)
			}
			got, tiered := runVariant(t, w, scheme, engineVariant{tiered: true}, true)
			tieredRan += tiered
			if got != want {
				t.Fatalf("%s/%v: hooked tiered run diverged from the reference:\nbase: %+v\ngot:  %+v",
					w.Name, scheme, want, got)
			}
		}
		if tieredRan == 0 {
			t.Errorf("%v: no fused instructions retired with MemHook armed; the oracle is watching the interpreter only", scheme)
		}
	}
}
