package cpu

import (
	"testing"

	"hfi/internal/hfi"
	"hfi/internal/isa"
	"hfi/internal/kernel"
)

// buildStoreLoop builds a loop storing R3 to the same 8-byte slot n times —
// the densest possible client of the data-translation cache.
func buildStoreLoop(base, buf uint64, n int64) *isa.Program {
	b := isa.NewBuilder(base)
	b.MovImm(isa.R0, 0)
	b.MovImm(isa.R2, int64(buf))
	b.MovImm(isa.R3, 0x42)
	b.Label("loop")
	b.Store(8, isa.R2, isa.RegNone, 1, 0, isa.R3)
	b.AddImm(isa.R0, isa.R0, 1)
	b.BrImm(isa.CondLT, isa.R0, n, "loop")
	b.Halt()
	return b.Build()
}

// TestFetchCacheSecondProgram loads a second program over a reset machine
// and runs both: the fetch code cache must not serve instructions from the
// previously cached program.
func TestFetchCacheSecondProgram(t *testing.T) {
	m := NewMachine()
	m.MustLoadProgram(buildSumLoop(0x1000, 10))
	m.PC = 0x1000
	if res := NewInterp(m).Run(0); res.Reason != StopHalt {
		t.Fatalf("first program: stop = %v", res.Reason)
	}
	if got := m.Regs[isa.R1]; got != 45 {
		t.Fatalf("first program sum = %d, want 45", got)
	}

	m.Reset()
	m.MustLoadProgram(buildSumLoop(0x8000, 20))
	m.PC = 0x8000
	if res := NewInterp(m).Run(0); res.Reason != StopHalt {
		t.Fatalf("second program: stop = %v", res.Reason)
	}
	if got := m.Regs[isa.R1]; got != 190 {
		t.Fatalf("second program sum = %d, want 190", got)
	}

	// The first program must still run correctly after the cache has been
	// retargeted at the second.
	m.Reset()
	m.PC = 0x1000
	if res := NewInterp(m).Run(0); res.Reason != StopHalt {
		t.Fatalf("first program rerun: stop = %v", res.Reason)
	}
	if got := m.Regs[isa.R1]; got != 45 {
		t.Fatalf("first program rerun sum = %d, want 45", got)
	}
}

// TestDTCFlushOnMprotect revokes write permission in the middle of a store
// loop: the resumed run must fault on the next store even though the
// data-translation cache holds a positive decision for the page.
func TestDTCFlushOnMprotect(t *testing.T) {
	m := NewMachine()
	const buf = 0x100000
	if err := m.AS.MapFixed(buf, kernel.OSPageSize, kernel.ProtRead|kernel.ProtWrite); err != nil {
		t.Fatal(err)
	}
	m.MustLoadProgram(buildStoreLoop(0x1000, buf, 1_000_000))
	m.PC = 0x1000
	ip := NewInterp(m)

	// Run a slice of the loop so the DTC is warm with a write-allowed entry.
	if res := ip.Run(100); res.Reason != StopLimit {
		t.Fatalf("warmup: stop = %v, want limit", res.Reason)
	}

	if err := m.Kern.Mprotect(m.AS, buf, kernel.OSPageSize, kernel.ProtRead); err != nil {
		t.Fatal(err)
	}
	res := ip.Run(0)
	if res.Reason != StopFault || !res.PageFault {
		t.Fatalf("after mprotect: stop = %v pageFault=%v, want page fault", res.Reason, res.PageFault)
	}
	if res.FaultAddr != buf {
		t.Fatalf("fault addr = %#x, want %#x", res.FaultAddr, buf)
	}
}

// TestDTCFlushOnHFIEnter enables HFI (with regions excluding the store
// target) in the middle of a store loop started outside HFI: the cached
// no-HFI decision must not leak into the sandbox.
func TestDTCFlushOnHFIEnter(t *testing.T) {
	m := NewMachine()
	const buf = 0x100000
	if err := m.AS.MapFixed(buf, kernel.OSPageSize, kernel.ProtRead|kernel.ProtWrite); err != nil {
		t.Fatal(err)
	}
	m.MustLoadProgram(buildStoreLoop(0x1000, buf, 1_000_000))
	m.PC = 0x1000
	ip := NewInterp(m)

	if res := ip.Run(100); res.Reason != StopLimit {
		t.Fatalf("warmup: stop = %v, want limit", res.Reason)
	}

	// Enter a sandbox whose data region does NOT cover buf.
	if f := m.HFI.SetCodeRegion(0, hfi.ImplicitRegion{BasePrefix: 0x1000, LSBMask: 0xfff, Exec: true}); f != nil {
		t.Fatal(f)
	}
	if f := m.HFI.SetDataRegion(0, hfi.ImplicitRegion{BasePrefix: 0x200000, LSBMask: 0xffff, Read: true, Write: true}); f != nil {
		t.Fatal(f)
	}
	if _, f := m.HFI.Enter(hfi.Config{Hybrid: true}); f != nil {
		t.Fatal(f)
	}
	res := ip.Run(0)
	if res.Reason != StopFault || res.Fault == nil {
		t.Fatalf("after enter: stop = %v fault=%v, want HFI fault", res.Reason, res.Fault)
	}
	if res.Fault.Reason != hfi.FaultDataBounds {
		t.Fatalf("fault reason = %v, want data-bounds", res.Fault.Reason)
	}
}

// TestDTCSlotsIndependent fills every data-translation slot with a
// granting decision for its own page, then plants a live stale entry into
// each slot in turn: the audit must catch it, the planted slot must stop
// granting (no engine may consume the forged entry), and the other slots
// keep hitting — one page's plant or refill never evicts another page's
// decision.
func TestDTCSlotsIndependent(t *testing.T) {
	const buf = 0x100000
	for slot := uint64(0); slot < DTCSlots; slot++ {
		m := NewMachine()
		if err := m.AS.MapFixed(buf, DTCSlots*kernel.OSPageSize, kernel.ProtRead|kernel.ProtWrite); err != nil {
			t.Fatal(err)
		}
		page := func(i uint64) uint64 { return buf + i*kernel.OSPageSize }
		for i := uint64(0); i < DTCSlots; i++ {
			m.dtcFill(page(i))
		}
		for i := uint64(0); i < DTCSlots; i++ {
			if !m.DTCHit(page(i)+8, 8, true) {
				t.Fatalf("page %d missed after filling every slot", i)
			}
		}
		if !m.AuditCacheGens() {
			t.Fatal("the audit flagged freshly filled slots")
		}
		m.PlantStaleDTC(true, slot)
		if m.AuditCacheGens() {
			t.Fatalf("the audit missed a live stale entry in slot %d", slot)
		}
		for i := uint64(0); i < DTCSlots; i++ {
			if hit := m.DTCHit(page(i), 8, false); hit != (i != slot) {
				t.Fatalf("plant in slot %d: page %d hit=%v", slot, i, hit)
			}
		}
		m.FlushDTC()
		if !m.AuditCacheGens() {
			t.Fatal("the audit still fails after FlushDTC")
		}
	}
}

// TestInterpCostTableTracksModel edits the cost model between runs: the
// precomputed dispatch table must rebuild and charge the new costs.
func TestInterpCostTableTracksModel(t *testing.T) {
	m := NewMachine()
	m.MustLoadProgram(buildSumLoop(0x1000, 1000))
	ip := NewInterp(m)
	m.PC = 0x1000
	if res := ip.Run(0); res.Reason != StopHalt {
		t.Fatalf("stop = %v", res.Reason)
	}
	base := m.Cycles

	m.Reset()
	ip.Cost.ALU *= 10
	m.PC = 0x1000
	if res := ip.Run(0); res.Reason != StopHalt {
		t.Fatalf("stop = %v", res.Reason)
	}
	if m.Cycles <= base {
		t.Fatalf("cycles with 10x ALU cost = %d, want > %d", m.Cycles, base)
	}
}

// TestInterpHotLoopZeroAllocs is the allocation gate for the interpreter
// hot loop: after warmup, a full run of the load/store kernel must not
// allocate. This is what keeps `make bench` honest — the benchmark numbers
// are meaningless if the loop churns the garbage collector.
func TestInterpHotLoopZeroAllocs(t *testing.T) {
	m := NewMachine()
	const buf = 0x100000
	if err := m.AS.MapFixed(buf, 0x10000, kernel.ProtRead|kernel.ProtWrite); err != nil {
		t.Fatal(err)
	}
	m.MustLoadProgram(buildMemKernel(0x1000, buf, 64))
	ip := NewInterp(m)
	m.PC = 0x1000
	if res := ip.Run(0); res.Reason != StopHalt {
		t.Fatalf("warmup: stop = %v", res.Reason)
	}

	allocs := testing.AllocsPerRun(20, func() {
		m.PC = 0x1000
		if res := ip.Run(0); res.Reason != StopHalt {
			t.Errorf("stop = %v", res.Reason)
		}
	})
	if allocs != 0 {
		t.Fatalf("interpreter hot loop allocates %.1f times per run, want 0", allocs)
	}
}
