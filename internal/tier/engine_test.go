package tier

import (
	"testing"

	"hfi/internal/cpu"
	"hfi/internal/hfi"
	"hfi/internal/isa"
	"hfi/internal/kernel"
	"hfi/internal/verifier"
)

// buildFill builds a program that stores 7*i into buf[i] for i in 0..n-1
// and halts — a canonical fusable store loop.
func buildFill(base, buf uint64, n int64) *isa.Program {
	b := isa.NewBuilder(base)
	b.MovImm(isa.R0, 0)
	b.MovImm(isa.R2, int64(buf))
	b.Label("fill")
	b.MulImm(isa.R3, isa.R0, 7)
	b.Store(8, isa.R2, isa.R0, 8, 0, isa.R3)
	b.AddImm(isa.R0, isa.R0, 1)
	b.BrImm(isa.CondLT, isa.R0, n, "fill")
	b.Halt()
	return b.Build()
}

// syntheticFacts marks every plain load/store resident in one window —
// the minimal artifact the lowering needs. No block facts are claimed, so
// only blocks containing a memory operation fuse (the NoSideExit
// cross-check keeps pure-compute blocks interpreted).
func syntheticFacts(p *isa.Program, lo, hi uint64) *verifier.Facts {
	f := &verifier.Facts{
		NumInstrs: len(p.Instrs),
		Bits:      make([]uint8, len(p.Instrs)),
		Mem:       make([]verifier.MemFact, len(p.Instrs)),
		Windows:   []verifier.Window{{Lo: lo, Hi: hi}},
	}
	for i := range f.Mem {
		f.Mem[i].Window = -1
	}
	for i := range p.Instrs {
		switch p.Instrs[i].Op {
		case isa.OpLoad, isa.OpStore:
			f.Bits[i] |= verifier.FactResident
			f.Mem[i].Window = 0
		}
	}
	return f
}

// machineSnap is everything architectural about a stopped machine.
type machineSnap struct {
	res     cpu.RunResult
	regs    [isa.NumRegs]uint64
	pc      uint64
	instret uint64
	cycles  uint64
	clockNs uint64
}

func snapshot(m *cpu.Machine, res cpu.RunResult) machineSnap {
	return machineSnap{
		res: res, regs: m.Regs, pc: m.PC,
		instret: m.Instret, cycles: m.Cycles,
		clockNs: m.Kern.Clock.Now(),
	}
}

func newFillMachine(t *testing.T, base, buf uint64, mapBytes uint64, n int64) *cpu.Machine {
	t.Helper()
	m := cpu.NewMachine()
	if err := m.AS.MapFixed(buf, mapBytes, kernel.ProtRead|kernel.ProtWrite); err != nil {
		t.Fatal(err)
	}
	m.MustLoadProgram(buildFill(base, buf, n))
	m.PC = base
	return m
}

// TestEngineMatchesInterp: the tiered engine over a synthetic store loop
// produces the interpreter's exact architectural outcome — registers, PC,
// retirement, cycles, simulated clock — while actually retiring fused
// instructions.
func TestEngineMatchesInterp(t *testing.T) {
	const base, buf = uint64(0x1000), uint64(0x100000)
	ref := newFillMachine(t, base, buf, 0x10000, 64)
	want := snapshot(ref, cpu.NewInterp(ref).Run(0))
	if want.res.Reason != cpu.StopHalt {
		t.Fatalf("interp stop = %v", want.res.Reason)
	}

	m := newFillMachine(t, base, buf, 0x10000, 64)
	ip := cpu.NewInterp(m)
	p := buildFill(base, buf, 64)
	low := Lower(p, syntheticFacts(p, buf, buf+64*8), ip.Cost)
	if low == nil {
		t.Fatal("lowering failed")
	}
	eng := NewEngine(ip, low)
	got := snapshot(m, eng.Run(0))
	if got != want {
		t.Fatalf("tiered run diverged:\nwant %+v\ngot  %+v", want, got)
	}
	if admitted, tiered, _ := eng.Counters(); tiered == 0 || admitted == 0 {
		t.Fatalf("admitted=%d tiered=%d: nothing ran fused; the comparison is vacuous", admitted, tiered)
	}
}

// TestFirstVisitRunsFused: a straight-line program whose blocks each
// execute exactly once still retires fused instructions — a gate-admitted
// block runs fused from its first visit — and matches the interpreter.
func TestFirstVisitRunsFused(t *testing.T) {
	const base, buf = uint64(0x1000), uint64(0x100000)
	build := func() *isa.Program {
		b := isa.NewBuilder(base)
		b.MovImm(isa.R2, int64(buf))
		b.MovImm(isa.R3, 7)
		b.Store(8, isa.R2, isa.RegNone, 1, 0, isa.R3)
		b.Store(8, isa.R2, isa.RegNone, 1, 8, isa.R3)
		b.Jmp("second")
		b.Label("second")
		b.Store(8, isa.R2, isa.RegNone, 1, 16, isa.R3)
		b.Store(8, isa.R2, isa.RegNone, 1, 24, isa.R3)
		b.Halt()
		return b.Build()
	}
	newMachine := func() *cpu.Machine {
		m := cpu.NewMachine()
		if err := m.AS.MapFixed(buf, 0x1000, kernel.ProtRead|kernel.ProtWrite); err != nil {
			t.Fatal(err)
		}
		m.MustLoadProgram(build())
		m.PC = base
		return m
	}
	ref := newMachine()
	want := snapshot(ref, cpu.NewInterp(ref).Run(0))
	if want.res.Reason != cpu.StopHalt {
		t.Fatalf("interp stop = %v", want.res.Reason)
	}

	m := newMachine()
	ip := cpu.NewInterp(m)
	p := build()
	eng := NewEngine(ip, Lower(p, syntheticFacts(p, buf, buf+32), ip.Cost))
	if got := snapshot(m, eng.Run(0)); got != want {
		t.Fatalf("tiered run diverged:\nwant %+v\ngot  %+v", want, got)
	}
	if _, tiered, _ := eng.Counters(); tiered == 0 {
		t.Fatal("single-visit blocks never ran fused")
	}
}

// TestFusedBailExactState: a fused store loop whose window covers only
// the first mapped page runs fused until the store that crosses into the
// unmapped page, bails mid-superinstruction with zero side effects, and
// the interpreter raises the page fault — with machine state identical to
// a pure interpreter run of the same program.
func TestFusedBailExactState(t *testing.T) {
	const base, buf = uint64(0x1000), uint64(0x100000)
	const n = 600 // 600*8 = 4800 > one 4 KiB page

	ref := newFillMachine(t, base, buf, 0x1000, n)
	want := snapshot(ref, cpu.NewInterp(ref).Run(0))
	if want.res.Reason != cpu.StopFault || !want.res.PageFault {
		t.Fatalf("interp stop = %+v, want page fault", want.res)
	}
	if want.res.FaultAddr != buf+0x1000 {
		t.Fatalf("interp fault addr %#x, want %#x", want.res.FaultAddr, buf+0x1000)
	}

	m := newFillMachine(t, base, buf, 0x1000, n)
	ip := cpu.NewInterp(m)
	p := buildFill(base, buf, n)
	// The window honestly claims only the mapped page; the 512th store's
	// address falls outside it, so the fused compare bails.
	low := Lower(p, syntheticFacts(p, buf, buf+0x1000), ip.Cost)
	if low == nil {
		t.Fatal("lowering failed")
	}
	eng := NewEngine(ip, low)
	got := snapshot(m, eng.Run(0))
	if got != want {
		t.Fatalf("bail state diverged:\nwant %+v\ngot  %+v", want, got)
	}
	if _, tiered, _ := eng.Counters(); tiered == 0 {
		t.Fatal("fault path never ran fused; the comparison is vacuous")
	}
}

// TestResetThenRegionChange: Machine.Reset carries no meaning for the
// engine; what invalidates its verdicts is an HFI state write. A store
// loop runs fused under a 64 KiB data region, the machine is Reset, the
// region is narrowed to 16 bytes (HFI.Gen moves), and the loop runs again:
// the gate must refuse the window the region no longer covers, and the
// interpreter raises the data-bounds fault at the exact PC — fault,
// registers and counters equal to a pure interpreter run of the same
// sequence.
func TestResetThenRegionChange(t *testing.T) {
	const base, buf = uint64(0x1000), uint64(0x100000)
	const n = 4
	type hfiSnap struct {
		machineSnap
		fault                        hfi.Fault
		checksData, checksCode, flts uint64
	}
	enter := func(m *cpu.Machine, mask uint64) {
		t.Helper()
		if f := m.HFI.SetDataRegion(0, hfi.ImplicitRegion{
			BasePrefix: buf, LSBMask: mask, Read: true, Write: true,
		}); f != nil {
			t.Fatal(f)
		}
		if !m.HFI.Enabled {
			if f := m.HFI.SetCodeRegion(0, hfi.ImplicitRegion{BasePrefix: base, LSBMask: 0xfff, Exec: true}); f != nil {
				t.Fatal(f)
			}
			if _, f := m.HFI.Enter(hfi.Config{Hybrid: true}); f != nil {
				t.Fatal(f)
			}
		}
	}
	// run executes the fill loop from base under a data region of
	// mask+1 bytes, after a Reset when reset is set.
	run := func(m *cpu.Machine, eng cpu.Engine, mask uint64, reset bool) hfiSnap {
		if reset {
			m.Reset()
		}
		enter(m, mask)
		m.PC = base
		s := hfiSnap{machineSnap: snapshot(m, eng.Run(0))}
		if s.res.Fault != nil {
			s.fault, s.res.Fault = *s.res.Fault, nil
		}
		s.checksData, s.checksCode, s.flts = m.HFI.ChecksData, m.HFI.ChecksCode, m.HFI.Faults
		return s
	}

	ref := newFillMachine(t, base, buf, 0x10000, n)
	refIP := cpu.NewInterp(ref)
	want1 := run(ref, refIP, 0xffff, false)
	want2 := run(ref, refIP, 0xf, true)
	if want1.res.Reason != cpu.StopHalt {
		t.Fatalf("interp first run stop = %v", want1.res.Reason)
	}
	if want2.res.Reason != cpu.StopFault || want2.fault.Reason != hfi.FaultDataBounds {
		t.Fatalf("interp second run = %+v (%v), want a data-bounds fault", want2.res, want2.fault.Reason)
	}

	m := newFillMachine(t, base, buf, 0x10000, n)
	ip := cpu.NewInterp(m)
	p := buildFill(base, buf, n)
	eng := NewEngine(ip, Lower(p, syntheticFacts(p, buf, buf+n*8), ip.Cost))
	if got := run(m, eng, 0xffff, false); got != want1 {
		t.Fatalf("first run diverged:\nwant %+v\ngot  %+v", want1, got)
	}
	if _, tiered, _ := eng.TakeCounters(); tiered == 0 {
		t.Fatal("first run never ran fused; the comparison is vacuous")
	}
	if got := run(m, eng, 0xf, true); got != want2 {
		t.Fatalf("post-Reset run diverged:\nwant %+v\ngot  %+v", want2, got)
	}
	if _, tiered, _ := eng.TakeCounters(); tiered != 0 {
		t.Fatalf("gate admitted a window the narrowed region does not cover: %d fused instrs", tiered)
	}
}

// TestTierHotLoopZeroAllocs is the allocation gate for the tiered hot
// loop: after a warm run has synced the gate, re-running the program
// end to end — fused blocks, interpreter segments, gate checks — must not
// allocate.
func TestTierHotLoopZeroAllocs(t *testing.T) {
	const base, buf = uint64(0x1000), uint64(0x100000)
	m := newFillMachine(t, base, buf, 0x10000, 1024)
	ip := cpu.NewInterp(m)
	p := buildFill(base, buf, 1024)
	low := Lower(p, syntheticFacts(p, buf, buf+1024*8), ip.Cost)
	eng := NewEngine(ip, low)
	if res := eng.Run(0); res.Reason != cpu.StopHalt {
		t.Fatalf("warmup stop = %v", res.Reason)
	}
	if _, tiered, _ := eng.Counters(); tiered == 0 {
		t.Fatal("warmup never ran fused; the gate is vacuous")
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.PC = base
		eng.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("tiered hot loop allocates %.1f allocs/run, want 0", allocs)
	}
}

// TestGateRefusesUnmappedWindow: a lowering whose window claim the live
// address space does not back never executes fused — the per-generation
// gate re-validates claims instead of trusting them.
func TestGateRefusesUnmappedWindow(t *testing.T) {
	const base, buf = uint64(0x1000), uint64(0x100000)
	m := newFillMachine(t, base, buf, 0x10000, 64)
	ip := cpu.NewInterp(m)
	p := buildFill(base, buf, 64)
	// A window entirely outside the mapping: every claim is a lie, and the
	// gate must catch it wholesale.
	low := Lower(p, syntheticFacts(p, buf+0x40000, buf+0x41000), ip.Cost)
	eng := NewEngine(ip, low)
	if res := eng.Run(0); res.Reason != cpu.StopHalt {
		t.Fatalf("stop = %v", res.Reason)
	}
	if _, tiered, _ := eng.Counters(); tiered != 0 {
		t.Fatalf("gate admitted an unbacked window: %d fused instrs", tiered)
	}
}

// TestForgedWindowOverCanary feeds tier.Lower hand-forged, un-audited
// FactResident windows with the MemHook escape oracle armed. The store
// loop walks off its buffer onto a canary page the guest may read but not
// write; whatever the artifact claims, the run must end in the
// interpreter's page fault at the canary — by gate refusal or by a
// window-compare bail — with the hook never shown an address outside the
// buffer.
func TestForgedWindowOverCanary(t *testing.T) {
	const base, buf = uint64(0x1000), uint64(0x100000)
	const canary = buf + 0x1000
	const n = 600 // 600*8 = 4800 bytes: the 513th store lands on the canary

	for _, tc := range []struct {
		name   string
		lo, hi uint64
		fused  bool
	}{
		// The window is laid over buffer and canary alike: the live page
		// table does not back the read+write claim, so nothing fuses.
		{"gate refuses a window over the canary", buf, canary + 0x1000, false},
		// The window honestly stops at the canary: the loop runs fused
		// until the first store past it, which bails before any effect.
		{"window compare bails at the canary", buf, canary, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newFillMachine(t, base, buf, 0x1000, n)
			if err := m.AS.MapFixed(canary, 0x1000, kernel.ProtRead); err != nil {
				t.Fatal(err)
			}
			var seen, escaped int
			m.MemHook = func(pc, addr uint64, size uint8, write bool) {
				seen++
				if addr < buf || addr+uint64(size) > canary {
					escaped++
				}
			}
			ip := cpu.NewInterp(m)
			p := buildFill(base, buf, n)
			eng := NewEngine(ip, Lower(p, syntheticFacts(p, tc.lo, tc.hi), ip.Cost))
			res := eng.Run(0)
			if res.Reason != cpu.StopFault || !res.PageFault || res.FaultAddr != canary {
				t.Fatalf("stop = %+v, want a page fault at the canary %#x", res, canary)
			}
			if escaped != 0 {
				t.Fatalf("the hook saw %d accesses outside the buffer", escaped)
			}
			// Every in-buffer store is observed, fused or not: a fused
			// runner that skipped the hook would show one store per
			// interpreted visit only.
			if seen != 512 {
				t.Fatalf("the hook saw %d stores, want all 512 in-buffer ones", seen)
			}
			if _, tiered, _ := eng.Counters(); (tiered > 0) != tc.fused {
				t.Fatalf("fused instructions = %d, want fused=%v", tiered, tc.fused)
			}
		})
	}
}
