package tier

import (
	"fmt"
	"testing"

	"hfi/internal/cpu"
	"hfi/internal/hfi"
	"hfi/internal/isa"
	"hfi/internal/kernel"
	"hfi/internal/verifier"
)

// buildChecked builds a loop whose body block has an unproven store as its
// third op: buf[i] = 7*i+1 for i in 0..n-1, each value read back and summed
// into R6. With no facts every load and store lowers to a checked op.
func buildChecked(base, buf uint64, n int64) *isa.Program {
	b := isa.NewBuilder(base)
	b.MovImm(isa.R0, 0)
	b.MovImm(isa.R2, int64(buf))
	b.Label("loop")
	b.MulImm(isa.R3, isa.R0, 7)
	b.AddImm(isa.R4, isa.R3, 1)
	b.Store(8, isa.R2, isa.R0, 8, 0, isa.R4)
	b.Load(8, isa.R5, isa.R2, isa.R0, 8, 0)
	b.Add(isa.R6, isa.R6, isa.R5)
	b.AddImm(isa.R0, isa.R0, 1)
	b.BrImm(isa.CondLT, isa.R0, n, "loop")
	b.Halt()
	return b.Build()
}

// noFacts is an artifact that proves nothing about memory: every plain
// load and store lowers to a checked op.
func noFacts(p *isa.Program) *verifier.Facts {
	f := &verifier.Facts{
		NumInstrs: len(p.Instrs),
		Bits:      make([]uint8, len(p.Instrs)),
		Mem:       make([]verifier.MemFact, len(p.Instrs)),
	}
	for i := range f.Mem {
		f.Mem[i].Window = -1
	}
	return f
}

// access is one MemHook observation.
type access struct {
	pc, addr uint64
	size     uint8
	write    bool
}

// checkedSnap is everything the differential compares.
type checkedSnap struct {
	machineSnap
	faultReason hfi.ExitReason
	checksData  uint64
}

// checkedScenario is one machine setup for the checked-op differential.
type checkedScenario struct {
	name   string
	n      int64
	mapLen uint64
	// region, when non-zero, is the size of an HFI data region over buf;
	// the run then happens inside a hybrid HFI sandbox.
	region uint64
}

const chkBase, chkBuf = uint64(0x1000), uint64(0x100000)

// machine builds the scenario's machine with the hook stream armed.
func (sc checkedScenario) machine(t *testing.T, hooks *[]access) *cpu.Machine {
	t.Helper()
	m := cpu.NewMachine()
	if err := m.AS.MapFixed(chkBuf, sc.mapLen, kernel.ProtRead|kernel.ProtWrite); err != nil {
		t.Fatal(err)
	}
	m.MustLoadProgram(buildChecked(chkBase, chkBuf, sc.n))
	if sc.region != 0 {
		if f := m.HFI.SetCodeRegion(0, hfi.ImplicitRegion{BasePrefix: chkBase, LSBMask: 0xfff, Exec: true}); f != nil {
			t.Fatal(f)
		}
		if f := m.HFI.SetDataRegion(0, hfi.ImplicitRegion{BasePrefix: chkBuf, LSBMask: sc.region - 1, Read: true, Write: true}); f != nil {
			t.Fatal(f)
		}
		if _, f := m.HFI.Enter(hfi.Config{Hybrid: true}); f != nil {
			t.Fatal(f)
		}
	}
	m.MemHook = func(pc, addr uint64, size uint8, write bool) {
		*hooks = append(*hooks, access{pc, addr, size, write})
	}
	m.PC = chkBase
	return m
}

func checkedSnapshot(m *cpu.Machine, res cpu.RunResult) checkedSnap {
	s := checkedSnap{machineSnap: snapshot(m, res), checksData: m.HFI.ChecksData}
	if res.Fault != nil {
		s.faultReason, s.res.Fault = res.Fault.Reason, nil
	}
	return s
}

// runSplit runs eng to completion, stopping once after split instructions
// (0 = no stop) to call between; the reference splits identically so both
// fold the clock at the same points.
func runSplit(m *cpu.Machine, eng cpu.Engine, split uint64, between func()) checkedSnap {
	if split > 0 {
		if res := eng.Run(split); res.Reason != cpu.StopLimit {
			return checkedSnapshot(m, res)
		}
		between()
	}
	return checkedSnapshot(m, eng.Run(0))
}

// TestCheckedOpsFaultMidBlock: a checked store on the third op of a hot
// block runs fused while the page-decision cache covers it and, on the
// iteration that walks off the permitted page, bails to the interpreter,
// which raises the architectural fault at that exact PC: a guard-page hit
// under guard pages, a data-bounds fault under an HFI implicit region. The
// tier must match the fully dynamic reference (NoFastPath) on registers,
// stop reason, fault PC and class, Instret, cycles, clock, ChecksData and
// the MemHook stream.
func TestCheckedOpsFaultMidBlock(t *testing.T) {
	const n = 600 // 600*8 = 4800 bytes: store 513 leaves the first page
	for _, sc := range []checkedScenario{
		{name: "guard page", n: n, mapLen: 0x1000},
		{name: "hfi data-bounds", n: n, mapLen: 0x2000, region: 0x1000},
	} {
		t.Run(sc.name, func(t *testing.T) {
			var refHooks, hooks []access
			ref := sc.machine(t, &refHooks)
			refIP := cpu.NewInterp(ref)
			refIP.NoFastPath = true
			want := checkedSnapshot(ref, refIP.Run(0))
			storePC := chkBase + 4*isa.InstrBytes
			if want.res.Reason != cpu.StopFault || want.res.FaultPC != storePC || want.res.FaultAddr != chkBuf+0x1000 {
				t.Fatalf("reference stop = %+v, want a fault at the store %#x on %#x", want.res, storePC, chkBuf+0x1000)
			}
			if sc.region == 0 && !want.res.PageFault || sc.region != 0 && want.faultReason != hfi.FaultDataBounds {
				t.Fatalf("reference fault = %+v (%v), want the scenario's class", want.res, want.faultReason)
			}

			m := sc.machine(t, &hooks)
			ip := cpu.NewInterp(m)
			p := buildChecked(chkBase, chkBuf, sc.n)
			eng := NewEngine(ip, Lower(p, noFacts(p), ip.Cost))
			got := checkedSnapshot(m, eng.Run(0))
			if got != want {
				t.Fatalf("tiered run diverged:\nwant %+v\ngot  %+v", want, got)
			}
			if fmt.Sprint(hooks) != fmt.Sprint(refHooks) {
				t.Fatalf("MemHook streams differ: %d accesses vs %d in the reference", len(hooks), len(refHooks))
			}
			_, tiered, interp := eng.Counters()
			if tiered < interp {
				t.Fatalf("tiered=%d interp=%d: the checked block did not run fused", tiered, interp)
			}
		})
	}
}

// TestStaleDTCPlantNeverConsumed plants a live stale entry into each
// page-decision slot in turn, mid-run: the audit must see it, and the
// fused checked ops must not consume it — the run completes identically to
// the reference and keeps retiring fused instructions.
func TestStaleDTCPlantNeverConsumed(t *testing.T) {
	const split = 300
	sc := checkedScenario{n: 256, mapLen: 0x1000}
	var refHooks []access
	ref := sc.machine(t, &refHooks)
	refIP := cpu.NewInterp(ref)
	refIP.NoFastPath = true
	want := runSplit(ref, refIP, split, func() {})
	if want.res.Reason != cpu.StopHalt {
		t.Fatalf("reference stop = %v", want.res.Reason)
	}
	for slot := uint64(0); slot < cpu.DTCSlots; slot++ {
		t.Run(fmt.Sprintf("slot %d", slot), func(t *testing.T) {
			var hooks []access
			m := sc.machine(t, &hooks)
			ip := cpu.NewInterp(m)
			p := buildChecked(chkBase, chkBuf, sc.n)
			eng := NewEngine(ip, Lower(p, noFacts(p), ip.Cost))
			got := runSplit(m, eng, split, func() {
				eng.TakeCounters()
				m.PlantStaleDTC(true, slot)
				if m.AuditCacheGens() {
					t.Fatalf("the audit missed a live stale entry in slot %d", slot)
				}
			})
			if got != want {
				t.Fatalf("run over a planted slot diverged:\nwant %+v\ngot  %+v", want, got)
			}
			if fmt.Sprint(hooks) != fmt.Sprint(refHooks) {
				t.Fatal("MemHook stream diverged after the plant")
			}
			if _, tiered, _ := eng.TakeCounters(); tiered == 0 {
				t.Fatal("nothing ran fused after the plant")
			}
		})
	}
}

// TestTierCheckedLoopZeroAllocs is TestTierHotLoopZeroAllocs for checked
// ops: a warm loop of unproven loads and stores, fused over page-decision
// cache hits, must not allocate.
func TestTierCheckedLoopZeroAllocs(t *testing.T) {
	m := cpu.NewMachine()
	if err := m.AS.MapFixed(chkBuf, 0x10000, kernel.ProtRead|kernel.ProtWrite); err != nil {
		t.Fatal(err)
	}
	p := buildChecked(chkBase, chkBuf, 1024)
	m.MustLoadProgram(p)
	m.PC = chkBase
	ip := cpu.NewInterp(m)
	eng := NewEngine(ip, Lower(p, noFacts(p), ip.Cost))
	if res := eng.Run(0); res.Reason != cpu.StopHalt {
		t.Fatalf("warmup stop = %v", res.Reason)
	}
	if _, tiered, interp := eng.Counters(); tiered < interp {
		t.Fatalf("tiered=%d interp=%d: the checked loop did not run fused; the gate is vacuous", tiered, interp)
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.PC = chkBase
		eng.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("checked hot loop allocates %.1f allocs/run, want 0", allocs)
	}
}
