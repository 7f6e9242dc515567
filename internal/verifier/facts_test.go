package verifier

import (
	"errors"
	"testing"

	"hfi/internal/isa"
	"hfi/internal/sfi"
)

// analyzeOK runs Analyze under scheme with the shared test geometry and
// fails the test on rejection.
func analyzeOK(t *testing.T, p *isa.Program, scheme sfi.Scheme) *Facts {
	t.Helper()
	f, err := Analyze(p, testCfg(scheme))
	if err != nil {
		t.Fatalf("%v: analyze rejected: %v", scheme, err)
	}
	return f
}

// auditRule corrupts nothing itself — it audits claimed against the test
// geometry and returns the first rejection rule ("" if accepted).
func auditRule(t *testing.T, p *isa.Program, scheme sfi.Scheme, claimed *Facts) string {
	t.Helper()
	err := AuditFacts(p, testCfg(scheme), claimed)
	if err == nil {
		return ""
	}
	var re *RejectError
	if !errors.As(err, &re) {
		t.Fatalf("audit error is %T, want *RejectError: %v", err, err)
	}
	return re.First().Rule
}

// --- CFG edge cases feeding the fact analysis --------------------------

// testHeapBase mirrors testCfg's heap base. The root entry trusts no
// register (the springboard sets them), so accepted hand-written programs
// establish the heap-base invariant themselves; the reserved-register
// check admits the write because the value is exactly the heap base.
const testHeapBase = int64(0x1_0000_0000)

// TestFactFallThroughDominatedCheck: a conditional branch falls through
// into a block repeating an identical access. The repeat needs no witness
// from the first check: its own interval proof makes it resident, in the
// same window, and the genuine artifact passes the audit.
func TestFactFallThroughDominatedCheck(t *testing.T) {
	b := isa.NewBuilder(0)
	b.MovImm(sfi.HeapBaseReg, testHeapBase)          // 0
	b.MovImm(isa.R1, 0x100)                          // 1
	b.Load(8, isa.R2, sfi.HeapBaseReg, isa.R1, 1, 0) // 2: check A
	b.BrImm(isa.CondEQ, isa.R2, 0, "skip")           // 3
	b.Load(8, isa.R3, sfi.HeapBaseReg, isa.R1, 1, 0) // 4: fall-through, same address
	b.Label("skip")
	b.Halt() // 5
	p := b.Build()

	f := analyzeOK(t, p, sfi.GuardPages)
	for _, i := range []int{2, 4} {
		if f.Bits[i]&FactResident == 0 {
			t.Errorf("access %d has an exact in-heap EA; want FactResident (bits %#x)", i, f.Bits[i])
		}
	}
	if f.Mem[2].Window != f.Mem[4].Window || f.Mem[2].EA != f.Mem[4].EA {
		t.Errorf("identical accesses carry different proofs: %+v vs %+v", f.Mem[2], f.Mem[4])
	}
	if r := auditRule(t, p, sfi.GuardPages, f); r != "" {
		t.Errorf("audit rejected the genuine artifact: %s", r)
	}
}

// TestFactBackEdgeDropsPageUniformity: in a loop the index register's
// interval widens across the back-edge until the access spans multiple
// pages, so the loop block must carry no page-uniform range for it. The
// access stays resident (the whole interval is inside the committed heap):
// the block-level claim is dropped without touching the instruction-level
// one.
func TestFactBackEdgeDropsPageUniformity(t *testing.T) {
	b := isa.NewBuilder(0)
	b.MovImm(sfi.HeapBaseReg, testHeapBase) // 0
	b.MovImm(isa.R1, 0)                     // 1
	b.Label("loop")
	b.Load(8, isa.R2, sfi.HeapBaseReg, isa.R1, 1, 0) // 2
	b.AddImm(isa.R1, isa.R1, 8)                      // 3
	b.BrImm(isa.CondLTU, isa.R1, 8192, "loop")       // 4
	b.Halt()                                         // 5
	p := b.Build()

	f := analyzeOK(t, p, sfi.GuardPages)
	if f.Bits[2]&FactResident == 0 {
		t.Error("loop access is bounded within the committed heap; want FactResident")
	}
	for _, blk := range f.Blocks {
		for _, u := range blk.Uniform {
			if u.From <= 2 && 2 < u.To {
				t.Fatalf("loop access spans pages [%#x,%#x] yet sits in uniform range %+v",
					f.Mem[2].EA.Lo, f.Mem[2].EA.Hi, u)
			}
		}
	}

	// Control: the same accesses laid out straight-line with exact EAs on
	// one page do form a uniform run.
	c := isa.NewBuilder(0)
	c.MovImm(sfi.HeapBaseReg, testHeapBase)          // 0
	c.MovImm(isa.R1, 0x100)                          // 1
	c.Load(8, isa.R2, sfi.HeapBaseReg, isa.R1, 1, 0) // 2
	c.Load(8, isa.R3, sfi.HeapBaseReg, isa.R1, 1, 8) // 3
	c.Halt()                                         // 4
	cf := analyzeOK(t, c.Build(), sfi.GuardPages)
	found := false
	for _, blk := range cf.Blocks {
		for _, u := range blk.Uniform {
			if u.From <= 2 && 3 < u.To {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("straight-line same-page accesses carry no uniform range: %+v", cf.Blocks)
	}
}

// TestFactIndirectTargetDropsDomination: the CFG over-approximates an
// indirect jump's successors with the whole address-taken set (every
// symbol and every decoded code address). Execution only ever reaches
// "mid" through "work", yet the dispatcher gets an edge to both and each
// starts its own block — so no fact about "mid" may lean on "work" having
// run, and none needs to: both accesses are resident on their own proofs.
func TestFactIndirectTargetDropsDomination(t *testing.T) {
	b := isa.NewBuilder(0)
	b.MovImm(sfi.HeapBaseReg, testHeapBase) // 0
	b.MovImm(isa.R1, 0x100)                 // 1
	b.MovImm(isa.R3, 4*isa.InstrBytes)      // 2: address of "work"
	b.JmpInd(isa.R3)                        // 3: succs = {work, mid}
	b.Label("work")
	b.Load(8, isa.R2, sfi.HeapBaseReg, isa.R1, 1, 0) // 4
	b.Jmp("mid")                                     // 5
	b.Label("mid")
	b.Load(8, isa.R4, sfi.HeapBaseReg, isa.R1, 1, 0) // 6: same address as 4
	b.Halt()                                         // 7
	p := b.Build()

	g := BuildCFG(p)
	work, mid := g.BlockAt(4), g.BlockAt(6)
	if work < 0 || mid < 0 {
		t.Fatalf("address-taken targets are not block leaders: work %d, mid %d", work, mid)
	}
	succ := map[int]bool{}
	for _, s := range g.Blocks[g.BlockAt(0)].Succs {
		succ[s] = true
	}
	if !succ[work] || !succ[mid] {
		t.Fatalf("dispatcher succs = %v, want both work (%d) and mid (%d)", g.Blocks[g.BlockAt(0)].Succs, work, mid)
	}

	f := analyzeOK(t, p, sfi.GuardPages)
	for _, i := range []int{4, 6} {
		if f.Bits[i]&FactResident == 0 {
			t.Errorf("access %d lost its resident fact (bits %#x)", i, f.Bits[i])
		}
	}
	if r := auditRule(t, p, sfi.GuardPages, f); r != "" {
		t.Errorf("audit rejected the genuine artifact: %s", r)
	}
}

// TestIndirectComputedTargetRejected: an indirect branch whose target is
// a provable constant but NOT address-taken (no symbol or movi immediate
// names it) must be rejected. The CFG's indirect successor edges only
// cover the address-taken set, so admitting such a target would let
// concrete execution enter a block mid-way with no edge witnessing it,
// and every block-level fact is a claim about blocks entered at the top.
func TestIndirectComputedTargetRejected(t *testing.T) {
	build := func(call bool) *isa.Program {
		b := isa.NewBuilder(0)
		b.MovImm(sfi.HeapBaseReg, testHeapBase)  // 0
		b.MovImm(isa.R1, 0x100)                  // 1
		b.MovImm(isa.R3, 5*isa.InstrBytes)       // 2: address-taken: instr 5
		b.AddImm(isa.R3, isa.R3, isa.InstrBytes) // 3: r3 = 6*IB — computed singleton
		if call {
			b.CallInd(isa.R3) // 4: resolves to instr 6, not address-taken
		} else {
			b.JmpInd(isa.R3) // 4
		}
		b.Load(8, isa.R2, sfi.HeapBaseReg, isa.R1, 1, 0) // 5: check A (address-taken leader)
		b.Load(8, isa.R4, sfi.HeapBaseReg, isa.R1, 1, 0) // 6: mid-block entry past check A
		b.Halt()                                         // 7
		return b.Build()
	}
	for _, tc := range []struct {
		name string
		call bool
	}{{"jmpi", false}, {"calli", true}} {
		t.Run(tc.name, func(t *testing.T) {
			p := build(tc.call)
			if got := rejectRule(t, p, sfi.GuardPages); got != "indirect-target" {
				t.Fatalf("rule = %q, want indirect-target", got)
			}
			if _, err := Analyze(p, testCfg(sfi.GuardPages)); err == nil {
				t.Fatal("Analyze admitted a computed non-address-taken indirect target")
			}
		})
	}

	// Control: the same computed arithmetic landing ON an address-taken
	// instruction (a symbol) stays admissible — the CFG edge exists, so
	// the over-approximation holds.
	c := isa.NewBuilder(0)
	c.MovImm(sfi.HeapBaseReg, testHeapBase)    // 0
	c.MovImm(isa.R1, 0x100)                    // 1
	c.MovImm(isa.R3, 3*isa.InstrBytes)         // 2: address-taken: instr 3
	c.AddImm(isa.R3, isa.R3, 2*isa.InstrBytes) // 3: r3 = 5*IB = "work"
	c.JmpInd(isa.R3)                           // 4
	c.Label("work")
	c.Load(8, isa.R2, sfi.HeapBaseReg, isa.R1, 1, 0) // 5
	c.Halt()                                         // 6
	cf := analyzeOK(t, c.Build(), sfi.GuardPages)
	if cf.Bits[5]&FactResident == 0 {
		t.Error("control: admitted computed-to-symbol target lost the resident fact")
	}
}

// --- audit corruption --------------------------------------------------

// TestAuditFactsRejectsCorruption hand-corrupts a genuine artifact one
// field at a time and pins the audit rule that must catch each: this is
// the unit-level face of the mutation bench's fact operators.
func TestAuditFactsRejectsCorruption(t *testing.T) {
	b := isa.NewBuilder(0)
	b.MovImm(sfi.HeapBaseReg, testHeapBase)
	b.MovImm(isa.R1, 0x100)
	b.Load(8, isa.R2, sfi.HeapBaseReg, isa.R1, 1, 0)
	b.BrImm(isa.CondEQ, isa.R2, 0, "skip")
	b.Load(8, isa.R3, sfi.HeapBaseReg, isa.R1, 1, 0)
	b.Label("skip")
	b.Halt()
	p := b.Build()
	f := analyzeOK(t, p, sfi.GuardPages)

	cases := []struct {
		name    string
		corrupt func(c *Facts)
		rule    string
	}{
		{"genuine artifact accepted", func(c *Facts) {}, ""},
		{"widened interval", func(c *Facts) { c.Mem[2].EA.Hi += sfi.GuardReservation }, "fact-window"},
		{"forged bit", func(c *Facts) { c.Bits[5] |= FactHostcall }, "fact-claim"},
		{"tampered block cost", func(c *Facts) { c.Blocks[0].Cost.ALU++ }, "fact-block"},
		{"shape mismatch", func(c *Facts) { c.Bits = c.Bits[:len(c.Bits)-1] }, "fact-shape"},
		{"nil artifact", nil, "fact-shape"},
	}
	for _, tc := range cases {
		var claimed *Facts
		if tc.corrupt != nil {
			claimed = f.Clone()
			tc.corrupt(claimed)
		}
		got := auditRule(t, p, sfi.GuardPages, claimed)
		if got != tc.rule {
			t.Errorf("%s: audit rule = %q, want %q", tc.name, got, tc.rule)
		}
	}
}
