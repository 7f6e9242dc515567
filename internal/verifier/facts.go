package verifier

import (
	"hfi/internal/isa"
	"hfi/internal/sfi"
)

// This file promotes the verifier from a boolean gate into an analyzer:
// Analyze runs the same abstract interpretation Verify does, but keeps the
// proofs it discharges as a Facts artifact the tiered engine (internal/tier,
// the sole run-time consumer) spends to hoist dynamic checks to block entry
// (§4's check-hoisting argument: safety proven once should not be re-paid
// per access). Facts are conservative claims — every bit set is backed by
// the interval fixpoint — and they are re-checkable: AuditFacts re-derives
// everything from scratch and rejects any claim that does not reproduce.

// Per-instruction fact bits.
const (
	// FactResident: a plain load/store whose effective address provably
	// lies inside one of Facts.Windows — an address range the runtime maps
	// read+write at instantiate time. Once the runtime re-validates the
	// window's pages against the live page table and HFI bank (gen-tagged),
	// the per-access page-decision lookup is redundant.
	FactResident uint8 = 1 << iota
	// FactHfiHeap: an hld/hst whose region operand and displacement the
	// verifier proved well-formed. The hardware bounds check (ExplicitEA)
	// still runs — it is the fault source — but the MMU lookup behind it is
	// redundant once the region's span is validated against the page table.
	FactHfiHeap
	// FactHostcall: a direct call to the hostcall gate whose number is a
	// proven singleton and whose pointer/length arguments are proven inside
	// the sandbox heap.
	FactHostcall
)

// Window is a half-open address range [Lo, Hi) the runtime is expected to
// have mapped read+write for the lifetime of the instance. Facts never
// assert the mapping — the tiered engine's gate re-validates a window
// against the live address space and HFI bank before trusting any
// FactResident claim into it.
type Window struct{ Lo, Hi uint64 }

// MemFact carries the per-instruction proof detail behind the FactResident
// bit of one memory operation.
type MemFact struct {
	// EA is the joined proven interval of the access's first byte over
	// every abstract state reaching the instruction.
	EA   Interval
	Size uint8
	// Window indexes Facts.Windows for FactResident claims; -1 otherwise.
	Window int16
}

// HostcallFact is the discharged call-site proof of one direct call to the
// hostcall gate.
type HostcallFact struct {
	Num uint64 // proven singleton hostcall number
	// BufEnd is the largest proven ptr+len end bound across the
	// signature's buffer pairs (0 when the signature has none); always
	// <= Config.MaxBytes.
	BufEnd uint64
}

// BlockFact summarizes one basic block.
type BlockFact struct {
	Start, End int
	// NoSideExit: no instruction in the block can fault, trap, or halt —
	// control provably leaves only through the terminator's edges.
	NoSideExit bool
}

// Facts is the proof artifact Analyze emits alongside a successful
// verification. It is immutable once built and travels with the verified
// program through sandbox.CodeCache, so shared warm images carry their
// proofs.
type Facts struct {
	Scheme    sfi.Scheme
	NumInstrs int
	// Bits holds the per-instruction fact bits; Mem is parallel and
	// meaningful only where a memory-fact bit is set.
	Bits      []uint8
	Mem       []MemFact
	Hostcalls map[int]HostcallFact
	Windows   []Window
	Blocks    []BlockFact

	// HeapOps counts linear-memory operations (plain accesses proven into
	// the heap or an extra memory, plus every hld/hst); Covered counts
	// those carrying an elidable fact (resident or HFI-heap).
	HeapOps int
	Covered int
}

// FactsSummary is the CLI-facing rollup of one Facts artifact.
type FactsSummary struct {
	Resident, HfiHeap, HostcallSites int
	MemOps, HeapOps, Covered         int
}

// Summary counts facts by kind. MemOps counts every memory instruction;
// HeapOps/Covered are the elision-coverage numerator and denominator.
func (f *Facts) Summary() FactsSummary {
	var s FactsSummary
	for _, b := range f.Bits {
		if b&FactResident != 0 {
			s.Resident++
		}
		if b&FactHfiHeap != 0 {
			s.HfiHeap++
		}
		if b&FactHostcall != 0 {
			s.HostcallSites++
		}
	}
	s.MemOps = f.memOpCount()
	s.HeapOps = f.HeapOps
	s.Covered = f.Covered
	return s
}

func (f *Facts) memOpCount() int {
	// NumInstrs is authoritative; count from Mem entries with a size.
	n := 0
	for i := range f.Mem {
		if f.Mem[i].Size != 0 {
			n++
		}
	}
	return n
}

// Clone deep-copies the artifact (the mutation harness corrupts copies).
func (f *Facts) Clone() *Facts {
	c := *f
	c.Bits = append([]uint8(nil), f.Bits...)
	c.Mem = append([]MemFact(nil), f.Mem...)
	c.Windows = append([]Window(nil), f.Windows...)
	c.Hostcalls = make(map[int]HostcallFact, len(f.Hostcalls))
	for k, v := range f.Hostcalls {
		c.Hostcalls[k] = v
	}
	c.Blocks = append([]BlockFact(nil), f.Blocks...)
	return &c
}

// ---------------------------------------------------------------------------
// Production: observation collection during the abstract interpretation.

// factsCollector accumulates per-instruction observations across every
// abstract visit. Joining over all visits over-approximates the final
// fixpoint state, so the joined interval covers every concrete execution.
type factsCollector struct {
	mem  map[int]*memObs
	host map[int]*hostObs
}

type memObs struct {
	ea    Interval
	seen  bool // at least one interval-addressed visit
	frame bool // some visit resolved to a stack-frame (symbolic) address
	heap  bool // some visit landed in the heap or an extra linear memory
}

type hostObs struct {
	num      uint64
	set      bool
	conflict bool
	bufEnd   uint64
}

func newFactsCollector() *factsCollector {
	return &factsCollector{mem: map[int]*memObs{}, host: map[int]*hostObs{}}
}

func (fc *factsCollector) memAt(idx int) *memObs {
	o := fc.mem[idx]
	if o == nil {
		o = &memObs{}
		fc.mem[idx] = o
	}
	return o
}

// obsMem records one interval-addressed visit of a plain load/store.
func (v *verification) obsMem(idx int, ea Interval, heapish bool) {
	if v.fc == nil {
		return
	}
	o := v.fc.memAt(idx)
	if !o.seen {
		o.ea, o.seen = ea, true
	} else {
		o.ea = o.ea.Join(ea)
	}
	o.heap = o.heap || heapish
}

// obsFrame records a stack-frame visit: the address is symbolic, so the
// instruction can never carry an interval fact.
func (v *verification) obsFrame(idx int) {
	if v.fc == nil {
		return
	}
	v.fc.memAt(idx).frame = true
}

// obsHostcall records a discharged hostcall call-site proof.
func (v *verification) obsHostcall(idx int, num, bufEnd uint64) {
	if v.fc == nil {
		return
	}
	o := v.fc.host[idx]
	if o == nil {
		v.fc.host[idx] = &hostObs{num: num, set: true, bufEnd: bufEnd}
		return
	}
	if o.num != num {
		o.conflict = true
	}
	if bufEnd > o.bufEnd {
		o.bufEnd = bufEnd
	}
}

// ---------------------------------------------------------------------------
// Post-fixpoint derivation.

// residentWindows derives, from the geometry alone, the address ranges the
// runtime maps read+write at instantiate time: the committed prefix of the
// heap (the whole reservation for the schemes that commit it up front),
// the global area, and the committed prefix of each extra memory. The
// derivation is deliberately independent of the abstract interpretation so
// AuditFacts can recompute and compare it.
func residentWindows(cfg *Config) []Window {
	var ws []Window
	committed := func(initBytes, reservation uint64) uint64 {
		m := initBytes
		switch cfg.Scheme {
		case sfi.BoundsCheck, sfi.HFI:
			// These schemes map the whole reservation RW up front.
			m = reservation
		}
		if m > reservation {
			m = reservation
		}
		return m
	}
	if m := committed(cfg.InitBytes, cfg.HeapReservation); m > 0 {
		ws = append(ws, Window{cfg.HeapBase, cfg.HeapBase + m})
	}
	if cfg.GlobalSize > 0 {
		ws = append(ws, Window{cfg.GlobalBase, cfg.GlobalBase + cfg.GlobalSize})
	}
	for _, em := range cfg.ExtraMems {
		if m := committed(em.Bytes, em.Reservation); m > 0 {
			ws = append(ws, Window{em.Base, em.Base + m})
		}
	}
	return ws
}

// buildFacts derives the Facts artifact after a violation-free analysis.
func (v *verification) buildFacts() *Facts {
	p := v.p
	g := BuildCFG(p)
	f := &Facts{
		Scheme:    v.cfg.Scheme,
		NumInstrs: len(p.Instrs),
		Bits:      make([]uint8, len(p.Instrs)),
		Mem:       make([]MemFact, len(p.Instrs)),
		Hostcalls: map[int]HostcallFact{},
		Windows:   residentWindows(&v.cfg),
	}
	for i := range f.Mem {
		f.Mem[i].Window = -1
	}

	// Resident facts from the joined observations.
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case isa.OpLoad, isa.OpStore:
			o := v.fc.mem[i]
			if o == nil || !o.seen || o.frame {
				continue
			}
			f.Mem[i].EA, f.Mem[i].Size = o.ea, in.Size
			if o.heap {
				f.HeapOps++
			}
			if end, ok := satAdd(o.ea.Hi, uint64(in.Size)); ok {
				for w, win := range f.Windows {
					if o.ea.Lo >= win.Lo && end <= win.Hi {
						f.Bits[i] |= FactResident
						f.Mem[i].Window = int16(w)
						break
					}
				}
			}
		case isa.OpHLoad, isa.OpHStore:
			// A verified program proved every hld/hst's region operand and
			// displacement; the hardware bounds check remains the fault
			// source, so the MMU lookup is the only elidable part.
			f.Bits[i] |= FactHfiHeap
			f.Mem[i].Size = in.Size
			f.HeapOps++
		}
	}

	// Hostcall call-site facts.
	for idx, o := range v.fc.host {
		if o.set && !o.conflict {
			f.Bits[idx] |= FactHostcall
			f.Hostcalls[idx] = HostcallFact{Num: o.num, BufEnd: o.bufEnd}
		}
	}

	// Block facts.
	f.Blocks = make([]BlockFact, len(g.Blocks))
	for b, blk := range g.Blocks {
		f.Blocks[b] = v.blockFact(blk)
	}

	// Coverage: heap ops carrying any elidable fact.
	for i := range p.Instrs {
		switch p.Instrs[i].Op {
		case isa.OpLoad, isa.OpStore:
			o := v.fc.mem[i]
			if o == nil || !o.heap || o.frame {
				continue
			}
		case isa.OpHLoad, isa.OpHStore:
		default:
			continue
		}
		if f.Bits[i]&(FactResident|FactHfiHeap) != 0 {
			f.Covered++
		}
	}
	return f
}

// noSideExitOps is the opcode set that can neither fault nor stop the run.
func sideExitFree(op isa.Op) bool {
	switch op {
	case isa.OpNop, isa.OpMovImm, isa.OpMov,
		isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul,
		isa.OpNot, isa.OpNeg,
		isa.OpBr, isa.OpJmp, isa.OpFence:
		return true
	}
	return false
}

// blockFact summarizes one block: its bounds and side-exit freedom.
func (v *verification) blockFact(blk BasicBlock) BlockFact {
	bf := BlockFact{Start: blk.Start, End: blk.End, NoSideExit: true}
	for idx := blk.Start; idx < blk.End; idx++ {
		if !sideExitFree(v.p.Instrs[idx].Op) {
			bf.NoSideExit = false
			break
		}
	}
	return bf
}

// ---------------------------------------------------------------------------
// Public API.

// Analyze proves p safe under cfg exactly like Verify, and on success also
// returns the Facts artifact backing the proof. On rejection the facts are
// nil and the error is the same *RejectError Verify returns.
func Analyze(p *isa.Program, cfg Config) (*Facts, error) {
	v := &verification{p: p, cfg: cfg, fc: newFactsCollector()}
	if err := p.Validate(); err != nil {
		ve := err.(*isa.ValidationError)
		v.violations = append(v.violations, &Violation{
			Rule: "structural", Index: ve.Index, Addr: ve.Addr, Instr: ve.Instr, Detail: ve.Reason,
		})
		return nil, v.reject()
	}
	v.analyze()
	if len(v.violations) > 0 {
		return nil, v.reject()
	}
	return v.buildFacts(), nil
}

// AuditFacts independently re-checks a claimed Facts artifact against p
// and cfg: a fresh abstract interpretation (no state shared with the
// producer) re-derives the facts, and every claim must be subsumed by the
// re-derivation — claimed bits a superset of nothing, intervals containing
// the fresh ones while fitting their windows. Any discrepancy rejects with a fact-* rule. The runtime
// never has to trust a deserialized or cached artifact: auditing it costs
// one verification run.
func AuditFacts(p *isa.Program, cfg Config, claimed *Facts) error {
	fresh, err := Analyze(p, cfg)
	if err != nil {
		return err
	}
	a := &verification{p: p, cfg: cfg}
	if claimed == nil {
		a.violate(-1, "fact-shape", "no facts artifact to audit")
		return a.reject()
	}
	if claimed.NumInstrs != len(p.Instrs) ||
		len(claimed.Bits) != len(p.Instrs) || len(claimed.Mem) != len(p.Instrs) {
		a.violate(-1, "fact-shape", "artifact shape %d/%d/%d does not match the %d-instruction program",
			claimed.NumInstrs, len(claimed.Bits), len(claimed.Mem), len(p.Instrs))
		return a.reject()
	}
	if claimed.Scheme != cfg.Scheme {
		a.violate(-1, "fact-shape", "artifact scheme %v != config scheme %v", claimed.Scheme, cfg.Scheme)
	}
	// Windows must equal the geometry-derived set: a tampered window would
	// re-anchor every resident claim.
	if len(claimed.Windows) != len(fresh.Windows) {
		a.violate(-1, "fact-window", "artifact has %d windows, geometry derives %d",
			len(claimed.Windows), len(fresh.Windows))
	} else {
		for w := range claimed.Windows {
			if claimed.Windows[w] != fresh.Windows[w] {
				a.violate(-1, "fact-window", "window %d is [%#x,%#x), geometry derives [%#x,%#x)",
					w, claimed.Windows[w].Lo, claimed.Windows[w].Hi, fresh.Windows[w].Lo, fresh.Windows[w].Hi)
			}
		}
	}
	if len(a.violations) > 0 {
		return a.reject()
	}

	for i := range p.Instrs {
		if extra := claimed.Bits[i] &^ fresh.Bits[i]; extra != 0 {
			a.violate(i, "fact-claim", "claimed fact bits %#x are not re-derivable (fresh %#x)",
				claimed.Bits[i], fresh.Bits[i])
			continue
		}
		cm, fm := &claimed.Mem[i], &fresh.Mem[i]
		if claimed.Bits[i]&FactResident != 0 {
			w := int(cm.Window)
			if w < 0 || w >= len(claimed.Windows) {
				a.violate(i, "fact-window", "resident claim names window %d of %d", w, len(claimed.Windows))
				continue
			}
			win := claimed.Windows[w]
			end, ok := satAdd(cm.EA.Hi, uint64(cm.Size))
			if cm.Size != fm.Size || !ok || cm.EA.Lo < win.Lo || end > win.Hi {
				a.violate(i, "fact-window", "claimed interval [%#x,%#x]+%d does not fit window [%#x,%#x)",
					cm.EA.Lo, cm.EA.Hi, cm.Size, win.Lo, win.Hi)
				continue
			}
			if fm.EA.Lo < cm.EA.Lo || fm.EA.Hi > cm.EA.Hi {
				a.violate(i, "fact-claim", "claimed interval [%#x,%#x] does not contain the proven [%#x,%#x]",
					cm.EA.Lo, cm.EA.Hi, fm.EA.Lo, fm.EA.Hi)
				continue
			}
		}
		if claimed.Bits[i]&FactHostcall != 0 {
			ch, okc := claimed.Hostcalls[i]
			fh := fresh.Hostcalls[i]
			if !okc {
				a.violate(i, "fact-hostcall", "hostcall bit set with no call-site record")
				continue
			}
			if ch.Num != fh.Num || ch.BufEnd < fh.BufEnd || ch.BufEnd > cfg.MaxBytes {
				a.violate(i, "fact-hostcall", "claimed number %d / buffer end %d disagrees with the proof (%d / %d, max %d)",
					ch.Num, ch.BufEnd, fh.Num, fh.BufEnd, cfg.MaxBytes)
			}
		}
	}

	// Block facts: bounds must reproduce; side-exit freedom must be
	// subsumed by the fresh derivation.
	if len(claimed.Blocks) != len(fresh.Blocks) {
		a.violate(-1, "fact-block", "artifact has %d blocks, CFG derives %d", len(claimed.Blocks), len(fresh.Blocks))
	} else {
		for b := range claimed.Blocks {
			cb, fb := &claimed.Blocks[b], &fresh.Blocks[b]
			if cb.Start != fb.Start || cb.End != fb.End {
				a.violate(cb.Start, "fact-block", "block %d bounds do not reproduce", b)
				continue
			}
			if cb.NoSideExit && !fb.NoSideExit {
				a.violate(cb.Start, "fact-block", "block %d claimed side-exit-free but contains faulting ops", b)
			}
		}
	}
	if len(a.violations) > 0 {
		return a.reject()
	}
	return nil
}
