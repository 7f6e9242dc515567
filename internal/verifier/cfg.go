package verifier

import (
	"sort"

	"hfi/internal/isa"
)

// CFG is a whole-program control-flow graph over basic blocks. Indirect
// branches (jmpi/calli) get over-approximated successor sets: every
// address-taken instruction address (any movi immediate that decodes to
// an in-range, aligned instruction address, plus every symbol). The
// abstract interpreter additionally requires every indirect target to be
// a proven-exact constant INSIDE this set, so the CFG is a true
// over-approximation of concrete control flow for every admitted
// program — the soundness foundation of the block-level facts (a
// resolved target outside the set would let execution enter a block
// mid-way with no CFG edge witnessing it).
type CFG struct {
	P *isa.Program
	// Blocks are ordered by start index; block i covers instruction
	// indices [Blocks[i].Start, Blocks[i].End).
	Blocks []BasicBlock
	// blockOf maps a leader instruction index to its position in Blocks.
	blockOf map[int]int
}

// BasicBlock is a maximal single-entry straight-line region.
type BasicBlock struct {
	Start, End int
	// Succs holds successor block indices (into CFG.Blocks).
	Succs []int
	// Indirect marks a block ending in jmpi/calli whose successor set is
	// the over-approximated address-taken set.
	Indirect bool
}

// endsBlock reports whether the instruction terminates a basic block.
func endsBlock(op isa.Op) bool {
	switch op {
	case isa.OpBr, isa.OpJmp, isa.OpJmpInd, isa.OpCall, isa.OpCallInd, isa.OpRet, isa.OpHalt:
		return true
	}
	return false
}

// leaders computes the set of basic-block leader indices.
func leaders(p *isa.Program) []bool {
	lead := make([]bool, len(p.Instrs))
	if len(lead) == 0 {
		return lead
	}
	lead[0] = true
	mark := func(addr uint64) {
		if addr >= p.Base && addr < p.End() && (addr-p.Base)%isa.InstrBytes == 0 {
			lead[(addr-p.Base)/isa.InstrBytes] = true
		}
	}
	for _, a := range p.Symbols {
		mark(a)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case isa.OpBr, isa.OpJmp, isa.OpCall:
			mark(in.Target)
		}
		if endsBlock(in.Op) && i+1 < len(p.Instrs) {
			lead[i+1] = true
		}
	}
	// Indirect branches may land on any address-taken target.
	for _, t := range IndirectTargets(p) {
		lead[t] = true
	}
	return lead
}

// IndirectTargets over-approximates where jmpi/calli can land: every
// symbol plus every movi immediate that is a valid instruction address.
// Returned as sorted, deduplicated instruction indices.
func IndirectTargets(p *isa.Program) []int {
	set := map[int]bool{}
	add := func(addr uint64) {
		if addr >= p.Base && addr < p.End() && (addr-p.Base)%isa.InstrBytes == 0 {
			set[int((addr-p.Base)/isa.InstrBytes)] = true
		}
	}
	for _, a := range p.Symbols {
		add(a)
	}
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.OpMovImm {
			add(uint64(p.Instrs[i].Imm))
		}
	}
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// BuildCFG partitions p into basic blocks and links successor edges. The
// program must already be structurally valid (Program.Validate).
func BuildCFG(p *isa.Program) *CFG {
	lead := leaders(p)
	g := &CFG{P: p, blockOf: map[int]int{}}
	for i, isLead := range lead {
		if !isLead {
			continue
		}
		end := i + 1
		for end < len(p.Instrs) && !lead[end] && !endsBlock(p.Instrs[end-1].Op) {
			end++
		}
		g.blockOf[i] = len(g.Blocks)
		g.Blocks = append(g.Blocks, BasicBlock{Start: i, End: end})
	}
	indirect := IndirectTargets(p)
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := &p.Instrs[b.End-1]
		addSucc := func(idx int) {
			if sb, ok := g.blockOf[idx]; ok {
				b.Succs = append(b.Succs, sb)
			}
		}
		switch last.Op {
		case isa.OpBr:
			addSucc(int((last.Target - p.Base) / isa.InstrBytes))
			if b.End < len(p.Instrs) {
				addSucc(b.End)
			}
		case isa.OpJmp:
			addSucc(int((last.Target - p.Base) / isa.InstrBytes))
		case isa.OpCall:
			addSucc(int((last.Target - p.Base) / isa.InstrBytes))
			if b.End < len(p.Instrs) {
				addSucc(b.End) // return continuation
			}
		case isa.OpJmpInd:
			b.Indirect = true
			for _, t := range indirect {
				addSucc(t)
			}
		case isa.OpCallInd:
			b.Indirect = true
			for _, t := range indirect {
				addSucc(t)
			}
			if b.End < len(p.Instrs) {
				addSucc(b.End)
			}
		case isa.OpRet, isa.OpHalt:
			// No static successors.
		default:
			if b.End < len(p.Instrs) {
				addSucc(b.End)
			}
		}
	}
	return g
}

// BlockAt returns the index into Blocks of the block starting at the
// given instruction index, or -1.
func (g *CFG) BlockAt(instrIndex int) int {
	if b, ok := g.blockOf[instrIndex]; ok {
		return b
	}
	return -1
}
