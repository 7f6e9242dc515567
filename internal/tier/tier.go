// Package tier implements the tiered execution engine: a second engine
// that lowers each verified program once into basic blocks of fused
// superinstructions and executes hot blocks as straight-line Go with no
// per-instruction fetch-decode-dispatch.
//
// The lowering is the only run-time consumer of the verifier's proof
// artifact (verifier.Facts), and spends it once per image instead of per
// retirement: plain loads and stores fuse only when the verifier proved
// them resident in a window (the live-machine re-validation is hoisted to
// a per-generation gate, leaving one bounds compare per access), hld/hst
// fuse when the region operand is proven well-formed (the HFI bounds
// check, ExplicitEA, still runs — it is the architectural fault source —
// while the MMU lookup behind it is elided), and the verifier's NoSideExit
// block flag is consumed as a cross-check on fully-fused compute blocks.
// Blocks are the CFG's basic blocks, so every branch target in verified
// code is a block leader and the engine regains control at block
// granularity.
//
// Cycle-exactness contract (asserted by the sandbox differential corpus
// gate): a program runs to the same registers, memory, stop reason,
// retired-instruction count, simulated cycle count, kernel-clock ns and
// dynamic-check counters whether executed by the interpreter or by this
// engine. Fused blocks bill the same cost-table entries the dispatch loop
// would (Lowered captures the CostModel; hfilint forbids this package from
// spelling a cost by hand) and charge memory accesses through the
// interpreter's own stateful hierarchy accounting, in program order. Any
// fused operation that cannot complete — an address outside its proven
// window, an ExplicitEA fault — retires exactly the instructions before
// it, bills exactly their cost, and hands the interpreter the faulting PC.
package tier

import (
	"hfi/internal/cpu"
	"hfi/internal/hfi"
	"hfi/internal/isa"
	"hfi/internal/verifier"
)

// kind discriminates fused superinstruction operations.
type kind uint8

const (
	kMovImm kind = iota
	kMov
	kAddImm // the workhorse: Rd <- Rs1 + imm
	kAddReg
	kAluImm // generic two-operand ALU with immediate (op in fused.op)
	kAluReg
	kLoad   // plain load, window-proven
	kStore  // plain store, window-proven
	kHLoad  // explicit-region load, ExplicitEA inline, MMU elided
	kHStore // explicit-region store
	kBr     // conditional terminator
	kJmp    // unconditional terminator
	kStepBr // pair superinstruction: add-immediate + conditional branch (loop latch)
)

// fused is one pre-decoded superinstruction operation: operands resolved
// (RegNone folded away), fact window bounds inlined, cost prefix-summed.
type fused struct {
	kind    kind
	op      isa.Op // source opcode for kAluImm/kAluReg
	rd      uint8
	rs1     uint8
	rs2     uint8 // kBr/kStepBr: the branch's comparison register
	rs3     uint8 // store data register; kStepBr: branch reg operand
	size    uint8
	scale   uint8
	hreg    uint8
	cond    isa.Cond
	signExt bool
	w32     bool
	brImm   bool // branch comparison operand is an immediate
	idxNone bool // memory index operand was RegNone (contributes zero)

	imm  uint64 // ALU/branch immediate (pre-converted), kMovImm value
	disp int64  // memory displacement; kStepBr: branch immediate

	winLo, winHi uint64 // kLoad/kStore: proven window bounds (static claim)
	win          int16  // window index, for the per-generation gate

	target uint64 // branch target
	src    int32  // source instruction index in the program
	// costBefore is the summed static charge (millicycles, from the cost
	// table) of every fused op and folded nop/fence before this one in the
	// block. Memory operations have no static charge — the interpreter
	// bills them solely through ChargeMemAt, and so does the fused runner.
	costBefore uint64
}

// Block is one lowered basic block: a fused prefix (possibly covering the
// whole block, control transfer included) plus bookkeeping for promotion
// and exact fallback.
type Block struct {
	Start, End int    // source instruction index range [Start, End)
	StartPC    uint64 // absolute address of Start

	Ops  []fused
	Span int // source instructions covered by Ops, folded nop/fence included

	// StaticCost is the total static charge of the fused prefix; equal to
	// the costBefore a one-past-the-end op would carry.
	StaticCost uint64

	// Full: Ops cover the entire block. NextPC is then the fall-through
	// successor (terminator ops override it); otherwise NextPC is the
	// first unfused instruction, where the interpreter takes over.
	Full   bool
	NextPC uint64

	// NoSideExit mirrors the verifier's block fact (diagnostics and the
	// full-fusion cross-check in Lower).
	NoSideExit bool

	// Gate inputs: fact windows and explicit regions the fused ops rely
	// on. The engine re-validates them per HFI/mapping generation and
	// refuses fused execution while any fails.
	Wins  []int16
	HRegs uint8
}

// Lowered is the immutable per-image lowering artifact, shared across every
// worker instantiating the same module (sandbox.CodeCache caches it next to
// the compiled image). All mutable execution state lives in Engine.
type Lowered struct {
	Prog *isa.Program
	// Cost is the model the static charges were expanded from; an engine
	// whose interpreter runs a different model must not use this lowering.
	Cost cpu.CostModel

	base, size uint64
	blocks     []Block
	blockIdx   []int32 // source instruction index -> blocks index
	windows    []verifier.Window
}

// fusableALU classifies operations the fused runner implements directly;
// every one is side-exit-free (cannot fault, trap, halt, or leave the
// block), matching the verifier's sideExitFree set minus control flow.
func fusableALU(op isa.Op) bool {
	switch op {
	case isa.OpMovImm, isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpNot, isa.OpNeg:
		return true
	}
	return false
}

// Lower decodes a verified program plus its proof artifact into the shared
// lowering. Returns nil when the artifact is missing or does not match the
// program shape — the engine then simply never fuses.
func Lower(p *isa.Program, f *verifier.Facts, cost cpu.CostModel) *Lowered {
	if p == nil || f == nil || len(f.Bits) != len(p.Instrs) || len(f.Mem) != len(p.Instrs) {
		return nil
	}
	tab := cost.Table()
	g := verifier.BuildCFG(p)
	noSide := make(map[int]bool, len(f.Blocks))
	for _, bf := range f.Blocks {
		noSide[bf.Start] = bf.NoSideExit
	}
	low := &Lowered{
		Prog:     p,
		Cost:     cost,
		base:     p.Base,
		size:     uint64(len(p.Instrs)) * isa.InstrBytes,
		blockIdx: make([]int32, len(p.Instrs)),
		windows:  f.Windows,
	}
	low.blocks = make([]Block, 0, len(g.Blocks))
	for _, bb := range g.Blocks {
		b := lowerBlock(p, f, tab, bb, noSide[bb.Start])
		for i := bb.Start; i < bb.End; i++ {
			low.blockIdx[i] = int32(len(low.blocks))
		}
		low.blocks = append(low.blocks, b)
	}
	return low
}

// lowerBlock fuses the longest prefix of one basic block.
func lowerBlock(p *isa.Program, f *verifier.Facts, tab [isa.OpCount]uint64, bb verifier.BasicBlock, noSideExit bool) Block {
	b := Block{
		Start:      bb.Start,
		End:        bb.End,
		StartPC:    p.Base + uint64(bb.Start)*isa.InstrBytes,
		NoSideExit: noSideExit,
	}
	cost := uint64(0) // running static-charge prefix
	sawMem := false
	addWin := func(w int16) {
		for _, have := range b.Wins {
			if have == w {
				return
			}
		}
		b.Wins = append(b.Wins, w)
	}
	i := bb.Start
scan:
	for ; i < bb.End; i++ {
		in := &p.Instrs[i]
		fo := fused{src: int32(i), costBefore: cost}
		switch {
		case in.Op == isa.OpNop || in.Op == isa.OpFence:
			// No architectural effect; fold into the prefix sums.
			cost += tab[in.Op]
			continue

		case in.Op == isa.OpMovImm:
			if in.Rd >= isa.NumRegs {
				break scan
			}
			fo.kind, fo.rd, fo.imm = kMovImm, uint8(in.Rd), uint64(in.Imm)

		case in.Op == isa.OpMov:
			if in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs {
				break scan
			}
			fo.kind, fo.rd, fo.rs1 = kMov, uint8(in.Rd), uint8(in.Rs1)

		case fusableALU(in.Op):
			if in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs {
				break scan // the dispatch loop indexes these unconditionally
			}
			fo.rd, fo.rs1, fo.w32, fo.op = uint8(in.Rd), uint8(in.Rs1), in.W32, in.Op
			useImm := in.UseImm || in.Rs2 == isa.RegNone // RegNone reads as zero
			if useImm {
				if in.UseImm {
					fo.imm = uint64(in.Imm)
				}
				if in.Op == isa.OpAdd {
					fo.kind = kAddImm
				} else {
					fo.kind = kAluImm
				}
			} else {
				if in.Rs2 >= isa.NumRegs {
					break scan
				}
				fo.rs2 = uint8(in.Rs2)
				if in.Op == isa.OpAdd {
					fo.kind = kAddReg
				} else {
					fo.kind = kAluReg
				}
			}

		case in.Op == isa.OpLoad || in.Op == isa.OpStore:
			// Fusable only under a verifier-proven resident window; the
			// runner's bounds compare against the window replaces the
			// dynamic page-decision machinery, and anything outside bails
			// to the interpreter untouched.
			w := f.Mem[i].Window
			if f.Bits[i]&verifier.FactResident == 0 || w < 0 || int(w) >= len(f.Windows) {
				break scan
			}
			if in.Rs1 >= isa.NumRegs { // no base register: leave interpreted
				break scan
			}
			fo.rs1, fo.scale, fo.disp, fo.size = uint8(in.Rs1), in.Scale, in.Disp, in.Size
			if in.Rs2 == isa.RegNone {
				fo.idxNone = true
			} else if in.Rs2 >= isa.NumRegs {
				break scan
			} else {
				fo.rs2 = uint8(in.Rs2)
			}
			fo.win, fo.winLo, fo.winHi = w, f.Windows[w].Lo, f.Windows[w].Hi
			if in.Op == isa.OpStore {
				if in.Rs3 >= isa.NumRegs {
					break scan
				}
				fo.kind, fo.rs3 = kStore, uint8(in.Rs3)
			} else {
				if in.Rd >= isa.NumRegs {
					break scan
				}
				fo.kind, fo.rd, fo.signExt = kLoad, uint8(in.Rd), in.SignExt
			}
			addWin(w)
			sawMem = true

		case in.Op == isa.OpHLoad || in.Op == isa.OpHStore:
			// ExplicitEA runs inline (it is the bounds check and the fault
			// source); the proof covers the MMU lookup behind it.
			if f.Bits[i]&verifier.FactHfiHeap == 0 || int(in.HReg) >= hfi.NumExplicitRegions {
				break scan
			}
			fo.hreg, fo.scale, fo.disp, fo.size = uint8(in.HReg), in.Scale, in.Disp, in.Size
			if in.Rs2 == isa.RegNone {
				fo.idxNone = true
			} else if in.Rs2 >= isa.NumRegs {
				break scan
			} else {
				fo.rs2 = uint8(in.Rs2)
			}
			if in.Op == isa.OpHStore {
				if in.Rs3 >= isa.NumRegs {
					break scan
				}
				fo.kind, fo.rs3 = kHStore, uint8(in.Rs3)
			} else {
				if in.Rd >= isa.NumRegs {
					break scan
				}
				fo.kind, fo.rd, fo.signExt = kHLoad, uint8(in.Rd), in.SignExt
			}
			b.HRegs |= 1 << fo.hreg
			sawMem = true

		case in.Op == isa.OpBr:
			if in.Rs1 >= isa.NumRegs {
				break scan
			}
			fo.kind, fo.rs1, fo.cond, fo.target = kBr, uint8(in.Rs1), in.Cond, in.Target
			if in.UseImm || in.Rs2 == isa.RegNone {
				fo.brImm = true
				if in.UseImm {
					fo.imm = uint64(in.Imm)
				}
			} else if in.Rs2 >= isa.NumRegs {
				break scan
			} else {
				fo.rs2 = uint8(in.Rs2)
			}

		case in.Op == isa.OpJmp:
			fo.kind, fo.target = kJmp, in.Target

		default:
			// div/rem (can trap), calls, returns, indirect jumps, syscall,
			// hostcall, halt, rdtsc, clflush, HFI config, xsave/xrstor:
			// the interpreter owns them.
			break scan
		}
		switch fo.kind {
		case kLoad, kStore, kHLoad, kHStore:
			// The dispatch loop bills memory ops solely through chargeMem;
			// the fused runner does the same via ChargeMemAt, so they carry
			// no static charge.
		default:
			cost += tab[in.Op]
		}
		b.Ops = append(b.Ops, fo)
	}
	b.Span = i - bb.Start
	b.StaticCost = cost
	b.Full = i == bb.End
	if b.Full {
		b.NextPC = p.Base + uint64(bb.End)*isa.InstrBytes // fall-through
	} else {
		b.NextPC = p.Base + uint64(i)*isa.InstrBytes // first unfused instruction
	}
	// Cross-check against the verifier's independent side-exit analysis: a
	// fully fused pure-compute block must carry NoSideExit (memory ops are
	// never side-exit-free — their bail path is the point). Disagreement
	// means the kind table above drifted from the verifier; trust the
	// verifier and keep the block interpreted.
	if b.Full && !sawMem && !noSideExit {
		b.Ops, b.Span, b.StaticCost, b.Full = nil, 0, 0, false
		b.NextPC = b.StartPC
		b.Wins, b.HRegs = nil, 0
	}
	fuseLatch(&b)
	return b
}

// fuseLatch merges a trailing add-immediate + conditional-branch pair — the
// canonical loop latch — into one kStepBr superinstruction. Neither half
// can bail, so the merge never splits mid-pair; the combined op keeps the
// add's costBefore and bills both table entries.
func fuseLatch(b *Block) {
	n := len(b.Ops)
	if n < 2 {
		return
	}
	add, br := &b.Ops[n-2], &b.Ops[n-1]
	if add.kind != kAddImm || br.kind != kBr {
		return
	}
	merged := fused{
		kind:       kStepBr,
		rd:         add.rd,
		rs1:        add.rs1,
		w32:        add.w32,
		imm:        add.imm,
		rs2:        br.rs1, // branch comparison register
		rs3:        br.rs2, // branch register operand (when !brImm)
		brImm:      br.brImm,
		disp:       int64(br.imm), // branch immediate operand
		cond:       br.cond,
		target:     br.target,
		src:        add.src,
		costBefore: add.costBefore,
	}
	b.Ops = append(b.Ops[:n-2], merged)
}

// Summary reports lowering statistics: total blocks, blocks with a fused
// prefix, fully fused blocks, and fused source instructions covered.
func (l *Lowered) Summary() (blocks, fusable, full, fusedInstrs int) {
	blocks = len(l.blocks)
	for i := range l.blocks {
		b := &l.blocks[i]
		if len(b.Ops) > 0 {
			fusable++
			fusedInstrs += b.Span
		}
		if b.Full {
			full++
		}
	}
	return
}
