package tier

import (
	"hfi/internal/cpu"
	"hfi/internal/hfi"
	"hfi/internal/isa"
	"hfi/internal/kernel"
)

// DefaultPromoteAfter is the number of interpreted executions a block's
// leader must observe before the block is promoted to fused execution.
const DefaultPromoteAfter = 8

// outsideChunk is the interpreter segment length used while the PC is
// outside the lowered program (springboards, trampolines): long enough to
// amortize the segment call, short enough that control realigns to block
// leaders promptly after transferring into lowered code.
const outsideChunk = 32

// Engine executes a machine against one lowered program, promoting hot
// basic blocks to fused execution and delegating everything else — cold
// blocks, unfusable tails, code outside the program, and every bail — to
// the interpreter in block-aligned segments. It implements cpu.Engine and
// is cycle-exact with a monolithic interpreter run (see the package doc).
type Engine struct {
	ip  *cpu.Interp
	m   *cpu.Machine
	low *Lowered

	// PromoteAfter is the promotion threshold; counts reset on
	// Machine.Reset (the guest context-switch point).
	PromoteAfter uint32

	counts   []uint32
	promoted []bool

	// Per-generation gate over the lowering's fact claims, tagged like the
	// interpreter's page-decision cache: any HFI state write or mapping
	// change invalidates it wholesale.
	gateHfiGen uint64
	gateMapGen uint64
	gateOK     bool
	winOK      []bool
	blockOK    []bool

	resetSeq uint64

	// Counters (cumulative; TakeCounters returns harvest deltas).
	promotions   uint64
	tieredInstrs uint64
	interpInstrs uint64
	hPromotions  uint64
	hTiered      uint64
	hInterp      uint64
}

// NewEngine wires an engine over ip's machine. low may be nil (no facts,
// shape mismatch): the engine then delegates every run to the interpreter.
func NewEngine(ip *cpu.Interp, low *Lowered) *Engine {
	e := &Engine{ip: ip, m: ip.M, low: low, PromoteAfter: DefaultPromoteAfter}
	if low != nil {
		e.counts = make([]uint32, len(low.blocks))
		e.promoted = make([]bool, len(low.blocks))
		e.winOK = make([]bool, len(low.windows))
		e.blockOK = make([]bool, len(low.blocks))
		e.resetSeq = ip.M.ResetSeq()
	}
	return e
}

// runBlock status codes.
const (
	stDone = iota
	stTerminal
	stBail
)

// Run executes from the machine's current PC until a stop condition or
// until limit instructions retire (0 = no limit). Three configurations
// delegate wholesale to the interpreter: no lowering (the image carried no
// facts), NoFastPath (the run is the fully dynamic reference), or a cost
// model differing from the one the static charges were expanded from.
func (e *Engine) Run(limit uint64) cpu.RunResult {
	ip, m, low := e.ip, e.m, e.low
	if low == nil || ip.NoFastPath || ip.Cost != low.Cost {
		return ip.Run(limit)
	}
	if rs := m.ResetSeq(); rs != e.resetSeq {
		e.resetSeq = rs
		e.demote()
	}
	remaining := limit
	if limit == 0 {
		remaining = ^uint64(0)
	}
	for {
		if remaining == 0 {
			ip.SyncClock()
			return cpu.RunResult{Reason: cpu.StopLimit}
		}
		off := m.PC - low.base
		if off >= low.size || off%isa.InstrBytes != 0 {
			// Outside the lowered program (springboard, HostReturn checks,
			// misaligned PC): interpret in fixed chunks. The interpreter
			// handles stops and faults; StopLimit consumes exactly the
			// requested iterations.
			if res, done := e.seg(outsideChunk, &remaining); done {
				return res
			}
			continue
		}
		idx := int(off / isa.InstrBytes)
		bi := low.blockIdx[idx]
		b := &low.blocks[bi]
		if idx == b.Start && len(b.Ops) > 0 {
			if e.promoted[bi] {
				if !e.gateOK || e.gateHfiGen != m.HFI.Gen || e.gateMapGen != m.AS.Gen() {
					e.gateSync()
				}
				if e.blockOK[bi] && remaining >= uint64(b.Span) {
					used, res, st := e.runChain(b, remaining)
					e.tieredInstrs += used
					remaining -= used
					switch st {
					case stTerminal:
						return res
					case stDone:
						continue
					}
					// stBail: the PC now sits on the bailing instruction;
					// hand the rest of the block to the interpreter below.
					if remaining == 0 {
						ip.SyncClock()
						return cpu.RunResult{Reason: cpu.StopLimit}
					}
					idx = int((m.PC - low.base) / isa.InstrBytes)
					bi = low.blockIdx[idx]
					b = &low.blocks[bi]
				}
			} else {
				e.counts[bi]++
				if e.counts[bi] >= e.PromoteAfter {
					e.promoted[bi] = true
					e.promotions++
				}
			}
		}
		if res, done := e.seg(uint64(b.End-idx), &remaining); done {
			return res
		}
	}
}

// seg runs one interpreter segment of at most steps iterations (clamped to
// the remaining budget), returning (res, true) on any stop other than an
// in-budget StopLimit.
func (e *Engine) seg(steps uint64, remaining *uint64) (cpu.RunResult, bool) {
	if steps > *remaining {
		steps = *remaining
	}
	before := e.m.Instret
	res := e.ip.SegmentRun(steps)
	e.interpInstrs += e.m.Instret - before
	if res.Reason != cpu.StopLimit {
		return res, true
	}
	*remaining -= steps
	return cpu.RunResult{}, false
}

// runChain executes one promoted block's fused prefix, then chains: while
// the successor PC is itself the leader of a promoted, gate-valid block
// within budget, execution stays in the fused runner — the outer dispatch
// (index recomputation, generation checks, result marshalling) is paid once
// per chain instead of once per block. Chaining is sound because no fusable
// operation can change the HFI generation, the mapping generation, or the
// promotion state: the gate verdicts checked at chain entry hold for the
// chain's lifetime. It returns the instructions retired (fused blocks
// cannot take the non-retiring fetch/exec fault paths) and a status: stDone
// (chain ended at a non-chainable PC), stBail (a window compare failed
// before any side effect — PC is the unexecuted instruction), or stTerminal
// (an ExplicitEA fault went unhandled; res is final).
func (e *Engine) runChain(b *Block, budget uint64) (used uint64, res cpu.RunResult, st int) {
	ip, m, low := e.ip, e.m, e.low
	regs := &m.Regs
	hfiOn := m.HFI.Enabled
	// No fusable op can install or clear the hook, so one read covers the
	// chain; each memory op pays a nil-compare.
	hook := m.MemHook

chain:
	pcNext := b.NextPC
	ops := b.Ops
	for i := 0; i < len(ops); i++ {
		f := &ops[i]
		switch f.kind {
		case kMovImm:
			regs[f.rd] = f.imm
		case kMov:
			regs[f.rd] = regs[f.rs1]
		case kAddImm:
			v := regs[f.rs1] + f.imm
			if f.w32 {
				v = uint64(uint32(v))
			}
			regs[f.rd] = v
		case kAddReg:
			v := regs[f.rs1] + regs[f.rs2]
			if f.w32 {
				v = uint64(uint32(v))
			}
			regs[f.rd] = v
		case kAluImm:
			v := aluEval(f.op, regs[f.rs1], f.imm)
			if f.w32 {
				v = uint64(uint32(v))
			}
			regs[f.rd] = v
		case kAluReg:
			v := aluEval(f.op, regs[f.rs1], regs[f.rs2])
			if f.w32 {
				v = uint64(uint32(v))
			}
			regs[f.rd] = v

		case kLoad, kStore:
			base := regs[f.rs1]
			var idx uint64
			if !f.idxNone {
				idx = regs[f.rs2]
			}
			addr := isa.PlainEA(base, idx, f.scale, f.disp)
			// Hardening against a bad artifact: the concrete address is
			// compared against the proven window, and anything outside
			// bails with zero side effects so the interpreter runs the
			// full checks.
			if addr < f.winLo || addr >= f.winHi || uint64(f.size) > f.winHi-addr {
				n, bres, bst := e.bail(b, f)
				return used + n, bres, bst
			}
			if hfiOn {
				m.HFI.ChecksData++
			}
			m.FactElisions++
			if hook != nil {
				hook(low.base+uint64(f.src)*isa.InstrBytes, addr, f.size, f.kind == kStore)
			}
			if f.kind == kStore {
				m.Mem().Write(addr, f.size, regs[f.rs3])
				ip.ChargeMemAt(addr, true)
			} else {
				regs[f.rd] = cpu.SignExtend(m.Mem().Read(addr, f.size), f.size, f.signExt)
				ip.ChargeMemAt(addr, false)
			}

		case kHLoad, kHStore:
			write := f.kind == kHStore
			var idx uint64
			if !f.idxNone {
				idx = regs[f.rs2]
			}
			addr, flt := m.HFI.ExplicitEA(int(f.hreg), idx, f.scale, f.disp, f.size, write)
			if flt != nil {
				n, fres, fst := e.fusedFault(b, f, addr, flt)
				return used + n, fres, fst
			}
			// ExplicitEA bounds-checked the address into the region and the
			// gate re-validated the region's span against the page table,
			// so the MMU lookup is elided.
			m.FactElisions++
			if hook != nil {
				hook(low.base+uint64(f.src)*isa.InstrBytes, addr, f.size, write)
			}
			if write {
				m.Mem().Write(addr, f.size, regs[f.rs3])
				ip.ChargeMemAt(addr, true)
			} else {
				regs[f.rd] = cpu.SignExtend(m.Mem().Read(addr, f.size), f.size, f.signExt)
				ip.ChargeMemAt(addr, false)
			}

		case kBr:
			cmp := f.imm
			if !f.brImm {
				cmp = regs[f.rs2]
			}
			if f.cond.Eval(regs[f.rs1], cmp) {
				pcNext = f.target
			}
		case kJmp:
			pcNext = f.target
		case kStepBr:
			v := regs[f.rs1] + f.imm
			if f.w32 {
				v = uint64(uint32(v))
			}
			regs[f.rd] = v
			cmp := uint64(f.disp)
			if !f.brImm {
				cmp = regs[f.rs3]
			}
			if f.cond.Eval(regs[f.rs2], cmp) {
				pcNext = f.target
			}
		}
	}
	m.Instret += uint64(b.Span)
	if hfiOn {
		// The interpreter's per-fetch exec check counts once per
		// instruction; the gate hoisted the check itself to block entry
		// but the observable counter stays identical.
		m.HFI.ChecksCode += uint64(b.Span)
	}
	ip.ChargeMilli(b.StaticCost)
	m.PC = pcNext
	used += uint64(b.Span)
	budget -= uint64(b.Span)

	// Chain: follow the control transfer directly into the next promoted
	// block. (A promoted block always has fused ops, so no len check.)
	if off := pcNext - low.base; off < low.size && off%isa.InstrBytes == 0 {
		idx := int(off / isa.InstrBytes)
		bi := low.blockIdx[idx]
		nb := &low.blocks[bi]
		if idx == nb.Start && e.promoted[bi] && e.blockOK[bi] && budget >= uint64(nb.Span) {
			b = nb
			goto chain
		}
	}
	return used, cpu.RunResult{}, stDone
}

// bail retires exactly the fused ops (and folded nop/fence) before f,
// bills exactly their static charge (memory charges already landed in
// program order), and parks the PC on f's source instruction for the
// interpreter. The bailing instruction itself has had no effect: no
// counter, no charge, no access.
func (e *Engine) bail(b *Block, f *fused) (uint64, cpu.RunResult, int) {
	n := uint64(f.src - int32(b.Start))
	m := e.m
	m.Instret += n
	if m.HFI.Enabled {
		m.HFI.ChecksCode += n
	}
	e.ip.ChargeMilli(f.costBefore)
	m.PC = e.low.base + uint64(f.src)*isa.InstrBytes
	return n, cpu.RunResult{}, stBail
}

// fusedFault routes an ExplicitEA fault raised inside a fused block
// through the interpreter's fault path. ExplicitEA has already mutated the
// HFI state (fault record, sandbox disable) exactly as it would under the
// interpreter, and the faulting instruction retires with no charge and no
// access — the dispatch loop's behavior to the letter.
func (e *Engine) fusedFault(b *Block, f *fused, addr uint64, flt *hfi.Fault) (uint64, cpu.RunResult, int) {
	n := uint64(f.src-int32(b.Start)) + 1 // the faulting instruction retires too
	m := e.m
	m.Instret += n
	if m.HFI.Enabled {
		m.HFI.ChecksCode += n
	}
	e.ip.ChargeMilli(f.costBefore)
	pc := e.low.base + uint64(f.src)*isa.InstrBytes
	res, ok := e.ip.RaiseAt(pc, addr, flt, false)
	if !ok {
		return n, res, stTerminal
	}
	return n, cpu.RunResult{}, stDone // resumed; RaiseAt set the PC
}

// gateSync re-validates every fact claim the lowering relies on against
// the live machine, then folds the results into a per-block verdict,
// computed once per HFI/mapping generation instead of per access.
func (e *Engine) gateSync() {
	m, low := e.m, e.low
	e.gateHfiGen, e.gateMapGen, e.gateOK = m.HFI.Gen, m.AS.Gen(), true
	for i, w := range low.windows {
		ok := w.Hi > w.Lo && m.AS.CheckRange(w.Lo, w.Hi-w.Lo, kernel.ProtRead|kernel.ProtWrite)
		if ok && m.HFI.Enabled {
			// Implicit HFI regions are contiguous intervals, so one
			// range-level query covers the window in O(regions). Uniformity
			// over the full range requires ONE region to contain the window,
			// matching CheckData's straddle-faults semantics for every
			// access inside it (per-page uniformity would not: two adjacent
			// regions could each uniformly cover half the window).
			r, wr, uniform := m.HFI.DataPageDecision(w.Lo, w.Hi-w.Lo)
			if !uniform || !r || !wr {
				ok = false
			}
		}
		e.winOK[i] = ok
	}
	var regOK [hfi.NumExplicitRegions]bool
	for h := 0; h < hfi.NumExplicitRegions; h++ {
		r := &m.HFI.Bank.Expl[h]
		regOK[h] = r.Valid && r.Bound > 0 && m.AS.CheckRange(r.Base, r.Bound, kernel.ProtRead|kernel.ProtWrite)
	}
	// One whole-program exec decision stands in for the per-fetch check
	// inside fused blocks; non-uniform or denied means no fusing at all
	// (the interpreter raises the architectural fault at the right PC).
	execOK := true
	if m.HFI.Enabled {
		ok, uniform := m.HFI.ExecPageDecision(low.base, low.size)
		execOK = ok && uniform
	}
	for bi := range low.blocks {
		b := &low.blocks[bi]
		ok := execOK
		if ok {
			for _, w := range b.Wins {
				if !e.winOK[w] {
					ok = false
					break
				}
			}
		}
		if ok && b.HRegs != 0 {
			for h := 0; h < hfi.NumExplicitRegions; h++ {
				if b.HRegs&(1<<h) != 0 && !regOK[h] {
					ok = false
					break
				}
			}
		}
		e.blockOK[bi] = ok
	}
}

// demote clears all promotion state; called when the machine was Reset
// under the engine (guest context switch).
func (e *Engine) demote() {
	for i := range e.counts {
		e.counts[i] = 0
	}
	for i := range e.promoted {
		e.promoted[i] = false
	}
	e.gateOK = false
}

// aluEval evaluates the generic fused ALU operations (OpAdd has dedicated
// kinds). Every op here is total — no traps.
func aluEval(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.OpSub:
		return a - b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpShl:
		return a << (b & 63)
	case isa.OpShr:
		return a >> (b & 63)
	case isa.OpSar:
		return uint64(int64(a) >> (b & 63))
	case isa.OpMul:
		return a * b
	case isa.OpNot:
		return ^a
	case isa.OpNeg:
		return -a
	}
	return 0
}

// Promoted returns the number of currently promoted blocks.
func (e *Engine) Promoted() int {
	n := 0
	for _, p := range e.promoted {
		if p {
			n++
		}
	}
	return n
}

// Counters returns the cumulative promotion count and the
// tiered-vs-interpreted retirement split.
func (e *Engine) Counters() (promotions, tieredInstrs, interpInstrs uint64) {
	return e.promotions, e.tieredInstrs, e.interpInstrs
}

// TakeCounters returns the counter deltas since the previous call — the
// harvest interface the FaaS host drains after each request.
func (e *Engine) TakeCounters() (promotions, tieredInstrs, interpInstrs uint64) {
	promotions = e.promotions - e.hPromotions
	tieredInstrs = e.tieredInstrs - e.hTiered
	interpInstrs = e.interpInstrs - e.hInterp
	e.hPromotions, e.hTiered, e.hInterp = e.promotions, e.tieredInstrs, e.interpInstrs
	return
}

// Lowering returns the shared lowering artifact (nil when facts were
// absent).
func (e *Engine) Lowering() *Lowered { return e.low }

// HasLowering reports whether the engine carries a lowering at all — the
// precondition for the LoweringRot chaos seam (there is no gate cache to
// rot otherwise).
func (e *Engine) HasLowering() bool { return e.low != nil }

// rotGenSkew mirrors cpu's stale-generation distance: forged gate tags sit
// far enough ahead that they can never match a live generation (the rotted
// verdicts are never consumed — any fused entry re-syncs the gate first),
// while staying detectable forever.
const rotGenSkew = 1 << 32

// PlantGateRot is the chaos seam for FaultLoweringRot: it corrupts the
// engine's cached gate — the hoisted per-block safety verdicts the fused
// runner trusts between generation changes. The pick'th cached block
// verdict is flipped; live rot additionally forges the gate's generation
// tags ahead of both sources, claiming verdicts for generations that have
// not happened (AuditGate must catch the impossible tags). Dead rot
// demotes the gate instead (gateOK=false), so the flipped verdict is
// recomputed by gateSync before any fused block could trust it — rot in
// dead state, undetectable and benign by construction. The shared
// immutable Lowered artifact is never touched: rot is per-engine state,
// with no cross-instance blast radius.
func (e *Engine) PlantGateRot(live bool, pick uint64) {
	if e.low == nil || len(e.blockOK) == 0 {
		return
	}
	bi := int(pick % uint64(len(e.blockOK)))
	e.blockOK[bi] = !e.blockOK[bi]
	if live {
		e.gateOK = true
		e.gateHfiGen = e.m.HFI.Gen + rotGenSkew
		e.gateMapGen = e.m.AS.Gen() + rotGenSkew
	} else {
		e.gateOK = false
	}
}

// AuditGate is the generation cross-audit over the tier gate: a live gate
// whose tags are not auditable against their sources (tag ahead of the
// current generation) is impossible state — the residue of rotted
// verdicts claiming future freshness. Dead gates (gateOK=false) hold no
// trusted verdicts and pass vacuously; gateSync recomputes them before
// the fused runner consumes anything. Engines without a lowering have no
// gate and pass vacuously too.
func (e *Engine) AuditGate() bool {
	if e.low == nil || !e.gateOK {
		return true
	}
	return e.m.HFI.AuditTag(e.gateHfiGen) && e.m.AS.AuditTag(e.gateMapGen)
}

// Invalidate is the recovery path for detected gate rot: demote every
// block (promotion is re-earned from a clean slate) and clear all cached
// verdicts, forcing the next fused entry through a full gateSync
// re-derivation — the "demote + re-lower the affected blocks" contract.
// The shared Lowered artifact is immutable and needs no rebuilding; what
// is re-derived is every per-engine conclusion drawn from it.
func (e *Engine) Invalidate() {
	e.demote()
	for i := range e.winOK {
		e.winOK[i] = false
	}
	for i := range e.blockOK {
		e.blockOK[i] = false
	}
	e.gateHfiGen, e.gateMapGen = 0, 0
}
