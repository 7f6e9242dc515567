package cpu

import (
	"hfi/internal/hfi"
	"hfi/internal/isa"
	"hfi/internal/kernel"
)

// CostModel is the per-instruction cycle cost model used by the functional
// interpreter — the analogue of the paper's compiler-based emulation, which
// approximates HFI costs with available instructions (appendix A.2). Costs
// are in millicycles (1/1000 cycle) so that superscalar throughputs below
// one cycle per instruction are expressible. The defaults are calibrated
// against the timing core on the Sightglass suite (Fig 2 reproduces the
// calibration experiment).
type CostModel struct {
	ALU    uint64 // simple integer op
	Mul    uint64
	Div    uint64
	Branch uint64 // average cost including prediction
	Load   uint64 // base load cost (L1-hit throughput)
	Store  uint64
	// MissScale is the percentage of additional memory latency (beyond
	// the L1 hit) charged to the run: the out-of-order core overlaps
	// most of a miss, the interpreter approximates that overlap.
	MissScale uint64

	Serialize uint64 // full pipeline drain (fence, serialized enter/exit)
	HfiBase   uint64 // non-memory part of an HFI config instruction
	HfiMove   uint64 // per 8-byte metadata move memory<->HFI registers
	Syscall   uint64 // core-side cost of a syscall instruction
	Redirect  uint64 // decode-stage syscall redirect (1 cycle, §4.4)
	Hostcall  uint64 // core-side cost of a hostcall gate transition
}

// DefaultCostModel returns the calibrated emulation cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		ALU:       400,
		Mul:       1_100,
		Div:       12_000,
		Branch:    900,
		Load:      1_100,
		Store:     800,
		MissScale: 35,
		Serialize: uint64(hfi.SerializeCycles) * 1000,
		HfiBase:   2_000,
		HfiMove:   1_500,
		Syscall:   60_000,
		Redirect:  1_000,
		// An in-process domain transition: no mode switch, no page-table
		// swap — the "near-zero-cost transition" argument. The host-side
		// work (marshalling, resource access) is charged separately on the
		// kernel clock by the dispatcher.
		Hostcall: 18_000,
	}
}

// Interp is the functional execution engine. It shares the Machine's
// architectural state and accumulates cost in millicycles.
type Interp struct {
	M    *Machine
	Cost CostModel

	// NoFastPath disables the dispatch fast paths — the machine's fetch
	// code cache and the data-translation cache — forcing every
	// fetch through the binary search and every access through the full
	// HFI + MMU checks. Architectural results are identical either way
	// (the differential tests assert this); the flag exists so they can.
	NoFastPath bool

	// segment marks a SegmentRun in progress: the run is one slice of a
	// larger logical run driven by the tiered engine, so the StopLimit
	// return does NOT fold cycles into the kernel clock —
	// Clock.AdvanceCycles truncates per call, so extra fold points at
	// segment seams would drift the ns timeline away from a monolithic
	// run. Deferring keeps the AdvanceCycles call sequence — and therefore
	// the observable clock — bit-identical between the engines.
	segment bool

	milliCycles uint64

	// costTab holds the per-opcode dispatch charge precomputed from Cost,
	// so the hot loop charges a single table entry instead of selecting
	// among cost-model fields per opcode. Rebuilt at Run entry whenever
	// Cost differs from costSrc.
	costTab   [isa.OpCount]uint64
	costSrc   CostModel
	costTabOK bool
}

// NewInterp returns an interpreter over m with the default cost model.
func NewInterp(m *Machine) *Interp {
	return &Interp{M: m, Cost: DefaultCostModel()}
}

// Table expands the model into the per-opcode dispatch charge. Opcodes
// whose charge depends on runtime state (memory ops, syscalls, HFI config)
// keep their composite accounting in the dispatch loop; their entries hold
// the fixed part. The tiered engine's lowering bills fused superinstructions
// from this same table (hfilint forbids internal/tier from spelling a cost
// by hand), so a model change cannot drift the two engines apart.
func (c CostModel) Table() [isa.OpCount]uint64 {
	var tab [isa.OpCount]uint64
	for op := range tab {
		tab[op] = c.ALU
	}
	tab[isa.OpMul] = c.Mul
	tab[isa.OpDiv] = c.Div
	tab[isa.OpRem] = c.Div
	tab[isa.OpBr] = c.Branch
	tab[isa.OpJmp] = c.Branch
	tab[isa.OpJmpInd] = c.Branch
	tab[isa.OpCall] = c.Branch + c.Store
	tab[isa.OpCallInd] = c.Branch + c.Store
	tab[isa.OpRet] = c.Branch + c.Load
	tab[isa.OpFence] = c.Serialize
	tab[isa.OpSyscall] = c.Syscall
	tab[isa.OpHostcall] = c.Hostcall
	tab[isa.OpXsave] = c.Serialize
	tab[isa.OpXrstor] = c.Serialize
	return tab
}

// buildCostTab precomputes the dispatch charge table from the current cost
// model.
func (ip *Interp) buildCostTab() {
	ip.costTab = ip.Cost.Table()
	ip.costSrc = ip.Cost
	ip.costTabOK = true
}

func (ip *Interp) charge(mc uint64) { ip.milliCycles += mc }

// chargeMem charges a memory access: base cost plus the scaled miss
// penalty from the hierarchy.
func (ip *Interp) chargeMem(addr uint64, store bool) {
	base := ip.Cost.Load
	if store {
		base = ip.Cost.Store
	}
	var lat int
	if store {
		lat = ip.M.Hier.StoreLatency(addr)
	} else {
		lat = ip.M.Hier.LoadLatency(addr)
	}
	extra := 0
	if l1 := ip.M.Hier.Lat.L1; lat > l1 {
		extra = (lat - l1) * int(ip.Cost.MissScale) * 10 // % of a cycle -> millicycles
	}
	ip.charge(base + uint64(extra))
}

// Cycles returns whole cycles consumed since construction or the last
// ResetCost.
func (ip *Interp) Cycles() uint64 { return ip.milliCycles / 1000 }

// ResetCost zeroes the accumulated cost.
func (ip *Interp) ResetCost() { ip.milliCycles = 0 }

// syncClock folds accumulated cycle time into the kernel clock, so kernel
// cost (ns) and core cost (cycles) share one timeline.
func (ip *Interp) syncClock() {
	c := ip.Cycles()
	ip.milliCycles -= c * 1000
	ip.M.Cycles += c
	ip.M.Kern.Clock.AdvanceCycles(c, kernel.CoreGHz)
}

// Run executes from the machine's current PC until a stop condition or
// until maxInstrs instructions retire (0 = no limit).
func (ip *Interp) Run(maxInstrs uint64) RunResult {
	m := ip.M
	if !ip.costTabOK || ip.Cost != ip.costSrc {
		ip.buildCostTab()
	}
	if maxInstrs == 0 {
		maxInstrs = ^uint64(0) // unlimited; one compare in the loop header
	}
	for n := uint64(0); n < maxInstrs; n++ {
		pc := m.PC
		if pc == HostReturn {
			ip.syncClock()
			return RunResult{Reason: StopHostReturn}
		}
		// CheckExec is a no-op while HFI is disabled, so the call is gated
		// on the cheap Enabled load; when enabled, the 1-entry exec cache
		// skips the region walk for straight-line fetches from one page
		// (keeping the observable check counter identical).
		if m.HFI.Enabled {
			if !ip.NoFastPath && m.epcHit(pc) {
				m.HFI.ChecksCode++
			} else {
				if f := m.HFI.CheckExec(pc); f != nil {
					if res, ok := ip.fault(pc, pc, f, false); !ok {
						return res
					}
					continue
				}
				if !ip.NoFastPath {
					m.epcFill(pc)
				}
			}
		}
		// Fetch: the code-cache range check is inlined here — FetchInstr
		// is the same logic behind a call, too hot for the dispatch loop.
		var in *isa.Instr
		if ip.NoFastPath {
			in = m.fetchAt(pc)
		} else if off := pc - m.ccBase; off < m.ccLimit-m.ccBase && off&(isa.InstrBytes-1) == 0 {
			in = &m.ccInstrs[off/isa.InstrBytes]
		} else {
			in = m.FetchInstr(pc)
		}
		if in == nil {
			if res, ok := ip.fault(pc, pc, nil, true); !ok {
				return res
			}
			continue
		}
		m.Instret++
		next := pc + isa.InstrBytes

		switch in.Op {
		case isa.OpNop:
			ip.charge(ip.costTab[isa.OpNop])
		case isa.OpHalt:
			ip.syncClock()
			return RunResult{Reason: StopHalt}

		case isa.OpMovImm:
			m.Regs[in.Rd] = uint64(in.Imm)
			ip.charge(ip.costTab[isa.OpMovImm])
		case isa.OpMov:
			m.Regs[in.Rd] = m.Regs[in.Rs1]
			ip.charge(ip.costTab[isa.OpMov])

		case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor:
			// The workhorse ALU ops get their own arm: they cannot fault,
			// so the dispatch table jumps straight to the arithmetic
			// without the aluOp call.
			b := m.regVal(in.Rs2)
			if in.UseImm {
				b = uint64(in.Imm)
			}
			a := m.Regs[in.Rs1]
			var v uint64
			switch in.Op {
			case isa.OpAdd:
				v = a + b
			case isa.OpSub:
				v = a - b
			case isa.OpAnd:
				v = a & b
			case isa.OpOr:
				v = a | b
			default:
				v = a ^ b
			}
			if in.W32 {
				v = uint64(uint32(v))
			}
			m.Regs[in.Rd] = v
			ip.charge(ip.costTab[in.Op])

		case isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpNot, isa.OpNeg:
			// Shifts, multiply and the unary ops cannot fault either.
			b := m.regVal(in.Rs2)
			if in.UseImm {
				b = uint64(in.Imm)
			}
			a := m.Regs[in.Rs1]
			var v uint64
			switch in.Op {
			case isa.OpShl:
				v = a << (b & 63)
			case isa.OpShr:
				v = a >> (b & 63)
			case isa.OpSar:
				v = uint64(int64(a) >> (b & 63))
			case isa.OpMul:
				v = a * b
			case isa.OpNot:
				v = ^a
			default:
				v = -a
			}
			if in.W32 {
				v = uint64(uint32(v))
			}
			m.Regs[in.Rd] = v
			ip.charge(ip.costTab[in.Op])

		case isa.OpDiv, isa.OpRem:
			b := m.regVal(in.Rs2)
			if in.UseImm {
				b = uint64(in.Imm)
			}
			v, ok := aluOp(in.Op, m.Regs[in.Rs1], b)
			if in.W32 {
				v = uint64(uint32(v))
			}
			if !ok {
				// Division by zero raises a hardware fault.
				if res, okc := ip.fault(pc, 0, nil, false); !okc {
					return res
				}
				continue
			}
			m.Regs[in.Rd] = v
			// Precomputed per-opcode charge replaces a second dispatch
			// switch on the hot path.
			ip.charge(ip.costTab[in.Op])

		case isa.OpLoad, isa.OpStore:
			addr := m.plainEA(in)
			write := in.Op == isa.OpStore
			if !ip.NoFastPath && m.DTCHit(addr, in.Size, write) {
				// Fast path: the page-decision cache proves this access passes
				// both the HFI and MMU checks. Keep the observable
				// check counter identical to the slow path.
				if m.HFI.Enabled {
					m.HFI.ChecksData++
				}
			} else {
				if f := m.HFI.CheckData(addr, in.Size, write); f != nil {
					if res, ok := ip.fault(pc, addr, f, false); !ok {
						return res
					}
					continue
				}
				if !m.checkMMU(addr, in.Size, write) {
					if res, ok := ip.fault(pc, addr, nil, true); !ok {
						return res
					}
					continue
				}
				if !ip.NoFastPath {
					m.dtcFill(addr)
				}
			}
			if m.MemHook != nil {
				m.MemHook(pc, addr, in.Size, write)
			}
			if write {
				m.Mem().Write(addr, in.Size, m.Regs[in.Rs3])
			} else {
				m.Regs[in.Rd] = m.loadValue(addr, in)
			}
			ip.chargeMem(addr, write)

		case isa.OpHLoad, isa.OpHStore:
			write := in.Op == isa.OpHStore
			addr, f := m.HFI.ExplicitEA(int(in.HReg), m.regVal(in.Rs2), in.Scale, in.Disp, in.Size, write)
			if f != nil {
				if res, ok := ip.fault(pc, addr, f, false); !ok {
					return res
				}
				continue
			}
			if !m.checkMMU(addr, in.Size, write) {
				if res, ok := ip.fault(pc, addr, nil, true); !ok {
					return res
				}
				continue
			}
			if m.MemHook != nil {
				m.MemHook(pc, addr, in.Size, write)
			}
			if write {
				m.Mem().Write(addr, in.Size, m.Regs[in.Rs3])
			} else {
				m.Regs[in.Rd] = m.loadValue(addr, in)
			}
			ip.chargeMem(addr, write)

		case isa.OpBr:
			b := m.regVal(in.Rs2)
			if in.UseImm {
				b = uint64(in.Imm)
			}
			if in.Cond.Eval(m.Regs[in.Rs1], b) {
				next = in.Target
			}
			ip.charge(ip.costTab[isa.OpBr])
		case isa.OpJmp:
			next = in.Target
			ip.charge(ip.costTab[isa.OpJmp])
		case isa.OpJmpInd:
			next = m.Regs[in.Rs1]
			ip.charge(ip.costTab[isa.OpJmpInd])
		case isa.OpCall, isa.OpCallInd:
			sp := m.Regs[isa.SP] - 8
			if !m.checkMMU(sp, 8, true) {
				if res, ok := ip.fault(pc, sp, nil, true); !ok {
					return res
				}
				continue
			}
			if m.MemHook != nil {
				m.MemHook(pc, sp, 8, true)
			}
			m.Mem().Write(sp, 8, next)
			m.Regs[isa.SP] = sp
			if in.Op == isa.OpCall {
				next = in.Target
			} else {
				next = m.Regs[in.Rs1]
			}
			ip.charge(ip.costTab[in.Op])
		case isa.OpRet:
			sp := m.Regs[isa.SP]
			if !m.checkMMU(sp, 8, false) {
				if res, ok := ip.fault(pc, sp, nil, true); !ok {
					return res
				}
				continue
			}
			if m.MemHook != nil {
				m.MemHook(pc, sp, 8, false)
			}
			next = m.Mem().Read(sp, 8)
			m.Regs[isa.SP] = sp + 8
			ip.charge(ip.costTab[isa.OpRet])

		case isa.OpSyscall:
			ip.charge(ip.costTab[isa.OpSyscall])
			ip.syncClock()
			serialized := m.HFI.Enabled && m.HFI.Bank.Cfg.Serialized && !m.HFI.SyscallAllowed()
			nxt, redirected, f := m.doSyscall(pc)
			if f != nil {
				if res, ok := ip.fault(pc, pc, f, false); !ok {
					return res
				}
				continue
			}
			if redirected {
				// The decode-stage redirect (§4.4) plus, for serialized
				// sandboxes, the exit drain.
				ip.charge(ip.Cost.Redirect)
				if serialized {
					ip.charge(ip.Cost.Serialize)
				}
			}
			next = nxt
			if m.Kern.Exited {
				m.PC = next
				ip.syncClock()
				return RunResult{Reason: StopExit}
			}

		case isa.OpHostcall:
			ip.charge(ip.costTab[isa.OpHostcall])
			ip.syncClock()
			nxt, f := m.doHostcall(pc)
			if f != nil {
				if res, ok := ip.fault(pc, pc, f, false); !ok {
					return res
				}
				continue
			}
			next = nxt

		case isa.OpFence:
			ip.charge(ip.costTab[isa.OpFence])
		case isa.OpClflush:
			m.Hier.Flush(m.regVal(in.Rs1) + uint64(in.Disp))
			ip.charge(ip.costTab[isa.OpClflush])
		case isa.OpRdtsc:
			ip.syncClock()
			m.Regs[in.Rd] = m.Cycles
			ip.charge(ip.costTab[isa.OpRdtsc])

		case isa.OpHfiEnter:
			res, f := m.hfiEnter(m.Regs[in.Rs1])
			if f != nil {
				if r, ok := ip.fault(pc, m.Regs[in.Rs1], f, false); !ok {
					return r
				}
				continue
			}
			ip.charge(ip.Cost.HfiBase + uint64(res.RegionLoads)*uint64(hfi.RegionEntrySize/8)*ip.Cost.HfiMove)
			if res.Serialize {
				ip.charge(ip.Cost.Serialize)
			}
		case isa.OpHfiExit:
			res := m.HFI.Exit()
			ip.charge(ip.Cost.HfiBase)
			if res.Serialize {
				ip.charge(ip.Cost.Serialize)
			}
			if res.Handler != 0 {
				m.LastExitPC = pc + isa.InstrBytes
				next = res.Handler
			}
		case isa.OpHfiReenter:
			res, f := m.HFI.Reenter()
			if f != nil {
				if r, ok := ip.fault(pc, 0, f, false); !ok {
					return r
				}
				continue
			}
			ip.charge(ip.Cost.HfiBase)
			if res.Serialize {
				ip.charge(ip.Cost.Serialize)
			}

		case isa.OpHfiSetRegion, isa.OpHfiGetRegion, isa.OpHfiClearRegion, isa.OpHfiClearAll:
			serialize := m.HFI.RegionUpdateSerializes()
			moves, f := m.hfiMicro(in)
			if f != nil {
				if r, ok := ip.fault(pc, 0, f, false); !ok {
					return r
				}
				continue
			}
			ip.charge(ip.Cost.HfiBase + uint64(moves)*ip.Cost.HfiMove)
			if serialize {
				ip.charge(ip.Cost.Serialize)
			}

		case isa.OpXsave:
			if !m.HFI.PrivilegedAllowed() {
				f := m.HFI.PrivFault(pc)
				if r, ok := ip.fault(pc, pc, f, false); !ok {
					return r
				}
				continue
			}
			img := m.HFI.Xsave()
			m.Mem().WriteBytes(m.Regs[in.Rs1], img[:])
			ip.charge(ip.Cost.Serialize)
		case isa.OpXrstor:
			if !m.HFI.PrivilegedAllowed() {
				// A native sandbox restoring HFI registers would break
				// sandboxing; HFI traps (§3.3.3).
				f := m.HFI.PrivFault(pc)
				if r, ok := ip.fault(pc, pc, f, false); !ok {
					return r
				}
				continue
			}
			buf := make([]byte, hfi.XsaveSize)
			m.Mem().ReadBytes(m.Regs[in.Rs1], buf)
			if f := m.HFI.Xrstor(buf); f != nil {
				if r, ok := ip.fault(pc, 0, f, false); !ok {
					return r
				}
				continue
			}
			ip.charge(ip.Cost.Serialize)

		default:
			if res, ok := ip.fault(pc, pc, nil, false); !ok {
				return res
			}
			continue
		}
		m.PC = next
	}
	if !ip.segment {
		ip.syncClock()
	}
	return RunResult{Reason: StopLimit}
}

// fault routes a fault through the signal path. If the handler supplies a
// resume PC, execution continues there and fault returns ok=true;
// otherwise it returns the final RunResult with ok=false.
func (ip *Interp) fault(pc, addr uint64, f *hfi.Fault, pageFault bool) (RunResult, bool) {
	ip.syncClock()
	resume := ip.M.raiseFault(pc, addr, f)
	if resume == 0 {
		return RunResult{Reason: StopFault, Fault: f, PageFault: pageFault, FaultAddr: addr, FaultPC: pc}, false
	}
	ip.M.PC = resume
	return RunResult{}, true
}
