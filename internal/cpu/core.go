package cpu

import (
	"hfi/internal/hfi"
	"hfi/internal/isa"
	"hfi/internal/kernel"
)

// Core is the cycle-level out-of-order timing engine — the reproduction's
// analogue of the paper's gem5 model (§5.2, Table 2). It models:
//
//   - wide fetch along the predicted path (PHT/BTB/RSB), a reorder buffer,
//     Tomasulo-style operand capture, out-of-order issue, and in-order
//     commit with precise faults;
//   - speculative execution: wrong-path instructions issue and perform
//     real cache accesses before the mispredicted branch resolves — the
//     property the Spectre experiments (§5.3, Fig 7) depend on;
//   - HFI checks in parallel with translation: region checks gate a
//     load's cache access (a speculatively faulting access never touches
//     the cache hierarchy, §4.1), and code-region checks gate decode
//     (out-of-bounds fetches become faulting NOPs);
//   - HFI state updates as speculative register writes with snapshot
//     recovery, so an hfi_exit executed on the wrong path is undone by the
//     squash — and, if unserialized, opens exactly the speculation window
//     §3.4 describes.
type Core struct {
	M    *Machine
	Pred *predictor

	// Geometry, after the paper's Table 2.
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	IQSize      int    // scheduling-window size: waiting entries considered per cycle
	LoadPorts   int    // loads issued per cycle (Skylake: 2 AGU load ports)
	StorePorts  int    // stores issued per cycle
	FrontDepth  uint64 // fetch-to-issue pipeline depth in cycles

	cycle    uint64
	seq      uint64
	rob      []*robEntry
	regOwner [isa.NumRegs]*robEntry // latest in-flight writer, nil = none

	// ring backs ROB entries without per-dispatch allocation. Capacity
	// 2*ROBSize guarantees a slot is never reused while any in-flight
	// consumer can still hold a pointer to it: a producer referenced by
	// an operand is at most 2*ROBSize-1 sequence numbers older than the
	// newest dispatch (both producer and consumer were in the ROB
	// together, and the consumer is still in it).
	ring []robEntry

	fetchPC         uint64
	fetchReady      uint64 // no fetch before this cycle
	fetchStall      bool   // stop fetching until a serializer/fault resolves
	lastFetchedLine uint64

	stopped    bool
	stopResult RunResult

	// Stats.
	Fetched   uint64
	Squashed  uint64
	SpecLoads uint64 // loads issued that were later squashed
}

type operand struct {
	val uint64
	src *robEntry // in-flight producer; nil when val is ready at capture
}

type entryState uint8

const (
	esWaiting entryState = iota
	esDone
)

type faultClass uint8

const (
	fcNone faultClass = iota
	fcHFIData
	fcHFICode
	fcHFIExplicit
	fcMMU
	fcDivZero
	fcPriv
)

type robEntry struct {
	in       *isa.Instr
	pc       uint64
	seq      uint64
	predNext uint64

	ops  [3]operand // Rs1, Rs2, Rs3 captures
	dest isa.Reg

	state    entryState
	execDone uint64
	val      uint64

	// Memory state.
	ea      uint64
	eaValid bool
	isStore bool
	stVal   uint64
	stSize  uint8

	// Control state.
	isBranch   bool
	actualNext uint64

	// Fault state (raised at commit).
	fault     faultClass
	faultAddr uint64
	exWrite   bool

	// HFI snapshot for squash recovery of speculative HFI mutations.
	snap    *hfi.State
	hasSnap bool

	// serializer entries issue only at ROB head with fetch stalled.
	serializer bool
	squashed   bool // marks wrong-path issued loads for stats
}

// NewCore returns a timing core over m with Table 2 geometry.
func NewCore(m *Machine) *Core {
	const robSize = 224
	return &Core{
		ring:        make([]robEntry, 2*robSize),
		M:           m,
		Pred:        newPredictor(),
		FetchWidth:  4,
		IssueWidth:  8,
		CommitWidth: 8,
		ROBSize:     robSize,
		IQSize:      97,
		LoadPorts:   2,
		StorePorts:  1,
		FrontDepth:  5,
	}
}

// allocEntry hands out the ring slot for a new sequence number, reset.
func (c *Core) allocEntry() *robEntry {
	e := &c.ring[c.seq%uint64(len(c.ring))]
	*e = robEntry{seq: c.seq, dest: isa.RegNone}
	c.seq++
	return e
}

// Cycles returns the cycles consumed by this core since construction.
func (c *Core) Cycles() uint64 { return c.cycle }

// Run executes from the machine's PC until a stop condition or cycle
// budget (0 = unlimited).
func (c *Core) Run(maxCycles uint64) RunResult {
	c.fetchPC = c.M.PC
	c.fetchReady = c.cycle
	c.fetchStall = false
	c.stopped = false
	c.rob = c.rob[:0]
	c.regOwner = [isa.NumRegs]*robEntry{}
	c.lastFetchedLine = ^uint64(0)
	start := c.cycle

	for {
		if maxCycles != 0 && c.cycle-start >= maxCycles {
			c.syncClock()
			return RunResult{Reason: StopLimit}
		}
		c.commit()
		if c.stopped {
			c.syncClock()
			return c.stopResult
		}
		c.issue()
		c.fetch()
		if len(c.rob) == 0 && (c.fetchPC == HostReturn || c.M.Kern.Exited) {
			c.M.PC = c.fetchPC
			c.syncClock()
			if c.M.Kern.Exited {
				return RunResult{Reason: StopExit}
			}
			return RunResult{Reason: StopHostReturn}
		}
		c.cycle++
	}
}

func (c *Core) syncClock() {
	c.M.Kern.Clock.AdvanceCycles(c.cycle-c.M.Cycles, kernel.CoreGHz)
	c.M.Cycles = c.cycle
}

// ---- Fetch ----

func (c *Core) fetch() {
	if c.fetchStall || c.cycle < c.fetchReady || c.fetchPC == HostReturn {
		return
	}
	for n := 0; n < c.FetchWidth; n++ {
		if len(c.rob) >= c.ROBSize {
			return
		}
		if c.fetchPC == HostReturn {
			return
		}
		// Instruction cache: charge a fetch bubble on line misses.
		line := c.fetchPC >> 6
		if line != c.lastFetchedLine {
			c.lastFetchedLine = line
			lat := c.M.Hier.FetchLatency(c.fetchPC)
			if lat > c.M.Hier.Lat.L1 {
				c.fetchReady = c.cycle + uint64(lat)
				return
			}
		}
		// HFI code-region check in parallel with decode (§4.1): a failing
		// fetch is converted to a faulting NOP and fetch stops.
		if !c.M.HFI.PeekExec(c.fetchPC) {
			c.dispatchFault(fcHFICode, c.fetchPC)
			return
		}
		in := c.M.FetchInstr(c.fetchPC)
		if in == nil {
			c.dispatchFault(fcMMU, c.fetchPC)
			return
		}
		c.dispatch(in)
		if c.fetchStall {
			return
		}
	}
}

func (c *Core) dispatchFault(class faultClass, addr uint64) {
	e := c.allocEntry()
	e.pc = c.fetchPC
	e.state = esDone
	e.execDone = c.cycle + c.FrontDepth
	e.fault = class
	e.faultAddr = addr
	c.rob = append(c.rob, e)
	c.fetchStall = true
	c.Fetched++
}

func (c *Core) capture(r isa.Reg) operand {
	if r == isa.RegNone {
		return operand{}
	}
	if p := c.regOwner[r]; p != nil {
		return operand{src: p}
	}
	return operand{val: c.M.Regs[r]}
}

func (c *Core) dispatch(in *isa.Instr) {
	e := c.allocEntry()
	e.in = in
	e.pc = c.fetchPC
	e.execDone = c.cycle + c.FrontDepth
	c.Fetched++

	e.ops[0] = c.capture(in.Rs1)
	e.ops[1] = c.capture(in.Rs2)
	e.ops[2] = c.capture(in.Rs3)

	next := c.fetchPC + isa.InstrBytes
	switch in.Op {
	case isa.OpBr, isa.OpJmp, isa.OpJmpInd, isa.OpCall, isa.OpCallInd, isa.OpRet:
		e.isBranch = true
		next, _ = c.Pred.predict(c.fetchPC, in)
		// CALL and RET also read/write SP and memory.
		if in.Op == isa.OpCall || in.Op == isa.OpCallInd {
			e.ops[2] = c.capture(isa.SP)
			e.dest = isa.SP
			e.isStore = true
			e.stSize = 8
		}
		if in.Op == isa.OpRet {
			e.ops[0] = c.capture(isa.SP)
			e.dest = isa.SP
		}
	case isa.OpSyscall, isa.OpHostcall, isa.OpFence, isa.OpHalt, isa.OpXsave, isa.OpXrstor,
		isa.OpHfiSetRegion, isa.OpHfiGetRegion, isa.OpHfiClearRegion, isa.OpHfiClearAll:
		// Statically serializing (region updates serialize conservatively
		// in the core; §4.3 notes renaming could relax this).
		e.serializer = true
		c.fetchStall = true
	case isa.OpHfiEnter, isa.OpHfiExit, isa.OpHfiReenter:
		// Whether the transition serializes is only known at execute
		// (the flag lives in the sandbox_t / current config), so fetch
		// stalls at dispatch either way. The difference the is-serialized
		// flag makes is WHEN the transition may execute: unserialized
		// transitions issue out of order — speculatively, possibly on a
		// wrong path, which is exactly the §3.4 window — while
		// serialized ones wait for the ROB head (a full drain).
		c.fetchStall = true
	case isa.OpLoad, isa.OpHLoad:
		e.dest = in.Rd
	case isa.OpStore, isa.OpHStore:
		e.isStore = true
		e.stSize = in.Size
	default:
		if in.Rd != isa.RegNone {
			e.dest = in.Rd
		}
	}
	e.predNext = next

	c.rob = append(c.rob, e)
	// Record ownership after capturing sources (handles rd == rs cases).
	if e.dest != isa.RegNone {
		c.regOwner[e.dest] = e
	}
	c.fetchPC = next
}

// ---- Issue / execute ----

// opReady resolves an operand; ready is false while its producer is
// still executing. Committed producers keep their ROB record alive via the
// operand pointer, so no commit-time broadcast is needed.
func (c *Core) opReady(o *operand) (val uint64, ready bool) {
	p := o.src
	if p == nil {
		return o.val, true
	}
	if p.state == esDone && p.execDone <= c.cycle {
		if p.fault != fcNone {
			// Faulting producers never deliver a value; hardware returns
			// zero to dependents (they will be squashed at commit anyway).
			return 0, true
		}
		return p.val, true
	}
	return 0, false
}

func (c *Core) issue() {
	issued := 0
	considered := 0
	loads, stores := 0, 0
	for i := 0; i < len(c.rob) && issued < c.IssueWidth; i++ {
		e := c.rob[i]
		if e.state != esWaiting {
			continue
		}
		// The issue queue holds a bounded window of waiting micro-ops
		// (Table 2: 97 entries); younger instructions wait outside it.
		considered++
		if considered > c.IQSize {
			return
		}
		if c.cycle < e.execDone {
			continue
		}
		// Memory-port limits: two load issues and one store issue per
		// cycle, like the baseline core's AGU ports.
		if e.in.IsLoad() || e.in.Op == isa.OpRet {
			if loads >= c.LoadPorts {
				continue
			}
		}
		if e.in.IsStore() || e.in.Op == isa.OpCall || e.in.Op == isa.OpCallInd {
			if stores >= c.StorePorts {
				continue
			}
		}
		if e.serializer || e.in.Op == isa.OpHalt {
			if i != 0 {
				continue // serializers execute only at ROB head
			}
		}
		v0, r0 := c.opReady(&e.ops[0])
		v1, r1 := c.opReady(&e.ops[1])
		v2, r2 := c.opReady(&e.ops[2])
		if !r0 || !r1 || !r2 {
			continue
		}
		if e.in.IsMem() || e.in.Op == isa.OpCall || e.in.Op == isa.OpCallInd || e.in.Op == isa.OpRet {
			if !c.memReady(i, e, v0, v1, v2) {
				continue
			}
		}
		// HFI-mutating instructions execute in program order relative to
		// each other, so speculative snapshots nest correctly and squash
		// recovery restores the right pre-state.
		if isHFIMutator(e.in.Op) && c.olderHFIMutatorPending(i) {
			continue
		}
		if e.in.IsLoad() || e.in.Op == isa.OpRet {
			loads++
		}
		if e.in.IsStore() || e.in.Op == isa.OpCall || e.in.Op == isa.OpCallInd {
			stores++
		}
		before := len(c.rob)
		c.execute(i, e, v0, v1, v2)
		issued++
		if c.stopped || len(c.rob) != before {
			// A squash or flush invalidated the iteration state.
			return
		}
	}
}

func isHFIMutator(op isa.Op) bool {
	switch op {
	case isa.OpHfiEnter, isa.OpHfiExit, isa.OpHfiReenter,
		isa.OpHfiSetRegion, isa.OpHfiClearRegion, isa.OpHfiClearAll,
		isa.OpXrstor:
		return true
	}
	return false
}

func (c *Core) olderHFIMutatorPending(idx int) bool {
	for j := 0; j < idx; j++ {
		if c.rob[j].in != nil && isHFIMutator(c.rob[j].in.Op) && c.rob[j].state != esDone {
			return true
		}
	}
	return false
}

// memReady applies memory-ordering rules: a load may issue only when every
// older store has resolved its address and none overlaps (or an exact
// match can forward).
func (c *Core) memReady(idx int, e *robEntry, v0, v1, v2 uint64) bool {
	if e.isStore {
		return true // stores execute (resolve address) eagerly, write at commit
	}
	var ea uint64
	switch e.in.Op {
	case isa.OpRet:
		ea = v0
	case isa.OpHLoad:
		var ok bool
		ea, ok = c.M.HFI.PeekExplicitEA(int(e.in.HReg), v1, e.in.Scale, e.in.Disp, e.in.Size, false)
		if !ok {
			return true // will fault at execute; no ordering needed
		}
	default:
		ea = isa.PlainEA(v0, v1, e.in.Scale, e.in.Disp)
	}
	for j := 0; j < idx; j++ {
		st := c.rob[j]
		if !st.isStore {
			continue
		}
		if st.state != esDone {
			return false // older store address unknown
		}
		if st.fault != fcNone {
			continue
		}
		lo, hi := st.ea, st.ea+uint64(st.stSize)
		llo, lhi := ea, ea+uint64(loadSize(e.in))
		if lo < lhi && llo < hi {
			if lo == llo && st.stSize == loadSize(e.in) {
				continue // exact match: forwarded in execute()
			}
			return false // partial overlap: wait for the store to commit
		}
	}
	return true
}

func loadSize(in *isa.Instr) uint8 {
	if in.Op == isa.OpRet {
		return 8
	}
	return in.Size
}

// forwardLoad returns a forwarded value from the youngest older exact-match
// store, if any, truncated to the access size as the memory write would be.
func (c *Core) forwardLoad(idx int, ea uint64, size uint8) (uint64, bool) {
	for j := idx - 1; j >= 0; j-- {
		st := c.rob[j]
		if st.isStore && st.state == esDone && st.fault == fcNone && st.ea == ea && st.stSize == size {
			v := st.stVal
			if size < 8 {
				v &= 1<<(8*uint(size)) - 1
			}
			return v, true
		}
	}
	return 0, false
}

func (c *Core) snapshotHFI(e *robEntry) {
	snap := *c.M.HFI
	e.snap = &snap
	e.hasSnap = true
}

func (c *Core) finish(e *robEntry, lat uint64, val uint64) {
	e.state = esDone
	e.execDone = c.cycle + lat
	e.val = val
}

func (c *Core) specFault(e *robEntry, class faultClass, addr uint64, write bool) {
	e.state = esDone
	e.execDone = c.cycle + 1
	e.fault = class
	e.faultAddr = addr
	e.exWrite = write
}

// execute performs entry e's operation at the current cycle. Results are
// speculative: registers are visible to dependents through the ROB, memory
// writes wait for commit, HFI mutations are snapshotted.
func (c *Core) execute(idx int, e *robEntry, v0, v1, v2 uint64) {
	in := e.in
	m := c.M
	switch in.Op {
	case isa.OpNop:
		c.finish(e, 1, 0)
	case isa.OpHalt:
		c.stopped = true
		c.stopResult = RunResult{Reason: StopHalt}
		m.PC = e.pc
		c.finish(e, 1, 0)

	case isa.OpMovImm:
		c.finish(e, 1, uint64(in.Imm))
	case isa.OpMov:
		c.finish(e, 1, v0)

	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpDiv,
		isa.OpRem, isa.OpNot, isa.OpNeg:
		b := v1
		if in.UseImm {
			b = uint64(in.Imm)
		}
		v, ok := aluOp(in.Op, v0, b)
		if in.W32 {
			v = uint64(uint32(v))
		}
		if !ok {
			c.specFault(e, fcDivZero, e.pc, false)
			return
		}
		lat := uint64(1)
		switch in.Op {
		case isa.OpMul:
			lat = 3
		case isa.OpDiv, isa.OpRem:
			lat = 20
		}
		c.finish(e, lat, v)

	case isa.OpLoad:
		ea := isa.PlainEA(v0, v1, in.Scale, in.Disp)
		e.ea, e.eaValid = ea, true
		// HFI check in parallel with the dtb lookup: a failing check
		// blocks the cache access entirely (§4.1).
		if !m.HFI.PeekData(ea, in.Size, false) {
			c.specFault(e, fcHFIData, ea, false)
			return
		}
		if !m.checkMMU(ea, in.Size, false) {
			c.specFault(e, fcMMU, ea, false)
			return
		}
		if fwd, ok := c.forwardLoad(idx, ea, in.Size); ok {
			v := fwd
			if in.SignExt {
				v = signExtend(v, in.Size)
			}
			c.finish(e, 1, v)
			return
		}
		lat := uint64(m.Hier.LoadLatency(ea)) // speculative cache update
		c.finish(e, lat, m.loadValue(ea, in))

	case isa.OpHLoad:
		ea, ok := m.HFI.PeekExplicitEA(int(in.HReg), v1, in.Scale, in.Disp, in.Size, false)
		if !ok {
			c.specFault(e, fcHFIExplicit, ea, false)
			return
		}
		e.ea, e.eaValid = ea, true
		if !m.checkMMU(ea, in.Size, false) {
			c.specFault(e, fcMMU, ea, false)
			return
		}
		if fwd, fok := c.forwardLoad(idx, ea, in.Size); fok {
			v := fwd
			if in.SignExt {
				v = signExtend(v, in.Size)
			}
			c.finish(e, 1, v)
			return
		}
		lat := uint64(m.Hier.LoadLatency(ea))
		c.finish(e, lat, m.loadValue(ea, in))

	case isa.OpStore:
		ea := isa.PlainEA(v0, v1, in.Scale, in.Disp)
		e.ea, e.eaValid = ea, true
		if !m.HFI.PeekData(ea, in.Size, true) {
			c.specFault(e, fcHFIData, ea, true)
			return
		}
		if !m.checkMMU(ea, in.Size, true) {
			c.specFault(e, fcMMU, ea, true)
			return
		}
		e.stVal = v2
		c.finish(e, uint64(m.Hier.StoreLatency(ea)), 0)

	case isa.OpHStore:
		ea, ok := m.HFI.PeekExplicitEA(int(in.HReg), v1, in.Scale, in.Disp, in.Size, true)
		if !ok {
			c.specFault(e, fcHFIExplicit, ea, true)
			return
		}
		e.ea, e.eaValid = ea, true
		if !m.checkMMU(ea, in.Size, true) {
			c.specFault(e, fcMMU, ea, true)
			return
		}
		e.stVal = v2
		c.finish(e, uint64(m.Hier.StoreLatency(ea)), 0)

	case isa.OpBr:
		b := v1
		if in.UseImm {
			b = uint64(in.Imm)
		}
		taken := in.Cond.Eval(v0, b)
		next := e.pc + isa.InstrBytes
		if taken {
			next = in.Target
		}
		c.resolveBranch(idx, e, next, taken)
	case isa.OpJmp:
		c.resolveBranch(idx, e, in.Target, true)
	case isa.OpJmpInd:
		c.resolveBranch(idx, e, v0, true)
	case isa.OpCall, isa.OpCallInd:
		sp := v2 - 8
		if !m.checkMMU(sp, 8, true) {
			c.specFault(e, fcMMU, sp, false)
			return
		}
		e.ea, e.eaValid = sp, true
		e.stVal = e.pc + isa.InstrBytes
		e.val = sp // new SP
		target := in.Target
		if in.Op == isa.OpCallInd {
			target = v0
		}
		c.resolveBranch(idx, e, target, true)
	case isa.OpRet:
		sp := v0
		if !m.checkMMU(sp, 8, false) {
			c.specFault(e, fcMMU, sp, false)
			return
		}
		var ra uint64
		if fwd, ok := c.forwardLoad(idx, sp, 8); ok {
			ra = fwd
		} else {
			m.Hier.LoadLatency(sp)
			ra = m.Mem().Read(sp, 8)
		}
		e.val = sp + 8 // new SP
		c.resolveBranch(idx, e, ra, true)

	case isa.OpSyscall:
		// Serializer: executing at ROB head with fetch stalled, so this
		// is architecturally equivalent to commit time.
		c.syncClock()
		serialized := m.HFI.Enabled && m.HFI.Bank.Cfg.Serialized && !m.HFI.SyscallAllowed()
		next, redirected, f := m.doSyscall(e.pc)
		if f != nil {
			c.specFault(e, fcPriv, e.pc, false)
			return
		}
		lat := uint64(2)
		if redirected {
			lat++ // the one-cycle microcode penalty of §4.4
			if serialized {
				lat += hfi.SerializeCycles
			}
		}
		e.isBranch = true
		e.actualNext = next
		c.finish(e, lat, 0)
		c.redirectFetch(next, c.cycle+lat)
	case isa.OpHostcall:
		// Serializer like syscall: executes at ROB head with fetch
		// stalled, so mutating the architectural register file directly
		// is commit-equivalent. No redirect path — the gate is the exit.
		c.syncClock()
		next, f := m.doHostcall(e.pc)
		if f != nil {
			c.specFault(e, fcPriv, e.pc, false)
			return
		}
		lat := uint64(2)
		e.isBranch = true
		e.actualNext = next
		c.finish(e, lat, 0)
		c.redirectFetch(next, c.cycle+lat)
	case isa.OpFence:
		c.finish(e, hfi.SerializeCycles, 0)
		c.redirectFetch(e.pc+isa.InstrBytes, c.cycle+hfi.SerializeCycles)
	case isa.OpClflush:
		m.Hier.Flush(v0 + uint64(in.Disp))
		c.finish(e, 2, 0)
	case isa.OpRdtsc:
		c.finish(e, 1, c.cycle)

	case isa.OpHfiEnter:
		c.executeEnter(idx, e, v0)
	case isa.OpHfiExit:
		c.executeExit(idx, e)
	case isa.OpHfiReenter:
		c.snapshotHFI(e)
		res, f := m.HFI.Reenter()
		if f != nil {
			c.specFault(e, fcPriv, e.pc, false)
			c.redirectFetch(e.pc+isa.InstrBytes, c.cycle+1)
			return
		}
		lat := uint64(2)
		if res.Serialize {
			lat += hfi.SerializeCycles
			c.squashAfter(idx)
		}
		c.finish(e, lat, 0)
		c.redirectFetch(e.pc+isa.InstrBytes, c.cycle+lat)

	case isa.OpHfiSetRegion, isa.OpHfiGetRegion, isa.OpHfiClearRegion, isa.OpHfiClearAll:
		// Serializer path: at ROB head, fetch stalled.
		c.snapshotHFI(e)
		moves, f := m.hfiMicro(in)
		if f != nil {
			c.specFault(e, fcPriv, e.pc, false)
			return
		}
		lat := uint64(2 + moves)
		if m.HFI.RegionUpdateSerializes() {
			lat += hfi.SerializeCycles
		}
		c.finish(e, lat, 0)
		c.redirectFetch(e.pc+isa.InstrBytes, c.cycle+lat)

	case isa.OpXsave:
		if !m.HFI.PrivilegedAllowed() {
			c.specFault(e, fcPriv, e.pc, false)
			return
		}
		img := m.HFI.Xsave()
		m.Mem().WriteBytes(v0, img[:])
		c.finish(e, hfi.SerializeCycles, 0)
		c.redirectFetch(e.pc+isa.InstrBytes, c.cycle+hfi.SerializeCycles)
	case isa.OpXrstor:
		if !m.HFI.PrivilegedAllowed() {
			c.specFault(e, fcPriv, e.pc, false)
			return
		}
		c.snapshotHFI(e)
		buf := make([]byte, hfi.XsaveSize)
		m.Mem().ReadBytes(v0, buf)
		if f := m.HFI.Xrstor(buf); f != nil {
			c.specFault(e, fcPriv, e.pc, false)
			return
		}
		c.finish(e, hfi.SerializeCycles, 0)
		c.redirectFetch(e.pc+isa.InstrBytes, c.cycle+hfi.SerializeCycles)

	default:
		c.specFault(e, fcPriv, e.pc, false)
	}
}

// executeEnter handles hfi_enter. The serialized flag lives in the
// sandbox_t in memory, so the decision to drain happens here: a serialized
// enter only executes at ROB head and refuses to let younger speculation
// survive. An unserialized enter mutates HFI state speculatively.
func (c *Core) executeEnter(idx int, e *robEntry, ptr uint64) {
	m := c.M
	var sb [hfi.SandboxTSize]byte
	m.Mem().ReadBytes(ptr, sb[:])
	cfg := hfi.DecodeSandboxT(sb[:])
	if cfg.Serialized && idx != 0 {
		// Wait until this is the oldest instruction (drain before).
		return
	}
	c.snapshotHFI(e)
	res, f := m.hfiEnter(ptr)
	if f != nil {
		c.specFault(e, fcPriv, ptr, false)
		c.redirectFetch(e.pc+isa.InstrBytes, c.cycle+1)
		return
	}
	lat := uint64(3 + res.RegionLoads*(hfi.RegionEntrySize/8))
	if res.Serialize {
		lat += hfi.SerializeCycles
		c.squashAfter(idx)
	}
	c.finish(e, lat, 0)
	// Fetch was stalled at dispatch; resume past the transition.
	c.redirectFetch(e.pc+isa.InstrBytes, c.cycle+lat)
}

// executeExit handles hfi_exit. A serialized exit drains; an unserialized
// exit is a pure speculative state update (plus a fetch redirect when an
// exit handler is installed) — leaving the §3.4 window open by design.
func (c *Core) executeExit(idx int, e *robEntry) {
	m := c.M
	serialized := m.HFI.Enabled && m.HFI.Bank.Cfg.Serialized
	if serialized && idx != 0 {
		return
	}
	c.snapshotHFI(e)
	res := m.HFI.Exit()
	lat := uint64(2)
	if res.Serialize {
		lat += hfi.SerializeCycles
	}
	next := e.pc + isa.InstrBytes
	if res.Handler != 0 {
		m.LastExitPC = e.pc + isa.InstrBytes
		next = res.Handler
	}
	e.isBranch = true
	e.actualNext = next
	if res.Serialize {
		c.squashAfter(idx)
	}
	c.finish(e, lat, 0)
	// Fetch was stalled at dispatch; resume at the handler (if any) or
	// the fall-through.
	c.redirectFetch(next, c.cycle+lat)
}

// resolveBranch finishes a branch, trains the predictor, and on a
// misprediction squashes the wrong path and redirects fetch.
func (c *Core) resolveBranch(idx int, e *robEntry, actual uint64, taken bool) {
	e.actualNext = actual
	mispredicted := actual != e.predNext
	c.Pred.update(e.pc, e.in, taken, actual, mispredicted)
	c.finish(e, 1, e.val)
	if mispredicted {
		c.squashAfter(idx)
		c.redirectFetch(actual, e.execDone+1)
	}
}

func (c *Core) redirectFetch(pc, readyCycle uint64) {
	c.fetchPC = pc
	c.fetchReady = readyCycle
	c.fetchStall = false
	c.lastFetchedLine = ^uint64(0)
}

// squashAfter removes every ROB entry younger than index idx, restoring
// speculative register ownership and any HFI state the squashed entries
// had mutated. Cache and predictor state are NOT rolled back — faithfully
// to hardware, and essential to the Spectre experiments.
func (c *Core) squashAfter(idx int) {
	if idx+1 >= len(c.rob) {
		return
	}
	// Restore the oldest squashed HFI snapshot: state before the first
	// squashed mutation.
	for j := idx + 1; j < len(c.rob); j++ {
		sq := c.rob[j]
		if sq.hasSnap {
			*c.M.HFI = *sq.snap
			break
		}
	}
	for j := idx + 1; j < len(c.rob); j++ {
		if c.rob[j].in != nil && c.rob[j].in.IsLoad() && c.rob[j].state == esDone {
			c.SpecLoads++
		}
	}
	c.Squashed += uint64(len(c.rob) - idx - 1)
	c.rob = c.rob[:idx+1]
	// Squashed sequence numbers are never referenced again; rolling seq
	// back keeps live entries dense in sequence space, which the ring
	// buffer's reuse-distance bound depends on.
	c.seq = c.rob[idx].seq + 1
	// Rebuild register ownership from the surviving entries.
	c.regOwner = [isa.NumRegs]*robEntry{}
	for j := range c.rob {
		if d := c.rob[j].dest; d != isa.RegNone {
			c.regOwner[d] = c.rob[j]
		}
	}
	c.fetchStall = false
}

// ---- Commit ----

func (c *Core) commit() {
	for n := 0; n < c.CommitWidth && len(c.rob) > 0; n++ {
		e := c.rob[0]
		if e.state != esDone || c.cycle < e.execDone {
			return
		}
		if e.fault != fcNone {
			c.commitFault(e)
			return
		}
		// Architectural effects.
		if e.isStore && e.eaValid {
			c.M.Mem().Write(e.ea, e.stSize, e.stVal)
		}
		if e.dest != isa.RegNone {
			c.M.Regs[e.dest] = e.val
			if c.regOwner[e.dest] == e {
				c.regOwner[e.dest] = nil
			}
		}
		if e.in != nil {
			c.M.Instret++
			c.M.PC = e.pc + isa.InstrBytes
			if e.isBranch {
				c.M.PC = e.actualNext
			}
		}
		// Consumers holding a pointer to this entry keep reading its
		// value after commit; no broadcast is needed.
		c.rob = c.rob[1:]
		if c.stopped {
			return
		}
	}
}

// commitFault raises a precise architectural fault: the HFI checks are
// re-run mutatingly (recording the MSR and disabling the sandbox), the
// kernel delivers the signal, and the pipeline is fully flushed.
func (c *Core) commitFault(e *robEntry) {
	m := c.M
	var hf *hfi.Fault
	switch e.fault {
	case fcHFIData:
		hf = m.HFI.CheckData(e.faultAddr, loadSizeOrOne(e), e.exWrite)
	case fcHFICode:
		hf = m.HFI.CheckExec(e.faultAddr)
	case fcHFIExplicit:
		_, hf = m.HFI.ExplicitEA(int(e.in.HReg), opVal(&e.ops[1]), e.in.Scale, e.in.Disp, e.in.Size, e.exWrite)
	case fcPriv:
		hf = m.HFI.PrivFault(e.faultAddr)
	}
	pageFault := e.fault == fcMMU
	c.syncClock()
	resume := m.raiseFault(e.pc, e.faultAddr, hf)
	// Full flush.
	c.rob = c.rob[:0]
	c.regOwner = [isa.NumRegs]*robEntry{}
	if resume == 0 {
		c.stopped = true
		c.stopResult = RunResult{Reason: StopFault, Fault: hf, PageFault: pageFault,
			FaultAddr: e.faultAddr, FaultPC: e.pc}
		return
	}
	m.PC = resume
	c.redirectFetch(resume, c.cycle+c.FrontDepth)
}

func loadSizeOrOne(e *robEntry) uint8 {
	if e.in != nil && e.in.Size != 0 {
		return e.in.Size
	}
	return 1
}

func opVal(o *operand) uint64 {
	if o.src == nil {
		return o.val
	}
	if o.src.state == esDone && o.src.fault == fcNone {
		return o.src.val
	}
	return 0
}
