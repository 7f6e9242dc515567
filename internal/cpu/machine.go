// Package cpu provides the two execution engines of §5.2:
//
//   - Interp, a fast functional interpreter with a per-instruction cycle
//     cost model — the analogue of the paper's compiler-based emulation,
//     used for long-running macro benchmarks; and
//   - Core, a cycle-level out-of-order timing simulator with branch
//     prediction and speculative execution — the analogue of the paper's
//     gem5 model, used for microbenchmarks and the Spectre experiments.
//
// Both engines share a Machine (architectural state + memory system + OS +
// HFI) and the architectural semantics in exec.go, so a program produces
// identical results on either engine; only timing differs. Fig 2
// cross-validates the two.
package cpu

import (
	"fmt"
	"sort"

	"hfi/internal/hfi"
	"hfi/internal/isa"
	"hfi/internal/kernel"
	"hfi/internal/mem"
)

// HostReturn is a distinguished guest address: control transferring to it
// returns to the host (the trusted runtime implemented in Go). It plays the
// role of the return address a host-side caller would push before invoking
// guest code, and doubles as an exit-handler target for runtimes that
// handle sandbox exits in host code.
const HostReturn uint64 = 0x7fff_ffff_f000

// StopReason says why an engine's Run loop returned.
type StopReason uint8

// Stop reasons.
const (
	StopHalt       StopReason = iota // guest executed halt
	StopHostReturn                   // control reached HostReturn
	StopExit                         // guest called SysExit
	StopFault                        // unhandled fault
	StopLimit                        // cycle/instruction budget exhausted
)

var stopNames = [...]string{"halt", "host-return", "exit", "fault", "limit"}

func (r StopReason) String() string {
	if int(r) < len(stopNames) {
		return stopNames[r]
	}
	return fmt.Sprintf("stop(%d)", uint8(r))
}

// RunResult reports the outcome of a Run call.
type RunResult struct {
	Reason StopReason
	Fault  *hfi.Fault // set when Reason == StopFault and the fault was HFI's
	// PageFault is set for MMU (guard-page) faults.
	PageFault bool
	FaultAddr uint64
	FaultPC   uint64
}

// Engine abstracts the two execution engines: both run the machine from
// its current PC until a stop condition or a budget limit (instructions
// for Interp, cycles for Core; 0 = unlimited).
type Engine interface {
	Run(limit uint64) RunResult
}

// Machine is the architectural state shared by both engines: registers,
// memory, loaded code, the HFI state, the OS, and the cache hierarchy.
type Machine struct {
	Regs [isa.NumRegs]uint64
	PC   uint64

	AS   *kernel.AddressSpace
	Kern *kernel.Kernel
	HFI  *hfi.State
	Hier *mem.Hierarchy

	// progs holds loaded code images sorted by base address.
	progs []*isa.Program

	// Cycles is the cumulative cycle count across runs (the engines add
	// to it). Rdtsc reads it.
	Cycles uint64

	// Instret counts retired instructions.
	Instret uint64

	// LastExitPC is the instruction after the most recent redirected
	// syscall or handled hfi_exit — the address a trusted runtime resumes
	// the sandbox at after servicing the exit.
	LastExitPC uint64

	// HostcallFn is the host-call dispatcher a trusted runtime installs
	// before running guest code that uses the hostcall gate: the guest
	// places the hostcall number in R0 and arguments in R1-R5, and the
	// dispatcher writes the result (or negated errno) back into R0. The
	// host side is responsible for its own marshalling checks and for
	// charging simulated time on the kernel clock. Executing hostcall with
	// no dispatcher installed raises a privilege fault — a sandbox cannot
	// reach a host that never offered it an interface.
	HostcallFn func(regs *[isa.NumRegs]uint64)

	// MemHook, when non-nil, observes every data access performed
	// architecturally — loads, stores, and the implicit stack push/pop of
	// call and ret — after the checks guarding it have passed. Both the
	// interpreter and the tiered engine's fused runner call it, at the
	// same point and in the same program order, so the stream is
	// engine-independent. The mutation harness uses it as an escape
	// oracle: a hook that sees an address outside the regions a sandbox
	// owns has caught a containment failure. The pipelined Core does not
	// call it; wrong-path accesses would make the stream ill-defined.
	MemHook func(pc, addr uint64, size uint8, write bool)

	// Fetch code cache: the program containing the most recent fetch.
	// ccInstrs aliases that program's (immutable once loaded) instruction
	// slice, so a hit costs one range check and an index instead of a
	// binary search plus a Program.At call. Cleared whenever the program
	// list changes (LoadProgram/LoadPrelinked/Reset).
	ccBase   uint64
	ccLimit  uint64
	ccInstrs []isa.Instr
	lastProg int // index of the program fetchAt last hit

	// dtc is a small direct-mapped data-translation cache, indexed by OS page
	// number, each entry summarizing the combined HFI + MMU decision for one
	// page. Both engines consult it: the interpreter's load/store fast path
	// and the tiered engine's checked loads and stores (a miss there bails
	// to the interpreter, whose slow path faults or fills the slot). More
	// than one slot keeps code that alternates between an input and an
	// output page from thrashing. Validity is gen-tagged against both
	// sources of truth, so any HFI state write (enter/exit/region
	// update/fault/xrstor) or mapping change (mmap/mprotect/munmap)
	// invalidates every slot without the mutating code knowing the cache
	// exists.
	dtc [DTCSlots]dtcEntry

	// epc is the exec-side counterpart: the HFI code-region decision for
	// the last fetched page, consulted by the interpreter only while HFI
	// is enabled (fetch legality outside HFI comes from the program list,
	// not the MMU). HFI state is the decision's only input, so the entry
	// carries just the HFI generation tag.
	epc epcEntry

	// FactElisions counts dynamic checks the tiered engine skipped on the
	// strength of a verifier fact (not part of the architectural state;
	// benchmarks read it).
	FactElisions uint64
}

// DTCSlots is the number of data-translation cache slots (a power of two).
const DTCSlots = 4

// dtcEntry caches the access decision for every access wholly inside one OS
// page. It is only filled when that decision is page-uniform: the same HFI
// first-match outcome and VMA protection apply to every byte of the page
// (see hfi.State.DataPageDecision; VMAs are OS-page aligned, so their side
// is uniform by construction).
type dtcEntry struct {
	page    uint64
	readOK  bool
	writeOK bool
	valid   bool
	hfiGen  uint64 // hfi.State.Gen at fill time
	mapGen  uint64 // kernel.AddressSpace.Gen at fill time
}

// epcEntry caches the CheckExec outcome for one OS page, filled only when
// the decision is page-uniform (hfi.State.ExecPageDecision).
type epcEntry struct {
	page   uint64
	exec   bool
	valid  bool
	hfiGen uint64
}

// NewMachine wires up a machine with a fresh address space, kernel, HFI
// state and cache hierarchy sharing one clock.
func NewMachine() *Machine {
	clock := kernel.NewClock()
	as := kernel.NewAddressSpace()
	k := kernel.New(clock)
	hier := mem.NewHierarchy()
	k.TLB = hier.DTB
	return &Machine{AS: as, Kern: k, HFI: hfi.NewState(), Hier: hier}
}

// LoadProgram registers a code image and maps its address range
// read+execute. Programs must not overlap.
func (m *Machine) LoadProgram(p *isa.Program) error {
	for _, q := range m.progs {
		if p.Base < q.End() && q.Base < p.End() {
			return fmt.Errorf("cpu: program at [%#x,%#x) overlaps [%#x,%#x)", p.Base, p.End(), q.Base, q.End())
		}
	}
	if err := m.AS.MapFixed(p.Base&^uint64(kernel.OSPageSize-1),
		p.Size()+p.Base%kernel.OSPageSize, kernel.ProtRead|kernel.ProtExec); err != nil {
		return err
	}
	m.progs = append(m.progs, p)
	sort.Slice(m.progs, func(i, j int) bool { return m.progs[i].Base < m.progs[j].Base })
	m.invalidateFetchCache()
	return nil
}

// LoadPrelinked registers a code image whose address range the caller has
// already mapped executable (e.g. inside an aligned code block shared with
// a springboard).
func (m *Machine) LoadPrelinked(p *isa.Program) error {
	for _, q := range m.progs {
		if p.Base < q.End() && q.Base < p.End() {
			return fmt.Errorf("cpu: program at [%#x,%#x) overlaps [%#x,%#x)", p.Base, p.End(), q.Base, q.End())
		}
	}
	m.progs = append(m.progs, p)
	sort.Slice(m.progs, func(i, j int) bool { return m.progs[i].Base < m.progs[j].Base })
	m.invalidateFetchCache()
	return nil
}

// MustLoadProgram is LoadProgram for setup code where failure is a bug.
func (m *Machine) MustLoadProgram(p *isa.Program) {
	if err := m.LoadProgram(p); err != nil {
		panic(err)
	}
}

// FetchInstr returns the instruction at pc, or nil if pc is not inside any
// loaded program. Fetches are heavily local (straight-line code, loops), so
// the common case indexes directly into the last program's instruction
// slice; only a program switch pays the binary search.
func (m *Machine) FetchInstr(pc uint64) *isa.Instr {
	if pc >= m.ccBase && pc < m.ccLimit {
		off := pc - m.ccBase
		if off%isa.InstrBytes != 0 {
			return nil
		}
		return &m.ccInstrs[off/isa.InstrBytes]
	}
	in := m.fetchAt(pc)
	if in != nil {
		// fetchAt found the program; cache it for subsequent fetches.
		p := m.progs[m.lastProg]
		m.ccBase, m.ccLimit, m.ccInstrs = p.Base, p.End(), p.Instrs
	}
	return in
}

// fetchAt is the uncached fetch: a binary search over the sorted program
// list. The interpreter's NoFastPath mode uses it directly so differential
// tests exercise the pre-cache behaviour.
func (m *Machine) fetchAt(pc uint64) *isa.Instr {
	i := sort.Search(len(m.progs), func(i int) bool { return m.progs[i].End() > pc })
	if i == len(m.progs) || pc < m.progs[i].Base {
		return nil
	}
	m.lastProg = i
	return m.progs[i].At(pc)
}

// invalidateFetchCache drops the fetch code cache; callers mutate m.progs.
func (m *Machine) invalidateFetchCache() {
	m.ccBase, m.ccLimit, m.ccInstrs = 0, 0, nil
	m.lastProg = 0
}

// FlushDTC invalidates the decision caches (every data-translation slot
// and the exec-permission cache). Generation tags already catch HFI and
// mapping changes; this exists for state changes outside those, i.e.
// swapping the whole machine between guests (Reset).
func (m *Machine) FlushDTC() {
	m.dtc = [DTCSlots]dtcEntry{}
	m.epc = epcEntry{}
}

// epcHit reports whether the cached exec decision covers and permits a fetch
// at pc. A denied or uncovered fetch returns false and takes the full
// CheckExec path, which raises the architectural fault.
func (m *Machine) epcHit(pc uint64) bool {
	e := &m.epc
	if !e.valid || e.hfiGen != m.HFI.Gen {
		e.valid = false
		return false
	}
	if pc&^uint64(kernel.OSPageSize-1) != e.page {
		return false
	}
	return e.exec
}

// epcFill recomputes the exec decision for pc's OS page after a slow-path
// CheckExec pass; installed only when uniform across the page.
func (m *Machine) epcFill(pc uint64) {
	page := pc &^ uint64(kernel.OSPageSize-1)
	ok, uniform := m.HFI.ExecPageDecision(page, kernel.OSPageSize)
	if !uniform {
		m.epc.valid = false
		return
	}
	m.epc = epcEntry{page: page, exec: ok, valid: true, hfiGen: m.HFI.Gen}
}

// dtcSlot returns the slot addr's OS page maps to.
func (m *Machine) dtcSlot(addr uint64) *dtcEntry {
	return &m.dtc[(addr>>kernel.OSPageBits)&(DTCSlots-1)]
}

// DTCHit reports whether the cached page decision covers and permits this
// access: generations current, same page, no page straddle, and the cached
// permission allows it. Denied or uncovered accesses return false and take
// the full CheckData/checkMMU path, which raises the architectural fault.
// It is the one lookup both engines make: the interpreter's load/store fast
// path and the tiered engine's checked loads and stores, which bail to the
// interpreter on a miss. Small enough to inline into both.
func (m *Machine) DTCHit(addr uint64, size uint8, write bool) bool {
	d := m.dtcSlot(addr)
	if !d.valid || d.hfiGen != m.HFI.Gen || d.mapGen != m.AS.Gen() {
		d.valid = false
		return false
	}
	off := addr & (kernel.OSPageSize - 1)
	if addr-off != d.page || off+uint64(size) > kernel.OSPageSize {
		return false
	}
	if write {
		return d.writeOK
	}
	return d.readOK
}

// dtcFill recomputes the decision for addr's OS page after a slow-path
// check. The entry is only installed when the decision is uniform across
// the page: the first-matching HFI region (if any) contains the whole page
// — partial overlaps are not summarizable under first-match semantics —
// and the VMA protection covers it (always true: VMAs are OS-page aligned).
func (m *Machine) dtcFill(addr uint64) {
	page := addr &^ uint64(kernel.OSPageSize-1)
	d := m.dtcSlot(addr)
	r, w, uniform := m.HFI.DataPageDecision(page, kernel.OSPageSize)
	if !uniform {
		d.valid = false
		return
	}
	prot, mapped := m.AS.Prot(page)
	*d = dtcEntry{
		page:    page,
		readOK:  r && mapped && prot&kernel.ProtRead != 0,
		writeOK: w && mapped && prot&kernel.ProtWrite != 0,
		valid:   true,
		hfiGen:  m.HFI.Gen,
		mapGen:  m.AS.Gen(),
	}
}

// Mem returns the backing memory (convenience).
func (m *Machine) Mem() *mem.Memory { return m.AS.Mem }

// Reset clears registers and counters but keeps loaded programs, memory
// contents, and kernel state. It also drops the fetch code cache and the
// data-translation cache: Reset is the context-switch point where a machine
// is handed to a different guest, and stale cached decisions must not leak
// across that boundary.
func (m *Machine) Reset() {
	m.Regs = [isa.NumRegs]uint64{}
	m.PC = 0
	m.Cycles = 0
	m.Instret = 0
	m.invalidateFetchCache()
	m.FlushDTC()
}

// raiseFault routes a fault through the OS signal path: HFI has already
// disabled the sandbox and recorded the MSR (for HFI faults); the kernel
// delivers a SIGSEGV-like signal to the runtime's registered handler,
// which may return a resume PC.
func (m *Machine) raiseFault(pc uint64, addr uint64, f *hfi.Fault) (resume uint64) {
	info := kernel.SigInfo{Addr: addr, PC: pc}
	if f != nil {
		info.HFIReason = f.Reason
		info.HFIInfo = addr
	}
	return m.Kern.DeliverSignal(info)
}
