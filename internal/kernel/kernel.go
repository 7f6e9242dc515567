package kernel

import (
	"hfi/internal/hfi"
	"hfi/internal/isa"
	"hfi/internal/mem"
)

// Guest syscall numbers. The guest places the number in R0 and arguments
// in R1-R5; the result (or negative errno) returns in R0.
const (
	SysExit     = 0
	SysWrite    = 1
	SysRead     = 2
	SysOpen     = 3
	SysClose    = 4
	SysMmap     = 5
	SysMprotect = 6
	SysMunmap   = 7
	SysMadvise  = 8
	SysGetTime  = 9
	SysYield    = 10

	// NumSyscalls bounds the syscall table for filters.
	NumSyscalls = 11
)

// Errno values returned (negated) in R0.
const (
	ENOENT = 2
	EIO    = 5
	EBADF  = 9
	EAGAIN = 11
	ENOMEM = 12
	EACCES = 13
	EFAULT = 14
	EINVAL = 22
	ENOSYS = 38
	EDQUOT = 122
)

// Filter is the syscall-interposition hook: the seccomp-bpf baseline
// implements it. Check returns whether the syscall may proceed and the
// simulated evaluation cost in nanoseconds.
type Filter interface {
	Check(sysno uint64, args [5]uint64) (allow bool, costNs uint64)
}

// SigInfo describes a delivered signal, mirroring what a SIGSEGV handler
// would learn plus the HFI MSR contents (§3.3.2: "The signal handler can
// examine the MSR to disambiguate the cause").
type SigInfo struct {
	Addr      uint64
	PC        uint64
	HFIReason hfi.ExitReason
	HFIInfo   uint64
}

// SignalHandler is a host-side handler registered by a trusted runtime.
// It returns the address execution should resume at (0 halts the machine).
type SignalHandler func(info SigInfo) (resumePC uint64)

type openFile struct {
	name string
	data []byte
	off  int
}

// Kernel is the simulated OS. One Kernel serves one simulated machine; it
// owns the virtual file system, syscall dispatch, the cost model, and the
// signal path.
type Kernel struct {
	Clock *Clock
	Costs CostModel

	// Multicore adds TLB-shootdown IPI costs to operations that
	// invalidate translations, modeling the concurrent FaaS environment
	// of §6.3.
	Multicore bool

	// TLB, when set, is invalidated by unmap/protect/madvise operations.
	TLB *mem.TLB

	// FS is the virtual file system.
	FS map[string][]byte

	fds    map[int]*openFile
	nextFD int

	// Filter, when set, interposes on every syscall (seccomp-bpf).
	Filter Filter

	// Sigsegv is the registered SIGSEGV handler.
	Sigsegv SignalHandler

	// ConsoleOut accumulates SysWrite output to fd 1.
	ConsoleOut []byte

	// SyscallCount counts dispatched syscalls by number.
	SyscallCount [NumSyscalls]uint64

	// ExitStatus is set by SysExit.
	ExitStatus uint64
	Exited     bool
}

// New returns a kernel with the default cost model and an empty file
// system, sharing the given clock.
func New(clock *Clock) *Kernel {
	return &Kernel{
		Clock:  clock,
		Costs:  DefaultCosts(),
		FS:     make(map[string][]byte),
		fds:    make(map[int]*openFile),
		nextFD: 3,
	}
}

func (k *Kernel) shootdown() {
	if k.TLB != nil {
		k.TLB.InvalidateAll()
	}
	if k.Multicore {
		k.Clock.Advance(k.Costs.TLBShootdown)
	}
}

// Mmap reserves length bytes with the given protection, charging costs.
func (k *Kernel) Mmap(as *AddressSpace, length uint64, prot Prot) (uint64, error) {
	k.Clock.Advance(k.Costs.SyscallBase + k.Costs.MmapReserve)
	return as.Map(length, prot)
}

// Mprotect changes protections, charging the calibrated cost.
func (k *Kernel) Mprotect(as *AddressSpace, addr, length uint64, prot Prot) error {
	pages, err := as.Protect(addr, length, prot)
	cost := k.Costs.SyscallBase + k.Costs.MprotectBase + pages*k.Costs.MprotectPerPage
	k.Clock.Advance(cost)
	if err == nil {
		k.shootdown()
	}
	return err
}

// Munmap removes a mapping, charging costs including the shootdown.
func (k *Kernel) Munmap(as *AddressSpace, addr, length uint64) error {
	pages, err := as.Unmap(addr, length)
	k.Clock.Advance(k.Costs.SyscallBase + k.Costs.MunmapBase + pages*k.Costs.MunmapPerPage)
	if err == nil {
		k.shootdown()
	}
	return err
}

// Madvise discards [addr, addr+length) (MADV_DONTNEED semantics). The
// guardBytes parameter is the amount of PROT_NONE reservation included in
// the range; the kernel walks those VMAs even though nothing is resident
// (see GuardWalkPerGiB).
func (k *Kernel) Madvise(as *AddressSpace, addr, length uint64) {
	resident := as.Discard(addr, length)
	// The kernel walks the PROT_NONE VMAs in the range even though nothing
	// is resident there.
	guardBytes := as.ProtNoneBytesIn(addr, length)
	cost := k.Costs.SyscallBase + k.Costs.MadviseBase +
		resident*k.Costs.MadvisePerResidentPage +
		guardBytes/(1<<30)*GuardWalkPerGiB
	k.Clock.Advance(cost)
	k.shootdown()
}

// DeliverSignal invokes the registered SIGSEGV handler, charging the
// delivery cost, and returns the resume PC (0 if unhandled).
func (k *Kernel) DeliverSignal(info SigInfo) uint64 {
	k.Clock.Advance(k.Costs.SignalDeliver)
	if k.Sigsegv == nil {
		return 0
	}
	return k.Sigsegv(info)
}

// Syscall dispatches a guest system call. regs is the architectural
// register file; as the caller's address space. The caller (the execution
// engine) has already applied HFI's interposition rules — by the time the
// kernel sees a syscall it is architecturally allowed to proceed.
func (k *Kernel) Syscall(as *AddressSpace, regs *[isa.NumRegs]uint64) {
	sysno := regs[isa.R0]
	args := [5]uint64{regs[isa.R1], regs[isa.R2], regs[isa.R3], regs[isa.R4], regs[isa.R5]}

	if k.Filter != nil {
		allow, cost := k.Filter.Check(sysno, args)
		k.Clock.Advance(cost)
		if !allow {
			regs[isa.R0] = negErrno(EACCES)
			return
		}
	}
	k.Clock.Advance(k.Costs.SyscallBase)
	if sysno < NumSyscalls {
		k.SyscallCount[sysno]++
	}

	switch sysno {
	case SysExit:
		k.Exited = true
		k.ExitStatus = args[0]
	case SysWrite:
		regs[isa.R0] = k.sysWrite(as, args)
	case SysRead:
		regs[isa.R0] = k.sysRead(as, args)
	case SysOpen:
		regs[isa.R0] = k.sysOpen(as, args)
	case SysClose:
		regs[isa.R0] = k.sysClose(args)
	case SysMmap:
		addr, err := k.mmapNoCharge(as, args[0], Prot(args[1]))
		if err != nil {
			regs[isa.R0] = negErrno(ENOMEM)
		} else {
			regs[isa.R0] = addr
		}
	case SysMprotect:
		pages, err := as.Protect(args[0], args[1], Prot(args[2]))
		k.Clock.Advance(k.Costs.MprotectBase + pages*k.Costs.MprotectPerPage)
		if err != nil {
			regs[isa.R0] = negErrno(EINVAL)
		} else {
			k.shootdown()
			regs[isa.R0] = 0
		}
	case SysMunmap:
		pages, err := as.Unmap(args[0], args[1])
		k.Clock.Advance(k.Costs.MunmapBase + pages*k.Costs.MunmapPerPage)
		if err != nil {
			regs[isa.R0] = negErrno(EINVAL)
		} else {
			k.shootdown()
			regs[isa.R0] = 0
		}
	case SysMadvise:
		resident := as.Discard(args[0], args[1])
		k.Clock.Advance(k.Costs.MadviseBase + resident*k.Costs.MadvisePerResidentPage)
		k.shootdown()
		regs[isa.R0] = 0
	case SysGetTime:
		regs[isa.R0] = k.Clock.Now()
	case SysYield:
		regs[isa.R0] = 0
	default:
		regs[isa.R0] = negErrno(ENOSYS)
	}
}

func (k *Kernel) mmapNoCharge(as *AddressSpace, length uint64, prot Prot) (uint64, error) {
	k.Clock.Advance(k.Costs.MmapReserve)
	return as.Map(length, prot)
}

func negErrno(e uint64) uint64 { return -e & (1<<64 - 1) }

func (k *Kernel) sysOpen(as *AddressSpace, args [5]uint64) uint64 {
	k.Clock.Advance(k.Costs.FileOp)
	name := make([]byte, args[1])
	as.Mem.ReadBytes(args[0], name)
	data, ok := k.FS[string(name)]
	if !ok {
		return negErrno(EINVAL)
	}
	fd := k.nextFD
	k.nextFD++
	// Copy so guest reads see a stable snapshot.
	k.fds[fd] = &openFile{name: string(name), data: data}
	return uint64(fd)
}

func (k *Kernel) sysClose(args [5]uint64) uint64 {
	k.Clock.Advance(k.Costs.FileOp)
	fd := int(args[0])
	if _, ok := k.fds[fd]; !ok {
		return negErrno(EBADF)
	}
	delete(k.fds, fd)
	return 0
}

func (k *Kernel) sysRead(as *AddressSpace, args [5]uint64) uint64 {
	k.Clock.Advance(k.Costs.FileOp)
	f, ok := k.fds[int(args[0])]
	if !ok {
		return negErrno(EBADF)
	}
	n := int(args[2])
	if rem := len(f.data) - f.off; n > rem {
		n = rem
	}
	if n <= 0 {
		return 0
	}
	if !as.CheckAccess(args[1], 1, ProtWrite) {
		return negErrno(EFAULT)
	}
	as.Mem.WriteBytes(args[1], f.data[f.off:f.off+n])
	f.off += n
	return uint64(n)
}

func (k *Kernel) sysWrite(as *AddressSpace, args [5]uint64) uint64 {
	k.Clock.Advance(k.Costs.FileOp)
	fd, ptr, n := args[0], args[1], args[2]
	buf := make([]byte, n)
	as.Mem.ReadBytes(ptr, buf)
	switch fd {
	case 1, 2:
		k.ConsoleOut = append(k.ConsoleOut, buf...)
	default:
		f, ok := k.fds[int(fd)]
		if !ok {
			return negErrno(EBADF)
		}
		f.data = append(f.data, buf...)
		k.FS[f.name] = f.data
	}
	return n
}

// Process bundles the per-process state the OS saves across context
// switches: general registers, PC, and — with the save-hfi-regs xsave flag
// (§3.3.3) — the HFI register state.
type Process struct {
	Name     string
	Regs     [isa.NumRegs]uint64
	PC       uint64
	HFIState [hfi.XsaveSize]byte
	AS       *AddressSpace
}

// ContextSwitch saves the outgoing core state (including HFI via xsave)
// into old and restores new onto the core, charging the switch cost. It is
// the §3.3.3 path that lets multiple processes use HFI concurrently.
func (k *Kernel) ContextSwitch(old, next *Process, regs *[isa.NumRegs]uint64, pc *uint64, h *hfi.State) {
	k.Clock.Advance(k.Costs.ContextSwitch)
	if old != nil {
		old.Regs = *regs
		old.PC = *pc
		old.HFIState = h.Xsave()
	}
	*regs = next.Regs
	*pc = next.PC
	// The image came from Xsave of validated state (or is the zero image of
	// a fresh process), so it cannot be malformed; were it, Xrstor would
	// have faulted with HFI disabled and installed nothing.
	_ = h.Xrstor(next.HFIState[:])
	if k.TLB != nil {
		k.TLB.InvalidateAll()
	}
}

// Reset clears transient kernel state (fds, console, exit flag) between
// benchmark runs while preserving the file system.
func (k *Kernel) Reset() {
	k.fds = make(map[int]*openFile)
	k.nextFD = 3
	k.ConsoleOut = nil
	k.Exited = false
	k.ExitStatus = 0
	k.SyscallCount = [NumSyscalls]uint64{}
}
