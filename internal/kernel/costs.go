package kernel

// CostModel holds the simulated-time constants (nanoseconds) for kernel
// operations. The defaults are calibrated so the end-to-end experiments
// land near the constants the paper reports; what the benchmarks then
// measure is how different isolation designs change *how often and over
// what ranges* these operations run. Each constant cites its anchor.
type CostModel struct {
	// SyscallBase is the user->kernel->user round trip for a trivial
	// syscall (mode switch, entry/exit path). ~80ns on Skylake-era
	// hardware with mitigations.
	SyscallBase uint64

	// MmapReserve is the cost of reserving address space with
	// PROT_NONE: a VMA insertion, independent of size.
	MmapReserve uint64

	// MprotectBase and MprotectPerPage model protection changes.
	// Anchored to §6.1: growing a Wasm heap to 4 GiB in 64 KiB steps
	// (65536 mprotect calls of 16 pages each) took 10.92 s in Wasmtime,
	// i.e. ~166 us per call. Most of that is VMA manipulation and
	// locking in a large address space; we charge it as a base plus a
	// small per-page term.
	MprotectBase    uint64
	MprotectPerPage uint64

	// MunmapBase/PerPage: unmapping tears down VMAs and page tables and
	// triggers a TLB shootdown (§2: "unmapping memory incurs a TLB
	// shootdown").
	MunmapBase    uint64
	MunmapPerPage uint64

	// MadviseBase, MadvisePerResidentPage, MadvisePerRangePage model
	// madvise(MADV_DONTNEED): a fixed entry cost, a per-resident-page
	// discard cost, and a small per-page range-walk cost that makes
	// discarding huge unmapped guard regions non-free (the §6.3.1
	// "non-HFI batched" case at 31.1 us vs 23.1 us with guard pages
	// elided).
	MadviseBase            uint64
	MadvisePerResidentPage uint64
	MadvisePerRangePage    uint64

	// TLBShootdown is the IPI cost added to munmap/madvise/mprotect in
	// concurrent environments.
	TLBShootdown uint64

	// SignalDeliver is the kernel cost of delivering a signal to a
	// registered handler (HFI faults arrive this way, §3.3.2).
	SignalDeliver uint64

	// ContextSwitch is the process context-switch cost, including the
	// xsave/xrstor of extended state (§2: "orders of magnitude" more
	// than a function call; ~1-2 us on Linux).
	ContextSwitch uint64

	// FileOp is the per-call body cost of the trivial virtual
	// file-system operations (open/read/close) beyond SyscallBase.
	FileOp uint64

	// HostcallBase is the host-side cost of one hostcall dispatch beyond
	// the core's transition cost: argument decode, table lookup, and the
	// trusted function prologue. An in-process transition, so well under
	// SyscallBase — no mode switch, no kernel entry path.
	HostcallBase uint64

	// HostcallCopyPerKiB is the marshalling cost per KiB copied between
	// guest linear memory and host buffers, charged on every hostcall
	// byte in either direction so boundary-crossing data volume shows up
	// on the simulated timeline.
	HostcallCopyPerKiB uint64

	// AuditHashPerPage is the cost of scrubbing one declared 64 KiB heap
	// page during a substrate spot check (the sampled end-of-request
	// verified-reset audit). ~64 KiB at a memory-bandwidth-bound ~13 GB/s
	// scrub rate, so sampling rate — not hash speed — is the knob that
	// keeps detection affordable. It is charged per declared page, not per
	// page the host-side digest happens to visit: the model is a DRAM
	// scrub, and the sparse backing store's residency is not DRAM's.
	AuditHashPerPage uint64
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		SyscallBase:            80,
		MmapReserve:            600,
		MprotectBase:           160_000, // §6.1 heap-growth anchor
		MprotectPerPage:        400,
		MunmapBase:             1_200,
		MunmapPerPage:          120,
		MadviseBase:            1_000,
		MadvisePerResidentPage: 80,
		MadvisePerRangePage:    0, // see GuardWalk note below
		TLBShootdown:           1_500,
		SignalDeliver:          2_500,
		ContextSwitch:          1_500,
		FileOp:                 250,
		HostcallBase:           25,
		HostcallCopyPerKiB:     40,
		AuditHashPerPage:       4_800,
	}
}

// GuardWalkPerGiB is the extra madvise cost per GiB of PROT_NONE guard
// region included in a discarded range: the kernel still walks and splits
// the VMAs covering the reservation. Calibrated from §6.3.1: batching
// without eliding guard pages cost 31.1 us/sandbox vs 23.1 us with guards
// elided — i.e. ~8 us for the 8 GiB of guard+heap reservation per sandbox.
const GuardWalkPerGiB = 1_000
