// Package hfi models the Hardware-assisted Fault Isolation ISA extension —
// the paper's primary contribution (§3, §4, appendix A.1).
//
// The package is the "hardware": a per-core register file of region
// descriptors plus the configuration, exit-handler and exit-reason (MSR)
// registers, together with the checking logic that the execution engines in
// internal/cpu invoke on every memory access, instruction fetch, and system
// call while HFI mode is enabled.
//
// Regions come in two families:
//
//   - Implicit regions apply to every ordinary load/store (data regions) or
//     instruction fetch (code regions). They are power-of-two sized and
//     aligned and are checked by prefix matching: (addr &^ lsbMask) ==
//     basePrefix, a masked equality the hardware implements with an AND gate
//     and a 64-bit comparator per region.
//
//   - Explicit regions are (base, bound) handles accessed only through the
//     hmov instructions. Large regions are 64 KiB granular and may span up
//     to 256 TiB; small regions are byte granular up to 4 GiB and must not
//     cross a 4 GiB boundary. These constraints let hardware check bounds
//     with a single 32-bit comparator plus sign/overflow bit checks (§4.2).
//
// One deviation from the paper's prose is documented here rather than
// hidden: the paper does not specify how a child sandbox's region registers
// are populated when hfi_enter runs with switch-on-exit (the parent's
// registers still hold the parent's regions at that point). We give the
// sandbox_t structure an optional regions pointer; hfi_enter microcode loads
// the child's region descriptors from memory after saving the parent bank.
// This also directly models the Fig 5 observation that HFI "must move region
// metadata from memory to HFI registers on each transition".
package hfi

import "fmt"

// Architectural region counts (§3.2: "HFI provides six implicit regions
// per-sandbox, four data regions and two code regions" plus four explicit
// regions).
const (
	NumCodeRegions     = 2
	NumDataRegions     = 4
	NumExplicitRegions = 4
	// NumRegions is the total number of region registers, addressed
	// 0-1 (code), 2-5 (implicit data), 6-9 (explicit data) as in the
	// appendix A.1 numbering.
	NumRegions = NumCodeRegions + NumDataRegions + NumExplicitRegions
)

// Region-number bases for the flat 0..NumRegions-1 numbering.
const (
	RegionCodeBase     = 0
	RegionDataBase     = NumCodeRegions
	RegionExplicitBase = NumCodeRegions + NumDataRegions
)

// Explicit-region architectural limits (§3.2, §4.2).
const (
	// LargeRegionAlign is the size/alignment granule of large explicit
	// regions (64 KiB), matching Wasm's memory.grow granularity.
	LargeRegionAlign = 1 << 16
	// LargeRegionMaxBound caps large regions at 256 TiB (2^48).
	LargeRegionMaxBound = 1 << 48
	// SmallRegionMaxBound caps small regions at 4 GiB (2^32).
	SmallRegionMaxBound = 1 << 32
)

// SerializeCycles is the modeled cost of a serialized hfi_enter/hfi_exit,
// within the paper's expected 30-60 cycle range for cpuid-like instructions.
const SerializeCycles = 40

// ImplicitRegion is a prefix-matched region register pair (base_prefix,
// lsb_mask) with permissions. Code regions use only Exec; data regions use
// Read/Write (§3.2 discriminates the two to keep pipelines simple).
type ImplicitRegion struct {
	BasePrefix uint64
	LSBMask    uint64
	Read       bool
	Write      bool
	Exec       bool
	Valid      bool
}

// Contains reports whether addr falls inside the region: the hardware
// prefix check (addr &^ LSBMask) == BasePrefix.
func (r *ImplicitRegion) Contains(addr uint64) bool {
	return r.Valid && addr&^r.LSBMask == r.BasePrefix
}

// Size returns the region size in bytes.
func (r *ImplicitRegion) Size() uint64 { return r.LSBMask + 1 }

// Validate checks the power-of-two size/alignment constraints: LSBMask must
// be of the form 2^k - 1 and BasePrefix must be aligned to the region size.
func (r *ImplicitRegion) Validate() error {
	if r.LSBMask&(r.LSBMask+1) != 0 {
		return fmt.Errorf("hfi: lsb_mask %#x is not of the form 2^k-1", r.LSBMask)
	}
	if r.BasePrefix&r.LSBMask != 0 {
		return fmt.Errorf("hfi: base_prefix %#x not aligned to region size %#x", r.BasePrefix, r.LSBMask+1)
	}
	return nil
}

// ExplicitRegion is a (base, bound) handle accessed via hmov. Bound is the
// region size in bytes; valid offsets are [0, Bound).
type ExplicitRegion struct {
	Base  uint64
	Bound uint64
	Read  bool
	Write bool
	Large bool
	Valid bool
}

// Validate checks the large/small constraints from §3.2:
// large regions are 64 KiB aligned and sized, up to 256 TiB; small regions
// are byte granular up to 4 GiB and must not span a 4 GiB boundary.
func (r *ExplicitRegion) Validate() error {
	if r.Large {
		if r.Base%LargeRegionAlign != 0 {
			return fmt.Errorf("hfi: large region base %#x not 64KiB aligned", r.Base)
		}
		if r.Bound%LargeRegionAlign != 0 {
			return fmt.Errorf("hfi: large region bound %#x not a 64KiB multiple", r.Bound)
		}
		if r.Bound > LargeRegionMaxBound {
			return fmt.Errorf("hfi: large region bound %#x exceeds 256TiB", r.Bound)
		}
		return nil
	}
	if r.Bound > SmallRegionMaxBound {
		return fmt.Errorf("hfi: small region bound %#x exceeds 4GiB", r.Bound)
	}
	if r.Bound > 0 && r.Base>>32 != (r.Base+r.Bound-1)>>32 {
		return fmt.Errorf("hfi: small region [%#x,%#x) spans a 4GiB boundary", r.Base, r.Base+r.Bound)
	}
	return nil
}

// Config is the sandbox_t parameter block of hfi_enter (appendix A.1), plus
// the regions pointer documented in the package comment.
type Config struct {
	Hybrid       bool   // is_hybrid: trusted-compiler sandbox, privileged ops allowed
	Serialized   bool   // is_serialized: serialize enter/exit against Spectre
	SwitchOnExit bool   // switch_on_exit: bank-swap extension (§4.5)
	ExitHandler  uint64 // if nonzero, interpose on hfi_exit (and syscalls in native sandboxes)
	RegionsPtr   uint64 // if nonzero, guest address of a region descriptor table loaded on enter
	RegionCount  uint64 // number of descriptors at RegionsPtr
}

// ExitReason enumerates the MSR-recorded causes of leaving (or faulting
// inside) a sandbox (§3.3.2, §4.4).
type ExitReason uint8

// Exit reasons.
const (
	ExitNone              ExitReason = iota
	ExitInstruction                  // explicit hfi_exit
	ExitSyscall                      // syscall redirected to the exit handler (native)
	FaultDataBounds                  // load/store outside every implicit data region
	FaultDataPerm                    // first-matching region lacks the permission
	FaultCodeBounds                  // instruction fetch outside code regions
	FaultExplicitBounds              // hmov effective address outside region bound
	FaultExplicitPerm                // hmov against region without permission
	FaultExplicitNegative            // hmov with negative index or displacement
	FaultExplicitOverflow            // hmov effective-address computation overflowed
	FaultExplicitInvalid             // hmov against an invalid (cleared) region
	FaultPrivileged                  // privileged operation in a native sandbox
	FaultBadConfig                   // malformed region descriptor or sandbox_t
)

var exitReasonNames = [...]string{
	"none", "hfi_exit", "syscall",
	"data-bounds", "data-perm", "code-bounds",
	"explicit-bounds", "explicit-perm", "explicit-negative",
	"explicit-overflow", "explicit-invalid", "privileged", "bad-config",
}

func (r ExitReason) String() string {
	if int(r) < len(exitReasonNames) {
		return exitReasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// IsFault reports whether the reason is a fault (delivered as a hardware
// trap / signal) rather than a voluntary exit.
func (r ExitReason) IsFault() bool { return r >= FaultDataBounds }

// Fault describes a failed HFI check. Faults atomically disable the sandbox
// and are delivered by the OS as a signal to the trusted runtime, which can
// read the MSR to disambiguate the cause (§3.3.2).
type Fault struct {
	Reason ExitReason
	Addr   uint64 // faulting effective address (or PC for code faults)
	Write  bool
}

func (f *Fault) Error() string {
	rw := "read"
	if f.Write {
		rw = "write"
	}
	return fmt.Sprintf("hfi fault: %s at %#x (%s)", f.Reason, f.Addr, rw)
}

// Bank is one complete set of HFI metadata registers: 10 regions at 2
// registers each, the exit handler register, and the configuration register
// — the paper's 22 internal 64-bit registers. The switch-on-exit extension
// doubles this to two banks.
type Bank struct {
	Code [NumCodeRegions]ImplicitRegion
	Data [NumDataRegions]ImplicitRegion
	Expl [NumExplicitRegions]ExplicitRegion
	Cfg  Config
}

// State is the per-core HFI architectural state.
type State struct {
	Enabled bool
	Bank    Bank

	// Gen counts state transitions that can change the outcome of a data
	// access check: enter/exit/reenter, region writes, xrstor, faults, and
	// reset. Execution engines that cache access decisions (the
	// machine's data-translation cache) tag each cached entry
	// with the Gen it was derived under and treat any mismatch as a flush,
	// so no transition can leave a stale positive decision live.
	// AuditTag is the corresponding cross-audit: a tag ahead of Gen is
	// impossible state, the residue a suppressed invalidation leaves.
	Gen uint64

	// MSR holds the cause of the last exit or fault, readable by the
	// trusted runtime's exit handler or signal handler.
	MSR     ExitReason
	MSRInfo uint64 // syscall number or faulting address

	// saved is the second register bank used by switch-on-exit: it holds
	// the trusted runtime's sandbox while a child runs.
	saved      Bank
	savedValid bool

	// last remembers the most recently exited sandbox for hfi_reenter.
	last      Bank
	lastValid bool

	// Metrics.
	ChecksData    uint64
	ChecksCode    uint64
	ChecksExpl    uint64
	Faults        uint64
	Enters        uint64
	Exits         uint64
	RegionUpdates uint64
}

// NewState returns HFI state with the extension present but disabled.
func NewState() *State { return &State{} }

// Reset returns the state to power-on: disabled, all regions invalid. Gen
// keeps advancing across resets so cached decisions from before the reset
// can never alias a post-reset generation.
func (s *State) Reset() {
	gen := s.Gen
	*s = State{}
	s.Gen = gen + 1
}

// AuditTag reports whether a cached generation tag could legitimately have
// been issued by this state. Tags are copies of Gen taken at cache-fill
// time and Gen is monotone, so a tag from the future (tag > Gen) is
// impossible in a correct system: it is the signature left behind when an
// invalidation was suppressed and a cached decision claims a freshness HFI
// never granted. The substrate cross-audits use this to turn a
// stale-translation plant into a typed fault instead of a silent wrong
// answer.
func (s *State) AuditTag(tag uint64) bool { return tag <= s.Gen }

// regionKind classifies a flat region number.
func regionKind(n int) (kind string, idx int, err error) {
	switch {
	case n >= RegionCodeBase && n < RegionCodeBase+NumCodeRegions:
		return "code", n - RegionCodeBase, nil
	case n >= RegionDataBase && n < RegionDataBase+NumDataRegions:
		return "data", n - RegionDataBase, nil
	case n >= RegionExplicitBase && n < RegionExplicitBase+NumExplicitRegions:
		return "explicit", n - RegionExplicitBase, nil
	}
	return "", 0, fmt.Errorf("hfi: region number %d out of range [0,%d)", n, NumRegions)
}

// regionsLocked reports whether region registers are currently immutable:
// native sandboxes lock all region registers from hfi_enter until exit
// (§3.3.1).
func (s *State) regionsLocked() bool { return s.Enabled && !s.Bank.Cfg.Hybrid }

// SetCodeRegion programs implicit code region idx. Returns a privilege
// fault if regions are locked, or a bad-config fault for invalid geometry.
func (s *State) SetCodeRegion(idx int, r ImplicitRegion) *Fault {
	if s.regionsLocked() {
		return s.fault(FaultPrivileged, 0, false)
	}
	if idx < 0 || idx >= NumCodeRegions {
		return s.fault(FaultBadConfig, 0, false)
	}
	if err := r.Validate(); err != nil {
		return s.fault(FaultBadConfig, r.BasePrefix, false)
	}
	r.Valid = true
	r.Read, r.Write = false, false // code regions carry only Exec
	s.Bank.Code[idx] = r
	s.RegionUpdates++
	s.Gen++
	return nil
}

// SetDataRegion programs implicit data region idx.
func (s *State) SetDataRegion(idx int, r ImplicitRegion) *Fault {
	if s.regionsLocked() {
		return s.fault(FaultPrivileged, 0, false)
	}
	if idx < 0 || idx >= NumDataRegions {
		return s.fault(FaultBadConfig, 0, false)
	}
	if err := r.Validate(); err != nil {
		return s.fault(FaultBadConfig, r.BasePrefix, false)
	}
	r.Valid = true
	r.Exec = false // data regions never grant execute
	s.Bank.Data[idx] = r
	s.RegionUpdates++
	s.Gen++
	return nil
}

// SetExplicitRegion programs explicit region idx.
func (s *State) SetExplicitRegion(idx int, r ExplicitRegion) *Fault {
	if s.regionsLocked() {
		return s.fault(FaultPrivileged, 0, false)
	}
	if idx < 0 || idx >= NumExplicitRegions {
		return s.fault(FaultBadConfig, 0, false)
	}
	if err := r.Validate(); err != nil {
		return s.fault(FaultBadConfig, r.Base, false)
	}
	r.Valid = true
	s.Bank.Expl[idx] = r
	s.RegionUpdates++
	s.Gen++
	return nil
}

// ClearRegion invalidates region n (flat numbering).
func (s *State) ClearRegion(n int) *Fault {
	if s.regionsLocked() {
		return s.fault(FaultPrivileged, 0, false)
	}
	kind, idx, err := regionKind(n)
	if err != nil {
		return s.fault(FaultBadConfig, 0, false)
	}
	switch kind {
	case "code":
		s.Bank.Code[idx] = ImplicitRegion{}
	case "data":
		s.Bank.Data[idx] = ImplicitRegion{}
	case "explicit":
		s.Bank.Expl[idx] = ExplicitRegion{}
	}
	s.RegionUpdates++
	s.Gen++
	return nil
}

// ClearAllRegions invalidates every region register.
func (s *State) ClearAllRegions() *Fault {
	if s.regionsLocked() {
		return s.fault(FaultPrivileged, 0, false)
	}
	s.Bank.Code = [NumCodeRegions]ImplicitRegion{}
	s.Bank.Data = [NumDataRegions]ImplicitRegion{}
	s.Bank.Expl = [NumExplicitRegions]ExplicitRegion{}
	s.RegionUpdates++
	s.Gen++
	return nil
}

// fault records the reason in the MSR, disables the sandbox (faults always
// leave HFI mode; the OS then delivers a signal to the runtime), and
// returns the Fault for the execution engine to raise.
func (s *State) fault(reason ExitReason, addr uint64, write bool) *Fault {
	s.Faults++
	s.Gen++
	s.MSR = reason
	s.MSRInfo = addr
	if s.Enabled {
		s.last = s.Bank
		s.lastValid = true
		s.Enabled = false
		s.savedValid = false
	}
	return &Fault{Reason: reason, Addr: addr, Write: write}
}
