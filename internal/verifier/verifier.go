// Package verifier statically proves that a compiled isa.Program cannot
// escape its sandbox under the isolation scheme it was compiled for — a
// VeriWasm-style check run after compilation instead of trusting the
// compiler (§4 of the paper: the security model assumes every sandbox
// memory access is mediated; this package discharges that assumption).
//
// Verification runs three passes:
//
//  1. structural well-formedness (isa.Program.Validate: opcodes,
//     register fields, sizes, branch targets, no fall-through off the end);
//  2. CFG construction per function, with indirect-branch targets
//     over-approximated by the address-taken set;
//  3. forward abstract interpretation over per-register intervals with
//     stack-symbol provenance (see domain.go), checking a scheme-specific
//     policy at every memory access, privileged instruction, and write to
//     a reserved register.
//
// The analysis is sound but incomplete: every admitted program is safe
// (its data accesses stay within the windows the runtime reserved for the
// sandbox, its control flow stays inside the program, and it executes no
// privileged instruction outside the per-scheme allowlist), while a
// rejected program is merely unprovable. internal/wasm runs the verifier
// as a post-compile gate, so the compiler's output is continuously proven
// rather than assumed; the mutation harness (internal/mutation) checks
// the other direction, that single-instruction corruptions of that
// output are caught.
package verifier

import (
	"fmt"
	"strings"

	"hfi/internal/isa"
	"hfi/internal/sfi"
)

// Config describes the sandbox geometry a program was compiled against:
// the address windows the runtime reserves and the trusted cells inside
// the global area. All proofs are relative to these numbers; the wasm
// compiler fills them from the same Layout the runtime maps.
type Config struct {
	Scheme sfi.Scheme

	// EntrySym is the program entry label (default "__start", falling
	// back to the first instruction). TrapSym is the shared trap tail
	// that out-of-line checks jump to (default "__trap"); it is the only
	// legal cross-function jump target.
	EntrySym string
	TrapSym  string

	// Heap geometry. Accesses to linear memory must provably land inside
	// [HeapBase, HeapBase+HeapReservation): the window the runtime
	// actually reserves for this scheme (sfi.Scheme.HeapReservation).
	HeapBase        uint64
	InitBytes       uint64
	MaxBytes        uint64
	MaxPages        uint64
	HeapReservation uint64

	// Stack geometry. StackGuard is the PROT_NONE region directly below
	// StackBase; verified frame accesses stay within StackGuard of the
	// frame's entry SP, so the deepest possible miss still faults in the
	// guard instead of escaping.
	StackBase  uint64
	StackTop   uint64
	StackGuard uint64

	// Global area. Stores are only admitted to the trusted cells below;
	// loads of known cells return their invariant values.
	GlobalBase   uint64
	GlobalSize   uint64
	CurPagesAddr uint64 // current-page-count cell; invariant [0, MaxPages]
	HeapBaseCell uint64 // cell holding HeapBase (0 = absent)
	StagingAddr  uint64 // HFI grow staging region_t (0 = absent)

	// NullPage admits the trap stub's deliberate null dereference: a
	// load at exactly address zero, inside [0, NullPage), which the
	// runtime never maps. Nothing else in low memory is admitted. 0
	// disables the window.
	NullPage uint64

	// ExtraMems describes additional linear memories (index 1..N-1).
	ExtraMems []ExtraMem

	// NumMems is 1 + len(ExtraMems); hld/hst region operands must be
	// below it. HeapRegionFlat is the flat HFI region number of the heap
	// explicit region (for hfi_get_region/hfi_set_region admission).
	NumMems        int
	HeapRegionFlat int

	// Syscall policy for the guard-page schemes: only mprotect, and only
	// over the heap reservation, is admitted (the grow path).
	MprotectNum uint64
	ProtRW      uint64

	// Hostcall gate policy. HostcallGateSym names the designated call
	// gate (conventionally "__hostcall"): the only instruction sequence
	// through which guest code may execute a hostcall, enterable only by
	// a direct call. Empty disables hostcalls entirely — any hostcall
	// instruction is then a privileged-op violation. NumHostcalls bounds
	// the registered table, and HostcallSigs (indexed by number) drives
	// the per-call-site marshalling proofs: pointer and length arguments
	// must provably be linear-memory offsets inside the sandbox heap.
	HostcallGateSym string
	NumHostcalls    uint64
	HostcallSigs    []HostcallSig
}

// HostcallArg classifies one hostcall argument register for the
// call-site proof.
type HostcallArg uint8

// Hostcall argument kinds. A HcArgLen directly following a HcArgPtr is
// that pointer's byte count; the pair must provably stay inside the heap.
const (
	HcArgNone HostcallArg = iota // unused slot
	HcArgVal                     // plain scalar, no proof obligation
	HcArgPtr                     // linear-memory offset of a buffer
	HcArgLen                     // byte count (of the preceding HcArgPtr)
)

// HostcallSig is the verifier-facing shape of one registered hostcall:
// its name (for diagnostics) and the kind of each argument register
// R1..R5.
type HostcallSig struct {
	Name string
	Args [5]HostcallArg
}

// ExtraMem is the geometry of one additional linear memory: its context
// record in the global area (base at +0, bound or mask at +8) and the
// window the runtime reserves for it.
type ExtraMem struct {
	CtxAddr     uint64
	Base        uint64
	Bytes       uint64
	Reservation uint64
	// BoundVal is the invariant value of the bound/mask cell at CtxAddr+8
	// (bytes for bounds-checking, bytes-1 for masking).
	BoundVal uint64
}

// Violation is one provable-safety failure, locatable in a disassembly.
type Violation struct {
	Rule   string // short rule identifier, e.g. "mem-window", "privileged-op"
	Index  int    // instruction index (-1: whole program)
	Addr   uint64 // instruction address
	Instr  string // disassembly of the instruction
	Detail string
}

func (v *Violation) Error() string {
	if v.Index < 0 {
		return fmt.Sprintf("%s: %s", v.Rule, v.Detail)
	}
	return fmt.Sprintf("%s at instr %d (%#x: %s): %s", v.Rule, v.Index, v.Addr, v.Instr, v.Detail)
}

// RejectError is the typed verification failure: every violation found,
// most useful first. faas/host admission unwraps to it with errors.As.
type RejectError struct {
	Scheme     sfi.Scheme
	Violations []*Violation
}

func (e *RejectError) Error() string {
	if len(e.Violations) == 1 {
		return fmt.Sprintf("verifier(%v): %v", e.Scheme, e.Violations[0])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verifier(%v): %d violations:", e.Scheme, len(e.Violations))
	for i, v := range e.Violations {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(e.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %v", v)
	}
	return b.String()
}

// First returns the first violation (for CLI single-line reports).
func (e *RejectError) First() *Violation { return e.Violations[0] }

// Verify proves p safe under cfg, returning nil or a *RejectError.
func Verify(p *isa.Program, cfg Config) error {
	v := &verification{p: p, cfg: cfg}
	if err := p.Validate(); err != nil {
		ve := err.(*isa.ValidationError)
		v.violations = append(v.violations, &Violation{
			Rule: "structural", Index: ve.Index, Addr: ve.Addr, Instr: ve.Instr, Detail: ve.Reason,
		})
		return v.reject()
	}
	v.analyze()
	if len(v.violations) > 0 {
		return v.reject()
	}
	return nil
}

func (v *verification) reject() error {
	return &RejectError{Scheme: v.cfg.Scheme, Violations: v.violations}
}

// VerifyStructure runs only the geometry-free passes — structural
// well-formedness and CFG construction — for callers holding a raw
// program with no sandbox layout (e.g. hand-written assembly in
// cmd/hfiasm). It returns the CFG on success, or a *RejectError carrying
// the structural violation.
func VerifyStructure(p *isa.Program) (*CFG, error) {
	if err := p.Validate(); err != nil {
		ve := err.(*isa.ValidationError)
		return nil, &RejectError{Violations: []*Violation{{
			Rule: "structural", Index: ve.Index, Addr: ve.Addr, Instr: ve.Instr, Detail: ve.Reason,
		}}}
	}
	return BuildCFG(p), nil
}

// verification is the shared state of one Verify run.
type verification struct {
	p   *isa.Program
	cfg Config

	violations []*Violation
	seen       map[violationKey]bool

	fns       map[int]*fnAnalysis // keyed by entry instruction index
	fnWork    []int
	isLeader  []bool
	rootEntry int

	// gateIdx is the instruction index of the hostcall gate, or -1 when
	// the program has none (set by checkHostcallGate at analyze entry).
	gateIdx int

	// addrTaken marks the instruction indices in IndirectTargets(p): the
	// only targets an indirect branch may resolve to. Restricting resolved
	// targets to this set keeps the CFG's indirect successor edges a true
	// over-approximation of concrete control flow, which the block-level
	// facts rely on.
	addrTaken []bool

	// fc collects per-instruction observations when set (Analyze); nil
	// under plain Verify, keeping the gate path collection-free.
	fc *factsCollector
}

type violationKey struct {
	rule  string
	index int
}

func (v *verification) violate(idx int, rule, format string, args ...any) {
	if v.seen == nil {
		v.seen = make(map[violationKey]bool)
	}
	k := violationKey{rule, idx}
	if v.seen[k] {
		return
	}
	v.seen[k] = true
	viol := &Violation{Rule: rule, Index: idx, Detail: fmt.Sprintf(format, args...)}
	if idx >= 0 && idx < len(v.p.Instrs) {
		viol.Addr = v.p.Base + uint64(idx)*isa.InstrBytes
		viol.Instr = v.p.Instrs[idx].String()
	}
	v.violations = append(v.violations, viol)
}

// entryIndex resolves the program entry instruction index.
func (v *verification) entryIndex() int {
	sym := v.cfg.EntrySym
	if sym == "" {
		sym = "__start"
	}
	if a, ok := v.p.Symbols[sym]; ok {
		return int((a - v.p.Base) / isa.InstrBytes)
	}
	return 0
}

// index converts an in-range instruction address to its index.
func (v *verification) index(addr uint64) int {
	return int((addr - v.p.Base) / isa.InstrBytes)
}
