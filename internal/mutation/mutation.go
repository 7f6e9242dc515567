// Package mutation is the soundness bench for the static verifier: it
// deterministically injects single-instruction faults into compiled
// programs — drop a mask, neutralise a bounds check, widen a
// displacement, retarget a guard branch, swap hld→ld — and checks that
// every unsafe mutant is either rejected statically by
// internal/verifier or, if it slips through, demonstrably cannot escape
// its sandbox under the differential runtime (a cpu.Machine MemHook
// watches every architectural access and flags any address outside the
// regions the instance owns).
//
// The harness is the complement of the compile-time gate: the gate
// proves the verifier accepts everything the compiler emits; mutation
// proves it rejects the single-instruction neighbourhood around those
// programs, which is exactly the VeriWasm-style argument ("Automated
// Formal Verification of a Software Fault Isolation System") that a
// verifier's value is measured by what it refuses.
package mutation

import (
	"fmt"

	"hfi/internal/cpu"
	"hfi/internal/hostcall"
	"hfi/internal/isa"
	"hfi/internal/kernel"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/verifier"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// Outcome classifies one mutant.
type Outcome uint8

const (
	// KilledStatic: the verifier rejected the mutated program.
	KilledStatic Outcome = iota
	// Equivalent: the verifier accepted the mutant and the differential
	// runtime shows behaviour identical to the unmutated baseline (same
	// stop reason, same result, fully contained trace). The mutated
	// check was provably redundant — e.g. a bounds check on an index a
	// loop condition already confines — so the mutant is not unsafe and
	// is excluded from the kill-rate denominator, the standard
	// equivalent-mutant treatment in mutation testing.
	Equivalent
	// Harmless: the verifier accepted the mutant and its behaviour
	// differs from the baseline, but the differential runtime shows
	// every architectural access stayed inside the instance's own
	// regions — the scheme's residual mediation (HFI region clamp,
	// guard pages, the MMU) contained it.
	Harmless
	// Escaped: the verifier accepted the mutant AND the runtime oracle
	// saw an access outside the sandbox. A single one of these is a
	// verifier soundness bug.
	Escaped
)

func (o Outcome) String() string {
	switch o {
	case KilledStatic:
		return "killed-static"
	case Equivalent:
		return "equivalent"
	case Harmless:
		return "harmless"
	case Escaped:
		return "ESCAPED"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Result records one mutant's fate.
type Result struct {
	Workload string
	Scheme   sfi.Scheme
	Operator string
	Index    int    // instruction index in the compiled program
	Instr    string // disassembly of the mutated instruction
	Outcome  Outcome
	Detail   string // first violation (killed) or runtime summary
}

// Report aggregates a harness run.
type Report struct {
	Total      int
	Killed     int
	Equivalent int // behaviour-identical survivors (redundant checks)
	Harmless   int // behaviour-changing survivors contained at runtime
	Results    []Result
	// Escapes lists every mutant whose runtime trace left the sandbox.
	// Non-empty means the verifier is unsound; the test gate fails.
	Escapes []Result
}

// Unsafe returns the number of genuinely unsafe mutants: everything
// injected minus the equivalent ones.
func (r *Report) Unsafe() int { return r.Total - r.Equivalent }

// KillRate returns the fraction of unsafe mutants rejected statically.
func (r *Report) KillRate() float64 {
	if r.Unsafe() == 0 {
		return 1
	}
	return float64(r.Killed) / float64(r.Unsafe())
}

// siteEnv gives operators the context they need to pick sites.
type siteEnv struct {
	scheme   sfi.Scheme
	trapAddr uint64 // address of the __trap block
	progEnd  uint64

	// Hostcall boundary context (zero-valued for pure-compute programs):
	// the gate address plus the call-setup sites the pre-pass classified
	// by walking backwards from every direct call to the gate.
	gateAddr uint64
	hcNum    map[int]bool // MovImm R0 sites selecting the hostcall number
	hcLen    map[int]bool // arg-marshalling loads of a byte-count argument
}

// operator is one deterministic single-instruction fault. apply returns
// the mutated instruction and whether the operator applies at this site
// (identified by its instruction index, so boundary operators can match
// against the pre-classified hostcall sites in env).
type operator struct {
	name  string
	apply func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool)
}

// aluNop is the identity instruction used to erase a check: add r0,r0,+0
// writes R0's own value back, changing nothing.
func aluNop() isa.Instr {
	return isa.Instr{Op: isa.OpAdd, Rd: isa.R0, Rs1: isa.R0, UseImm: true}
}

// operators is the fault model: each entry removes or skews exactly the
// kind of mediation §4's security argument depends on.
var operators = []operator{
	{"drop-mask", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// Masking's AND with the mask register becomes a plain copy: the
		// index flows to the access unmasked.
		if env.scheme != sfi.Masking || in.Op != isa.OpAnd || in.UseImm || in.Rs2 != sfi.MaskReg {
			return in, false
		}
		return isa.Instr{Op: isa.OpAdd, Rd: in.Rd, Rs1: in.Rs1, UseImm: true}, true
	}},
	{"nop-check", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// A compare-and-branch guarding the trap block is erased, so the
		// access it dominated runs unconditionally.
		if in.Op != isa.OpBr || in.Target != env.trapAddr {
			return in, false
		}
		return aluNop(), true
	}},
	{"retarget-check", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// The guard branch survives but jumps one instruction past the
		// trap block, landing in whatever code follows it.
		if in.Op != isa.OpBr || in.Target != env.trapAddr {
			return in, false
		}
		if in.Target+isa.InstrBytes >= env.progEnd {
			return in, false
		}
		out := in
		out.Target += isa.InstrBytes
		return out, true
	}},
	{"widen-disp", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// The displacement grows by 8 GiB, past every reservation any
		// scheme maps.
		if in.Op != isa.OpLoad && in.Op != isa.OpStore && in.Op != isa.OpHLoad && in.Op != isa.OpHStore {
			return in, false
		}
		out := in
		out.Disp += int64(sfi.GuardReservation)
		return out, true
	}},
	{"swap-hld", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// HFI's checked hld/hst becomes a raw ld/st with the same
		// operands: the region check disappears and the index is applied
		// to base zero.
		out := in
		switch in.Op {
		case isa.OpHLoad:
			out.Op = isa.OpLoad
		case isa.OpHStore:
			out.Op = isa.OpStore
		default:
			return in, false
		}
		out.Rs1 = isa.RegNone
		return out, true
	}},
	{"hreg-skew", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// The explicit access targets the next region number, which the
		// sandbox never configured for heap traffic.
		if in.Op != isa.OpHLoad && in.Op != isa.OpHStore {
			return in, false
		}
		out := in
		out.HReg++
		return out, true
	}},
	{"clobber-base", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// An ordinary ALU result is redirected into the scheme's reserved
		// heap-base register, re-pointing every later access.
		if len(env.scheme.ReservedRegs()) == 0 {
			return in, false
		}
		switch in.Op {
		case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMovImm:
		default:
			return in, false
		}
		if in.Rd == isa.RegNone || in.Rd == sfi.HeapBaseReg {
			return in, false
		}
		out := in
		out.Rd = sfi.HeapBaseReg
		return out, true
	}},
	{"frame-escape", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// A frame-slot store is pushed below the stack guard window.
		if in.Op != isa.OpStore || in.Rs1 != sfi.FP || in.Disp >= 0 {
			return in, false
		}
		out := in
		out.Disp -= int64(sfi.StackGuard)
		return out, true
	}},

	// Hostcall-boundary operators: each removes one link in the chain of
	// proofs that makes the __hostcall gate a safe exit. Sites come from
	// the pre-pass that walks backwards from every direct call to the
	// gate (env.hcNum / env.hcLen).
	{"swap-hostcall-num", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// The provable constant selecting the host function is swapped
		// for an index past the registered table — the forged number a
		// compromised compiler could emit. The host dispatcher would
		// index out of its function table; the verifier must refuse the
		// call site (rule "hostcall").
		if !env.hcNum[idx] {
			return in, false
		}
		out := in
		out.Imm += hostcall.NumHostcalls
		return out, true
	}},
	{"corrupt-marshal-len", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// The marshalled byte-count argument is replaced with a 4 GiB
		// constant: the host-side copy would run far past the guest
		// buffer and out of linear memory. The (ptr, len) pair no longer
		// provably ends inside the heap, so the call site must be
		// rejected; if one ever slipped through, the dispatcher's
		// runtime re-check (MaxIOBytes, page tables) still contains it.
		if !env.hcLen[idx] {
			return in, false
		}
		return isa.Instr{Op: isa.OpMovImm, Rd: in.Rd,
			Rs1: isa.RegNone, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: 1 << 32}, true
	}},
	{"skip-bounds-recheck", func(in isa.Instr, idx int, env siteEnv) (isa.Instr, bool) {
		// The guest-side mask that re-bounds a dynamic hostcall result
		// (e.g. the length fd_read returned, masked before it flows back
		// into fd_write) is erased: the value reaches the next call site
		// unconstrained, so its marshalling proof must fail. Only masks
		// wide enough to be length refinements are targeted; tiny
		// selector masks (slot indices) refine values that stay provably
		// in-heap either way.
		if env.gateAddr == 0 || in.Op != isa.OpAnd || !in.UseImm ||
			in.Imm < 64 || in.Imm >= 1<<16 {
			return in, false
		}
		return isa.Instr{Op: isa.OpAdd, Rd: in.Rd, Rs1: in.Rs1, UseImm: true}, true
	}},
}

// Options configures a harness run.
type Options struct {
	// Fast trims the corpus and the per-operator site count so the run
	// fits in a CI gate; the full run sweeps the whole Sightglass suite.
	Fast bool
	// Schemes restricts the sweep; nil means all five.
	Schemes []sfi.Scheme
	// MaxSitesPerOp caps how many sites each operator mutates per
	// program (spread evenly and deterministically). 0 picks a default
	// by mode.
	MaxSitesPerOp int
	// Limit is the interpreter cycle budget per mutant run.
	Limit uint64
}

// classifyHostcallSites fills env's hostcall site maps for a program with
// a __hostcall gate. The compiler lowers every host call as a contiguous
// setup — MovImm R0, num; loads into R1..R5; call __hostcall — so walking
// backwards from each direct gate call recovers, per site, the
// number-selecting instruction and (via the ABI signature table) which
// argument loads carry a marshalled byte count.
func classifyHostcallSites(prog *isa.Program, env *siteEnv) {
	addr, ok := prog.Symbols[hostcall.GateSym]
	if !ok {
		return
	}
	env.gateAddr = addr
	env.hcNum = map[int]bool{}
	env.hcLen = map[int]bool{}
	sigs := hostcall.Sigs()
	for ci := range prog.Instrs {
		if prog.Instrs[ci].Op != isa.OpCall || prog.Instrs[ci].Target != addr {
			continue
		}
		numIdx := -1
		args := map[int]int{} // argument position (0 = R1) -> instr index
	scan:
		for j := ci - 1; j >= 0; j-- {
			in := &prog.Instrs[j]
			switch {
			case in.Op == isa.OpLoad && in.Rd >= isa.R1 && in.Rd <= isa.R5:
				args[int(in.Rd-isa.R1)] = j
			case in.Op == isa.OpMovImm && in.Rd == isa.R0:
				numIdx = j
				break scan
			default:
				break scan
			}
		}
		if numIdx < 0 {
			continue
		}
		env.hcNum[numIdx] = true
		num := prog.Instrs[numIdx].Imm
		if num < 0 || num >= int64(len(sigs)) {
			continue
		}
		for pos, j := range args {
			if sigs[num].Args[pos] == verifier.HcArgLen {
				env.hcLen[j] = true
			}
		}
	}
}

// Corpus returns the workload set for a mode: the Sightglass suite plus
// the hostcall guests (the boundary operators need programs that actually
// cross it). Fast mode picks three compute kernels that between them
// exercise loads, stores, tables, recursion and tight ALU loops, plus the
// two hostcall guests that between them hit every boundary operator.
func Corpus(fast bool) []workloads.Workload {
	all := append(workloads.Sightglass(), workloads.HostcallKernels()...)
	if !fast {
		return all
	}
	want := map[string]bool{
		"base64": true, "sieve": true, "xchacha20": true,
		"kv-session": true, "stream-xform": true,
	}
	var out []workloads.Workload
	for _, w := range all {
		if want[w.Name] {
			out = append(out, w)
		}
	}
	return out
}

// Run executes the mutation sweep and classifies every mutant.
func Run(opts Options) (*Report, error) {
	schemes := opts.Schemes
	if schemes == nil {
		schemes = []sfi.Scheme{sfi.None, sfi.GuardPages, sfi.BoundsCheck, sfi.Masking, sfi.HFI}
	}
	maxSites := opts.MaxSitesPerOp
	if maxSites == 0 {
		if opts.Fast {
			maxSites = 4
		} else {
			maxSites = 16
		}
	}
	limit := opts.Limit
	if limit == 0 {
		limit = 200_000_000
	}

	rep := &Report{}
	for _, w := range Corpus(opts.Fast) {
		for _, scheme := range schemes {
			if err := runOne(rep, w, scheme, maxSites, limit); err != nil {
				return nil, fmt.Errorf("mutation: %s/%v: %w", w.Name, scheme, err)
			}
			if err := runFactOps(rep, w, scheme, maxSites, limit); err != nil {
				return nil, fmt.Errorf("mutation facts: %s/%v: %w", w.Name, scheme, err)
			}
		}
	}
	return rep, nil
}

// runOne sweeps one (workload, scheme) pair.
func runOne(rep *Report, w workloads.Workload, scheme sfi.Scheme, maxSites int, limit uint64) error {
	// One instance for the static phase; it is never executed, only its
	// program and geometry are used, with each mutant patched in place
	// and restored.
	rt := sandbox.NewRuntime()
	inst, err := rt.Instantiate(w.Build(1), scheme, wasm.Options{})
	if err != nil {
		return err
	}
	prog := inst.C.Prog
	cfg := wasm.VerifyConfig(inst.C)
	env := siteEnv{scheme: scheme, progEnd: prog.End()}
	if t, ok := prog.Symbols["__trap"]; ok {
		env.trapAddr = t
	}
	classifyHostcallSites(prog, &env)

	// Baseline run of the unmutated program: survivors whose behaviour
	// matches it exactly are equivalent mutants, not unsafe ones.
	baseReason, baseOut, err := runBaseline(w, scheme, limit)
	if err != nil {
		return err
	}

	for _, op := range operators {
		// Collect every applicable site, then thin deterministically to
		// maxSites spread across the program.
		var sites []int
		for i := range prog.Instrs {
			if _, ok := op.apply(prog.Instrs[i], i, env); ok {
				sites = append(sites, i)
			}
		}
		if len(sites) == 0 {
			continue
		}
		stride := (len(sites) + maxSites - 1) / maxSites
		for si := 0; si < len(sites); si += stride {
			idx := sites[si]
			mut, _ := op.apply(prog.Instrs[idx], idx, env)
			res := Result{
				Workload: w.Name, Scheme: scheme, Operator: op.name,
				Index: idx, Instr: mut.String(),
			}

			orig := prog.Instrs[idx]
			prog.Instrs[idx] = mut
			verr := verifyMutant(prog, cfg)
			prog.Instrs[idx] = orig

			if verr != nil {
				res.Outcome = KilledStatic
				res.Detail = firstViolation(verr)
				rep.Killed++
			} else {
				out, detail, err := runMutant(w, scheme, idx, mut, limit, baseReason, baseOut)
				if err != nil {
					return err
				}
				res.Outcome = out
				res.Detail = detail
				switch out {
				case Escaped:
					rep.Escapes = append(rep.Escapes, res)
				case Equivalent:
					rep.Equivalent++
				default:
					rep.Harmless++
				}
			}
			rep.Total++
			rep.Results = append(rep.Results, res)
		}
	}
	return nil
}

// verifyMutant runs the static verifier, converting a structural panic
// (some mutants are not even well-formed) into a rejection.
func verifyMutant(p *isa.Program, cfg verifier.Config) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("structural panic: %v", r)
		}
	}()
	return verifier.Verify(p, cfg)
}

func firstViolation(err error) string {
	if re, ok := err.(*verifier.RejectError); ok && len(re.Violations) > 0 {
		return re.First().Error()
	}
	return err.Error()
}

// mutBody is the fixed request every hostcall guest serves during
// baseline and mutant runs: deterministic, and long enough to push the
// streaming guest through both a full and a partial fd-chunk round trip.
var mutBody = func() []byte {
	b := make([]byte, 700)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}()

// bindHostEnv gives an instance of a hostcall-using module a world to
// talk to — a fixed-seed environment with mutBody streaming on fd 0 and
// copied to InputOffset — so hostcall guests execute identically in the
// baseline and every mutant run. Returns the invoke arguments (the body
// length) and nil for pure-compute modules.
func bindHostEnv(rt *sandbox.Runtime, inst *sandbox.Instance, m *wasm.Module, name string) []uint64 {
	if !m.UsesHostcalls() {
		return nil
	}
	env := hostcall.NewWorld(1).NewEnv(name)
	env.Bind(rt.M, inst.HeapBase, inst.C.MaxHeapBytes())
	env.BeginRequest(mutBody)
	inst.WriteHeap(workloads.InputOffset, mutBody)
	return []uint64{uint64(len(mutBody))}
}

// runBaseline executes the unmutated program once and records how it
// stops, so survivors can be compared against it.
func runBaseline(w workloads.Workload, scheme sfi.Scheme, limit uint64) (cpu.StopReason, uint64, error) {
	rt := sandbox.NewRuntime()
	mod := w.Build(1)
	inst, err := rt.Instantiate(mod, scheme, wasm.Options{})
	if err != nil {
		return 0, 0, err
	}
	args := bindHostEnv(rt, inst, mod, w.Name)
	res, out := inst.Invoke(cpu.NewInterp(rt.M), limit, args...)
	return res.Reason, out, nil
}

// runMutant patches one instruction mutant in place and executes it on the
// interpreter under the escape oracle.
func runMutant(w workloads.Workload, scheme sfi.Scheme, idx int, mut isa.Instr, limit uint64, baseReason cpu.StopReason, baseOut uint64) (Outcome, string, error) {
	return runOracle(w, scheme, limit, baseReason, baseOut, func(inst *sandbox.Instance) (cpu.Engine, error) {
		if idx >= len(inst.C.Prog.Instrs) {
			return nil, fmt.Errorf("mutant index %d out of range", idx)
		}
		inst.C.Prog.Instrs[idx] = mut
		return cpu.NewInterp(inst.RT.M), nil
	})
}

// runOracle instantiates a fresh sandbox, lets arm corrupt the instance
// and pick the engine, surrounds the instance with canary pages, and
// executes it with the machine's MemHook watching every architectural
// access. Any access outside the regions the instance owns is an escape.
func runOracle(w workloads.Workload, scheme sfi.Scheme, limit uint64, baseReason cpu.StopReason, baseOut uint64, arm func(*sandbox.Instance) (cpu.Engine, error)) (Outcome, string, error) {
	rt := sandbox.NewRuntime()
	mod := w.Build(1)
	inst, err := rt.Instantiate(mod, scheme, wasm.Options{})
	if err != nil {
		return Escaped, "", err
	}
	invokeArgs := bindHostEnv(rt, inst, mod, w.Name)
	eng, err := arm(inst)
	if err != nil {
		return Escaped, "", err
	}

	// Owned regions: code block (springboard + text), the heap
	// reservation, the aux block (globals + stack), and every extra
	// linear-memory reservation.
	type span struct{ lo, hi uint64 }
	owned := []span{
		{inst.CodeBase, inst.CodeBase + inst.CodeSize},
		{inst.HeapBase, inst.HeapBase + inst.HeapReserved},
		{inst.AuxBase, inst.AuxBase + inst.AuxSize},
	}
	for i, b := range inst.ExtraMemBases {
		if b != 0 {
			owned = append(owned, span{b, b + inst.ExtraMemReserved[i]})
		}
	}

	// Canary pages directly after the heap reservation and the aux
	// block: mapped and writable, so an out-of-window access that would
	// otherwise land in unmapped space (an invisible page fault) becomes
	// an observable escape. Mapping may fail if the neighbourhood is
	// already occupied; the oracle works either way.
	m := rt.M
	for _, at := range []uint64{inst.HeapBase + inst.HeapReserved, inst.AuxBase + inst.AuxSize} {
		_ = m.AS.MapFixed(at, 4*kernel.OSPageSize, kernel.ProtRead|kernel.ProtWrite)
	}

	var escape string
	m.MemHook = func(pc, addr uint64, size uint8, write bool) {
		if escape != "" {
			return
		}
		end := addr + uint64(size)
		for _, s := range owned {
			if addr >= s.lo && end <= s.hi {
				return
			}
		}
		kind := "load"
		if write {
			kind = "store"
		}
		escape = fmt.Sprintf("%s of %d bytes at %#x (pc %#x) outside sandbox", kind, size, addr, pc)
	}
	res, out := inst.Invoke(eng, limit, invokeArgs...)
	m.MemHook = nil

	if escape != "" {
		return Escaped, escape, nil
	}
	if res.Reason == baseReason && out == baseOut {
		return Equivalent, fmt.Sprintf("identical to baseline: stop=%v result=%#x", res.Reason, out), nil
	}
	return Harmless, fmt.Sprintf("contained: stop=%v result=%#x (baseline stop=%v result=%#x)", res.Reason, out, baseReason, baseOut), nil
}
