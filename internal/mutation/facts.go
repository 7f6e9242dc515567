package mutation

import (
	"fmt"

	"hfi/internal/cpu"
	"hfi/internal/isa"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/tier"
	"hfi/internal/verifier"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// Fact-corruption operators: the soundness bench for the proof-carrying
// side of the verifier. Where the instruction operators corrupt programs
// and demand the verifier reject them, these corrupt the Facts artifact a
// verified program ships with and demand verifier.AuditFacts — the
// independent re-derivation — reject the artifact. A corrupted fact that
// survived the audit would make the tiered engine hoist a check it must
// not hoist, so any survivor is lowered from the corrupted artifact and
// executed on the fused runner with the canary-page escape oracle
// watching: a forged fact that lets a mutant touch a canary page is a
// verifier bug, not an engine bug.

// factOperator corrupts a cloned Facts artifact at one instruction site.
type factOperator struct {
	name string
	// sites returns the applicable instruction indices for a program and
	// its genuine artifact.
	sites func(p *isa.Program, f *verifier.Facts) []int
	// apply corrupts the clone at idx.
	apply func(p *isa.Program, f *verifier.Facts, idx int)
}

var factOperators = []factOperator{
	{
		// A proved resident interval is widened by 8 GiB: the claim now
		// reaches past every window the runtime maps. The audit must
		// reject it (rule "fact-window": the widened interval no longer
		// fits its claimed window); a survivor would let the tier fuse an
		// access the proof no longer bounds.
		name: "widen-fact-interval",
		sites: func(p *isa.Program, f *verifier.Facts) []int {
			var s []int
			for i, b := range f.Bits {
				if b&verifier.FactResident != 0 {
					s = append(s, i)
				}
			}
			return s
		},
		apply: func(p *isa.Program, f *verifier.Facts, idx int) {
			f.Mem[idx].EA.Hi += sfi.GuardReservation
		},
	},
	{
		// Page-residency is forged onto an access the verifier never
		// proved uniform: the bit is set, the claimed interval spans the
		// whole first window, as if the analysis had discharged it. The
		// audit must reject (rule "fact-claim": the bit is not
		// re-derivable); a survivor would fuse an arbitrary computed
		// address behind nothing but the window compare.
		name: "forge-resident-fact",
		sites: func(p *isa.Program, f *verifier.Facts) []int {
			if len(f.Windows) == 0 {
				return nil
			}
			var s []int
			for i := range p.Instrs {
				op := p.Instrs[i].Op
				if (op == isa.OpLoad || op == isa.OpStore) && f.Bits[i]&verifier.FactResident == 0 {
					s = append(s, i)
				}
			}
			return s
		},
		apply: func(p *isa.Program, f *verifier.Facts, idx int) {
			w := f.Windows[0]
			f.Bits[idx] |= verifier.FactResident
			f.Mem[idx].Window = 0
			f.Mem[idx].Size = p.Instrs[idx].Size
			f.Mem[idx].EA = verifier.Interval{Lo: w.Lo, Hi: w.Hi - uint64(p.Instrs[idx].Size)}
		},
	},
}

// runFactOps sweeps the fact-corruption operators for one (workload,
// scheme) pair: clone the genuine artifact, corrupt one fact, audit; any
// artifact the audit accepts is executed under the corruption with the
// escape oracle armed.
func runFactOps(rep *Report, w workloads.Workload, scheme sfi.Scheme, maxSites int, limit uint64) error {
	rt := sandbox.NewRuntime()
	inst, err := rt.Instantiate(w.Build(1), scheme, wasm.Options{})
	if err != nil {
		return err
	}
	prog := inst.C.Prog
	facts := inst.C.Facts
	if facts == nil {
		return fmt.Errorf("no facts artifact on verified image")
	}
	cfg := wasm.VerifyConfig(inst.C)

	var baseReason cpu.StopReason
	var baseOut uint64
	baselineDone := false

	for _, op := range factOperators {
		sites := op.sites(prog, facts)
		if len(sites) == 0 {
			continue
		}
		stride := (len(sites) + maxSites - 1) / maxSites
		for si := 0; si < len(sites); si += stride {
			idx := sites[si]
			mut := facts.Clone()
			op.apply(prog, mut, idx)
			res := Result{
				Workload: w.Name, Scheme: scheme, Operator: op.name,
				Index: idx, Instr: prog.Instrs[idx].String(),
			}
			if aerr := verifier.AuditFacts(prog, cfg, mut); aerr != nil {
				res.Outcome = KilledStatic
				res.Detail = firstViolation(aerr)
				rep.Killed++
			} else {
				if !baselineDone {
					baseReason, baseOut, err = runBaseline(w, scheme, limit)
					if err != nil {
						return err
					}
					baselineDone = true
				}
				out, detail, err := runFactMutant(w, scheme, mut, limit, baseReason, baseOut)
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

// runFactMutant executes the unmutated program on a tiered engine lowered
// from a corrupted facts artifact (promotion on first sight, so the fused
// runner carries the run), under the same oracle as instruction mutants.
func runFactMutant(w workloads.Workload, scheme sfi.Scheme, mut *verifier.Facts, limit uint64, baseReason cpu.StopReason, baseOut uint64) (Outcome, string, error) {
	return runOracle(w, scheme, limit, baseReason, baseOut, func(inst *sandbox.Instance) (cpu.Engine, error) {
		ip := cpu.NewInterp(inst.RT.M)
		eng := tier.NewEngine(ip, tier.Lower(inst.C.Prog, mut, ip.Cost))
		eng.PromoteAfter = 1
		return eng, nil
	})
}
