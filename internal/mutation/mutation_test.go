package mutation

import (
	"testing"

	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/wasm"
)

// TestMutationGate is the acceptance gate: across the corpus and all
// five schemes, at least 95% of injected unsafe mutants must be
// rejected statically, and every survivor must be proven harmless by
// the differential runtime — zero escapes, ever.
func TestMutationGate(t *testing.T) {
	opts := Options{Fast: testing.Short()}
	rep, err := Run(opts)
	if err != nil {
		t.Fatalf("mutation run: %v", err)
	}
	if rep.Total == 0 {
		t.Fatal("no mutants generated")
	}
	for _, e := range rep.Escapes {
		t.Errorf("ESCAPE: %s/%v %s @%d (%s): %s",
			e.Workload, e.Scheme, e.Operator, e.Index, e.Instr, e.Detail)
	}
	if rate := rep.KillRate(); rate < 0.95 {
		t.Errorf("static kill rate %.1f%% < 95%% (%d/%d unsafe mutants killed, %d harmless, %d equivalent)",
			rate*100, rep.Killed, rep.Unsafe(), rep.Harmless, rep.Equivalent)
		for _, r := range rep.Results {
			if r.Outcome == Harmless {
				t.Logf("harmless survivor: %s/%v %s @%d (%s): %s",
					r.Workload, r.Scheme, r.Operator, r.Index, r.Instr, r.Detail)
			}
		}
	}
	t.Logf("mutation: %d mutants (%d unsafe), %d killed statically (%.1f%%), %d harmless, %d equivalent",
		rep.Total, rep.Unsafe(), rep.Killed, rep.KillRate()*100, rep.Harmless, rep.Equivalent)
}

// TestFactOperatorsAuditKill pins the proof-artifact half of the fault
// model: every fact-corruption mutant — a widened resident interval, a
// forged residency bit — must be present in the sweep and rejected by
// verifier.AuditFacts before it ever runs. A corrupted artifact that
// reaches execution would have the runtime gates and the escape oracle as
// last lines, but the audit is required to kill 100% on its own.
func TestFactOperatorsAuditKill(t *testing.T) {
	rep, err := Run(Options{Fast: true})
	if err != nil {
		t.Fatalf("mutation run: %v", err)
	}
	factOps := map[string]int{
		"widen-fact-interval": 0,
		"forge-resident-fact": 0,
	}
	for _, r := range rep.Results {
		if _, ok := factOps[r.Operator]; !ok {
			continue
		}
		factOps[r.Operator]++
		if r.Outcome != KilledStatic {
			t.Errorf("fact mutant survived the audit: %s/%v %s @%d (%s): outcome %v, %s",
				r.Workload, r.Scheme, r.Operator, r.Index, r.Instr, r.Outcome, r.Detail)
		}
	}
	for op, n := range factOps {
		if n == 0 {
			t.Errorf("no %s mutants generated", op)
		} else {
			t.Logf("%s: %d mutants, all audit-killed", op, n)
		}
	}
}

// TestFactMutantRunsOnFusedRunner drives the survivor path the audit's
// 100% kill rate otherwise leaves unexecuted: the genuine artifact run
// through runFactMutant is equivalent to the interpreter baseline, and
// every forge-resident-fact mutant fed to the tier un-audited stays
// contained — the live gate and the window compare hold without the audit.
func TestFactMutantRunsOnFusedRunner(t *testing.T) {
	const limit = 50_000_000
	w := Corpus(true)[0]
	for _, scheme := range []sfi.Scheme{sfi.GuardPages, sfi.BoundsCheck, sfi.HFI} {
		rt := sandbox.NewRuntime()
		inst, err := rt.Instantiate(w.Build(1), scheme, wasm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prog, facts := inst.C.Prog, inst.C.Facts
		reason, out, err := runBaseline(w, scheme, limit)
		if err != nil {
			t.Fatal(err)
		}
		got, detail, err := runFactMutant(w, scheme, facts, limit, reason, out)
		if err != nil || got != Equivalent {
			t.Fatalf("%s/%v genuine artifact: outcome %v (%s), err %v; want equivalent", w.Name, scheme, got, detail, err)
		}
		for _, op := range factOperators {
			for _, idx := range op.sites(prog, facts) {
				mut := facts.Clone()
				op.apply(prog, mut, idx)
				got, detail, err := runFactMutant(w, scheme, mut, limit, reason, out)
				if err != nil || got == Escaped {
					t.Errorf("%s/%v %s @%d un-audited: outcome %v (%s), err %v", w.Name, scheme, op.name, idx, got, detail, err)
				}
			}
		}
	}
}

// TestOperatorsCoverEverySchemeMechanism checks the fault model touches
// each scheme's mediation at least once on a representative kernel:
// masking must see drop-mask sites, bounds checking nop-check sites,
// HFI swap-hld sites.
func TestOperatorsCoverEverySchemeMechanism(t *testing.T) {
	cases := []struct {
		scheme sfi.Scheme
		op     string
	}{
		{sfi.Masking, "drop-mask"},
		{sfi.BoundsCheck, "nop-check"},
		{sfi.HFI, "swap-hld"},
		{sfi.GuardPages, "widen-disp"},
		// The hostcall-boundary operators fire under every scheme (the
		// gate proof is scheme-independent); HFI is the representative.
		{sfi.HFI, "swap-hostcall-num"},
		{sfi.HFI, "corrupt-marshal-len"},
		{sfi.HFI, "skip-bounds-recheck"},
	}
	rep, err := Run(Options{Fast: true})
	if err != nil {
		t.Fatalf("mutation run: %v", err)
	}
	seen := map[[2]string]bool{}
	for _, r := range rep.Results {
		seen[[2]string{r.Scheme.String(), r.Operator}] = true
	}
	for _, c := range cases {
		if !seen[[2]string{c.scheme.String(), c.op}] {
			t.Errorf("no %s mutants generated under %v", c.op, c.scheme)
		}
	}
}
