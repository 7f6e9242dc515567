// Command hfiverify runs the static sandbox-safety verifier over the
// built-in program corpus: every workload is compiled under every
// isolation scheme and the resulting machine program is proven unable to
// escape its sandbox (internal/verifier). It is the CLI face of the same
// gate internal/wasm applies after every compile and internal/faas
// applies at tenant admission.
//
// Usage:
//
//	hfiverify                      # verify the whole corpus, all schemes
//	hfiverify -w sieve             # one workload, all schemes
//	hfiverify -class hostcall      # one workload class (the boundary guests)
//	hfiverify -scheme masking      # all workloads, one scheme
//	hfiverify -v                   # print every violation, not just the first
//	hfiverify -facts               # emit + audit the proof-fact artifact per program
//	hfiverify -mutate              # also run the mutation soundness bench (fast)
//	hfiverify -mutate -full        # ... full corpus and site counts
//
// Exit status: 0 if everything verifies (and, with -mutate, no mutant
// escapes and the static kill rate is >= 95%); 1 otherwise.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"hfi/internal/mutation"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/verifier"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

type entry struct {
	name  string
	class string
	mod   func() *wasm.Module
}

// corpus is every built-in guest program: the Sightglass suite, the
// SPEC-like kernels, the FaaS tenants, the library-sandboxing codecs,
// and the hostcall guests (whose gate and call-site proofs only they
// exercise).
func corpus() []entry {
	var out []entry
	for _, w := range workloads.Sightglass() {
		w := w
		out = append(out, entry{w.Name, "sightglass", func() *wasm.Module { return w.Build(1) }})
	}
	for _, w := range workloads.SpecInt() {
		w := w
		out = append(out, entry{w.Name, "spec", func() *wasm.Module { return w.Build(1) }})
	}
	for _, t := range workloads.FaaSTenants() {
		t := t
		out = append(out, entry{t.Name, "faas", func() *wasm.Module { return t.Mod }})
	}
	out = append(out,
		entry{"jpeg-decoder", "library", workloads.JPEGDecoder},
		entry{"font-shaper", "library", workloads.FontShaper},
	)
	for _, w := range workloads.HostcallKernels() {
		w := w
		out = append(out, entry{w.Name, w.Class, func() *wasm.Module { return w.Build(4) }})
	}
	return out
}

func main() {
	var (
		name       = flag.String("w", "", "verify only this workload")
		class      = flag.String("class", "", "verify only workloads of this class (sightglass, spec, faas, library, hostcall)")
		schemeName = flag.String("scheme", "", "verify only under this scheme")
		verbose    = flag.Bool("v", false, "print every violation, not just the first")
		facts      = flag.Bool("facts", false, "run the analyzer, print the proof-fact summary, and audit the artifact")
		mutate     = flag.Bool("mutate", false, "run the mutation soundness bench after the corpus sweep")
		full       = flag.Bool("full", false, "with -mutate: full corpus and site counts")
	)
	flag.Parse()

	schemes := []sfi.Scheme{sfi.None, sfi.GuardPages, sfi.BoundsCheck, sfi.Masking, sfi.HFI}
	if *schemeName != "" {
		s, err := sfi.ParseScheme(*schemeName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfiverify:", err)
			os.Exit(2)
		}
		schemes = []sfi.Scheme{s}
	}

	failed := false
	checked := 0
	start := time.Now()
	for _, e := range corpus() {
		if *name != "" && e.name != *name {
			continue
		}
		if *class != "" && e.class != *class {
			continue
		}
		for _, scheme := range schemes {
			if *facts {
				if !factsOne(e, scheme, *verbose) {
					failed = true
				}
			} else if !verifyOne(e, scheme, *verbose) {
				failed = true
			}
			checked++
		}
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "hfiverify: no workload matches -w %q -class %q\n", *name, *class)
		os.Exit(2)
	}
	fmt.Printf("corpus: %d program/scheme pairs verified in %v\n", checked, time.Since(start).Round(time.Millisecond))

	if *mutate {
		if !runMutation(*full) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// verifyOne compiles and verifies one workload under one scheme,
// printing a table row. Instantiation runs the post-compile gate; the
// explicit Verify call afterwards times the verifier alone.
func verifyOne(e entry, scheme sfi.Scheme, verbose bool) bool {
	rt := sandbox.NewRuntime()
	inst, err := rt.Instantiate(e.mod(), scheme, wasm.Options{})
	if err != nil {
		report(e.name, scheme, err, verbose)
		return false
	}
	start := time.Now()
	err = verifier.Verify(inst.C.Prog, wasm.VerifyConfig(inst.C))
	elapsed := time.Since(start)
	if err != nil {
		report(e.name, scheme, err, verbose)
		return false
	}
	fmt.Printf("  ok   %-18s %-12v %5d instrs  %8v\n", e.name, scheme, len(inst.C.Prog.Instrs), elapsed.Round(time.Microsecond))
	return true
}

// factsOne runs the fact-producing analysis instead of the boolean gate,
// prints the artifact's summary, and immediately audits it with the
// independent re-checker — the same double-entry bookkeeping verify.sh
// applies over the corpus.
func factsOne(e entry, scheme sfi.Scheme, verbose bool) bool {
	rt := sandbox.NewRuntime()
	inst, err := rt.Instantiate(e.mod(), scheme, wasm.Options{})
	if err != nil {
		report(e.name, scheme, err, verbose)
		return false
	}
	cfg := wasm.VerifyConfig(inst.C)
	start := time.Now()
	f, err := verifier.Analyze(inst.C.Prog, cfg)
	elapsed := time.Since(start)
	if err != nil {
		report(e.name, scheme, err, verbose)
		return false
	}
	if err := verifier.AuditFacts(inst.C.Prog, cfg, f); err != nil {
		fmt.Printf("  FAIL %-18s %-12v audit rejected the analyzer's own artifact: %v\n", e.name, scheme, err)
		return false
	}
	s := f.Summary()
	cov := 100.0
	if s.HeapOps > 0 {
		cov = 100 * float64(f.Covered) / float64(f.HeapOps)
	}
	fmt.Printf("  ok   %-18s %-12v %5d instrs  mem %3d  res %3d  hfi %3d  hc %2d  heap-cov %3.0f%%  %8v\n",
		e.name, scheme, len(inst.C.Prog.Instrs), s.MemOps, s.Resident, s.HfiHeap, s.HostcallSites, cov, elapsed.Round(time.Microsecond))
	return true
}

// report prints a rejection: the first violation with instruction index
// and disassembly, or all of them under -v.
func report(name string, scheme sfi.Scheme, err error, verbose bool) {
	var re *verifier.RejectError
	if !errors.As(err, &re) {
		fmt.Printf("  FAIL %-18s %-12v %v\n", name, scheme, err)
		return
	}
	fmt.Printf("  FAIL %-18s %-12v %d violation(s)\n", name, scheme, len(re.Violations))
	vs := re.Violations
	if !verbose {
		vs = vs[:1]
	}
	for _, v := range vs {
		fmt.Printf("       %v\n", v)
	}
}

// runMutation executes the soundness bench and prints its verdict.
func runMutation(full bool) bool {
	fmt.Printf("mutation bench (%s mode):\n", map[bool]string{true: "full", false: "fast"}[full])
	rep, err := mutation.Run(mutation.Options{Fast: !full})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfiverify: mutation:", err)
		return false
	}
	fmt.Printf("  %d mutants: %d killed statically, %d equivalent, %d harmless, %d ESCAPED\n",
		rep.Total, rep.Killed, rep.Equivalent, rep.Harmless, len(rep.Escapes))
	fmt.Printf("  static kill rate over unsafe mutants: %.1f%%\n", rep.KillRate()*100)
	for _, e := range rep.Escapes {
		fmt.Printf("  ESCAPE: %s/%v %s @%d (%s): %s\n", e.Workload, e.Scheme, e.Operator, e.Index, e.Instr, e.Detail)
	}
	return len(rep.Escapes) == 0 && rep.KillRate() >= 0.95
}
