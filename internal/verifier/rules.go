package verifier

import "sort"

// ruleRegistry is the closed set of rule identifiers a Violation may
// carry, with a one-line description each. Every violate() call site and
// every hand-built Violation must use a registered name: callers
// (admission stats, the CLI, the lint in internal/lint) key on these
// strings, so an unregistered or misspelled rule would silently fall out
// of their tables. A map literal keeps the set unique by construction
// (duplicate keys are a compile error); cmd/hfilint statically
// cross-checks that the literals at the call sites all appear here.
var ruleRegistry = map[string]string{
	"structural":      "program fails isa.Program.Validate well-formedness",
	"diverged":        "abstract interpretation fixpoint did not converge",
	"reserved-reg":    "write or call violates a scheme-reserved register invariant",
	"call-stack":      "return-address push not provably inside the frame window",
	"ret-stack":       "SP not provably at the entry SP at ret",
	"ret-fp":          "FP not provably restored to the caller's at ret",
	"stack-frame":     "frame access outside [-StackGuard, 0) of the entry SP",
	"mem-window":      "access not provably inside any sandbox window",
	"global-store":    "store to a global-area address that is not a trusted cell",
	"cell-invariant":  "trusted-cell store value breaks the cell invariant",
	"hfi-region":      "hld/hst region operand or displacement malformed",
	"hfi-dead-access": "hld/hst displacement makes every execution fault",
	"region-update":   "hfi_get/set_region outside the staged grow protocol",
	"hostcall-gate":   "hostcall gate malformed or enterable other than by direct call",
	"hostcall":        "hostcall number or marshalling bounds not proven at a call site",
	"syscall":         "syscall is not the admitted mprotect-over-heap shape",
	"privileged-op":   "instruction outside the scheme's allowlist",
	"indirect-target": "indirect branch target not a provable address-taken constant",

	// Fact-audit rules (AuditFacts): a claimed Facts artifact failed the
	// independent re-derivation. These mark tampered or stale proofs, not
	// unsafe programs.
	"fact-shape":    "facts artifact does not match the program's shape",
	"fact-claim":    "claimed per-instruction fact not re-derivable",
	"fact-window":   "claimed resident interval or window inconsistent with the geometry",
	"fact-hostcall": "claimed hostcall fact disagrees with the call-site proof",
	"fact-block":    "claimed block fact not re-derivable",
}

// Rules returns the registered rule names, sorted. cmd/hfilint uses it as
// the source of truth when checking verifier call sites, and tests assert
// the registry covers every rule the analysis can emit.
func Rules() []string {
	out := make([]string, 0, len(ruleRegistry))
	for r := range ruleRegistry {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// RuleDescription returns the one-line description of a registered rule
// ("" for unknown rules).
func RuleDescription(name string) string { return ruleRegistry[name] }
