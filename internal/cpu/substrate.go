package cpu

import (
	"errors"
	"fmt"
)

// ErrSubstrate is the sentinel for corruption detected in the simulator
// substrate itself — state the execution engines trust between checks:
// cached page decisions, tier-gate verdicts, clock rails, heap images.
// Detection paths wrap it in a *SubstrateError naming the audited layer.
// The serving layer folds detected substrate faults into the ordinary
// fault outcome (after quarantining the instance), so the conservation
// identity admitted == ok+timeout+fault+shed+rejected+canceled holds with
// substrate chaos active.
var ErrSubstrate = errors.New("substrate state corruption detected")

// SubstrateError is the typed fault a substrate cross-audit raises when it
// finds state that cannot exist in a correct system: a cache generation
// tag ahead of its source, a gate verdict claiming future freshness, clock
// rails in disagreement, or a heap that fails its verified-reset hash.
type SubstrateError struct {
	// Layer names the audit that fired: "heap-hash", "dtc-gen",
	// "tier-gate", or "clock-drift".
	Layer string
}

func (e *SubstrateError) Error() string {
	return fmt.Sprintf("substrate state corruption detected by %s audit", e.Layer)
}

// Unwrap makes errors.Is(err, ErrSubstrate) hold for every audit layer.
func (e *SubstrateError) Unwrap() error { return ErrSubstrate }

// staleGenSkew is the forged generation distance a planted stale entry
// carries: far enough ahead that the entry can never accidentally match a
// live generation during a request (the plant is execution-inert and
// fail-safe), while remaining detectable forever — a tag ahead of its
// source is impossible state regardless of how far ahead.
const staleGenSkew = 1 << 32

// PlantStaleDTC is the chaos seam for FaultTLBStale: it forges the
// generation tags of data-translation slot pick (modulo DTCSlots) ahead of
// both sources of truth, modeling a suppressed invalidation — an entry
// claiming to have survived generations its sources never issued. A live
// plant keeps the entry valid, which AuditCacheGens must catch; a dead
// plant leaves the entry invalid (the shootdown was lost on an entry that
// was already dead), so no audit can see it and no consumer can be hurt by
// it. Either way the planted entry denies all access and matches no live
// generation, so neither engine's lookup consumes it even if the audit
// were skipped — the plant models the *state* a lost shootdown leaves,
// detectably, without re-introducing the vulnerability it models.
func (m *Machine) PlantStaleDTC(live bool, pick uint64) {
	d := &m.dtc[pick%DTCSlots]
	*d = dtcEntry{
		page:   d.page,
		valid:  live,
		hfiGen: m.HFI.Gen + staleGenSkew,
		mapGen: m.AS.Gen() + staleGenSkew,
	}
}

// AuditCacheGens is the generation cross-audit over the machine's decision
// caches: every valid entry's tags must be auditable against their sources
// (tag ≤ current generation — tags are copies of the generation taken at
// fill time, so a tag from the future is impossible in a correct system).
// Returns false when the caches hold corrupt state; the caller recovers
// with FlushDTC and surfaces a typed *SubstrateError. The audit is a
// handful of integer compares, so the host runs it at every segment
// boundary rather than sampling.
func (m *Machine) AuditCacheGens() bool {
	for i := range m.dtc {
		d := &m.dtc[i]
		if d.valid && (!m.HFI.AuditTag(d.hfiGen) || !m.AS.AuditTag(d.mapGen)) {
			return false
		}
	}
	if m.epc.valid && !m.HFI.AuditTag(m.epc.hfiGen) {
		return false
	}
	return true
}
