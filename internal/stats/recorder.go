package stats

import (
	"sort"
	"sync"
)

// Outcome classifies one request's fate for the serving recorder.
type Outcome uint8

// Request outcomes.
const (
	OutcomeOK      Outcome = iota // served, guest halted normally
	OutcomeTimeout                // fuel budget exhausted (StopLimit)
	OutcomeFault                  // guest faulted or stopped abnormally
	OutcomeShed                   // rejected at admission (backpressure)
	// OutcomeRejected: the tenant's program failed static verification at
	// provisioning. Distinct from shed — a shed request would have been
	// safe to run but lost the capacity race; a rejected one was refused
	// on proof grounds and never touched a sandbox. Load tests key on the
	// distinction to assert no verified-then-escaped program exists.
	OutcomeRejected
	// OutcomeCanceled: the caller's context was cancelled while the request
	// waited in its tenant queue. Like a shed it never executed (no latency
	// sample, no sandbox contact), but the initiative was the client's, not
	// the server's — the HTTP front-end reports these separately from 429s.
	OutcomeCanceled
)

var outcomeNames = [...]string{"ok", "timeout", "fault", "shed", "rejected", "canceled"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "outcome(?)"
}

// Counts is every counter the shard ledger keeps for one tenant — and, summed
// over tenants, for the shard: the six request outcomes plus the host-call,
// tiered-engine and substrate traffic harvested from the requests that
// executed. ServeSummary and TenantSummary embed it, so the field list and
// the JSON keys exist once.
type Counts struct {
	OK       uint64 `json:"ok"`
	Timeouts uint64 `json:"timeouts"`
	Faults   uint64 `json:"faults"`
	Shed     uint64 `json:"shed"`
	Rejected uint64 `json:"rejected"`
	Canceled uint64 `json:"canceled"`

	Hostcalls HostcallCounters  `json:"hostcalls"`
	Tier      TierCounters      `json:"tier"`
	Substrate SubstrateCounters `json:"substrate"`
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.OK += o.OK
	c.Timeouts += o.Timeouts
	c.Faults += o.Faults
	c.Shed += o.Shed
	c.Rejected += o.Rejected
	c.Canceled += o.Canceled
	c.Hostcalls.Add(o.Hostcalls)
	c.Tier.Add(o.Tier)
	c.Substrate.Add(o.Substrate)
}

// Executed counts requests that reached a sandbox.
func (c Counts) Executed() uint64 { return c.OK + c.Timeouts + c.Faults }

// Admitted counts every accounted outcome.
func (c Counts) Admitted() uint64 { return c.Executed() + c.Shed + c.Rejected + c.Canceled }

// outcome returns the counter o increments.
func (c *Counts) outcome(o Outcome) *uint64 {
	switch o {
	case OutcomeOK:
		return &c.OK
	case OutcomeTimeout:
		return &c.Timeouts
	case OutcomeFault:
		return &c.Faults
	case OutcomeShed:
		return &c.Shed
	case OutcomeRejected:
		return &c.Rejected
	case OutcomeCanceled:
		return &c.Canceled
	}
	panic("stats: unknown outcome")
}

// HostcallCounters aggregates the host-call boundary traffic the serving
// layer harvests from each instance's hostcall.Env after every request.
type HostcallCounters struct {
	Calls        uint64 `json:"calls"`
	BytesIn      uint64 `json:"bytes_in"`
	BytesOut     uint64 `json:"bytes_out"`
	QuotaRejects uint64 `json:"quota_rejects"`
}

// Add accumulates o into c.
func (c *HostcallCounters) Add(o HostcallCounters) {
	c.Calls += o.Calls
	c.BytesIn += o.BytesIn
	c.BytesOut += o.BytesOut
	c.QuotaRejects += o.QuotaRejects
}

// TierCounters aggregates tiered-engine activity the serving layer
// harvests from each instance's engine after every request: gate-admitted
// blocks (fusable blocks each gate derivation admitted, summed) and the
// retirement split between the two tiers.
type TierCounters struct {
	PromotedBlocks uint64 `json:"promoted_blocks"`
	TieredInstrs   uint64 `json:"tiered_instrs"`
	InterpInstrs   uint64 `json:"interp_instrs"`
}

// Add accumulates o into c.
func (c *TierCounters) Add(o TierCounters) {
	c.PromotedBlocks += o.PromotedBlocks
	c.TieredInstrs += o.TieredInstrs
	c.InterpInstrs += o.InterpInstrs
}

// SubstrateCounters aggregates the substrate fault traffic the serving
// layer observes per request: faults injected below the serving seams
// (bit flips, stale translations, clock skew, lowering rot), how many the
// end-of-request audits detected, how many completed recovery
// (quarantine, cache flush, gate invalidation, clock resync), and how
// many were undetected but benign by construction (strikes in cold state
// no consumer reads before it is recycled). Two conservation invariants,
// asserted globally and per tenant:
//
//	Injected == Detected + Benign   (every injection is accounted)
//	Recovered == Detected           (every detection completes recovery)
type SubstrateCounters struct {
	Injected  uint64 `json:"injected"`
	Detected  uint64 `json:"detected"`
	Recovered uint64 `json:"recovered"`
	Benign    uint64 `json:"undetected_benign"`
}

// Add accumulates o into c.
func (c *SubstrateCounters) Add(o SubstrateCounters) {
	c.Injected += o.Injected
	c.Detected += o.Detected
	c.Recovered += o.Recovered
	c.Benign += o.Benign
}

// row is one tenant's line in the ledger: its counts and the latency
// distribution of its executed requests.
type row struct {
	tenant string
	Counts
	lat histogram
}

func (rw *row) summary() TenantSummary {
	return TenantSummary{Tenant: rw.tenant, Counts: rw.Counts, P50Ns: rw.lat.quantile(50), P99Ns: rw.lat.quantile(99)}
}

// Recorder is the shard ledger — the measurement sink of the concurrent
// serving layer (internal/host). Every count and every latency is stored
// once, in the row of the tenant it belongs to; shard totals are the sum of
// the rows, taken at snapshot, so "global == Σ tenants" cannot drift. All
// methods are safe for concurrent use; a snapshot holds the lock only to
// copy the rows (fixed size each) and summarizes the copy outside it.
type Recorder struct {
	mu   sync.Mutex
	rows map[string]*row
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{rows: make(map[string]*row)} }

// RecordRequest is the one record call a request makes: outcome o, the
// host-call/tier/substrate traffic d it generated, and its wall-clock
// latency in nanoseconds — all under one lock acquisition. The latency is
// ignored unless the request executed (ok, timeout, fault).
func (r *Recorder) RecordRequest(tenant string, o Outcome, latNs float64, d Counts) {
	*d.outcome(o)++
	r.mu.Lock()
	defer r.mu.Unlock()
	rw := r.rows[tenant]
	if rw == nil {
		rw = &row{tenant: tenant}
		r.rows[tenant] = rw
	}
	rw.Counts.Add(d)
	if d.Executed() > 0 {
		rw.lat.record(latNs)
	}
}

// RecordTenant records an outcome that generated no other traffic.
func (r *Recorder) RecordTenant(tenant string, o Outcome, latNs float64) {
	r.RecordRequest(tenant, o, latNs, Counts{})
}

// ServeSummary is a point-in-time view of the whole ledger.
type ServeSummary struct {
	Counts

	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	MaxNs  float64 `json:"max_ns"`

	// ThroughputRPS is executed requests per wall second over the elapsed
	// window handed to Snapshot (0 if elapsedNs <= 0).
	ThroughputRPS float64 `json:"throughput_rps"`
	// ShedRate is shed / (executed + shed) — the 429 rate.
	ShedRate float64 `json:"shed_rate"`
}

// TenantSummary is one tenant's row — the observability the fairness and
// circuit-breaker machinery is judged by.
type TenantSummary struct {
	Tenant string `json:"tenant"`
	Counts
	P50Ns float64 `json:"p50_ns"`
	P99Ns float64 `json:"p99_ns"`
}

// Ledger returns the shard totals and the per-tenant rows (sorted by
// tenant name) from one copy of the ledger, so the totals are exactly the
// sum of the rows. The lock is held for one fixed-size copy per tenant,
// independent of how much was recorded. elapsedNs is the wall-clock window
// the throughput is computed over.
func (r *Recorder) Ledger(elapsedNs float64) (ServeSummary, []TenantSummary) {
	r.mu.Lock()
	rows := make([]row, 0, len(r.rows))
	for _, rw := range r.rows {
		rows = append(rows, *rw)
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].tenant < rows[j].tenant })

	var total row
	tenants := make([]TenantSummary, len(rows))
	for i := range rows {
		total.Counts.Add(rows[i].Counts)
		total.lat.merge(&rows[i].lat)
		tenants[i] = rows[i].summary()
	}
	s := ServeSummary{
		Counts: total.Counts,
		P50Ns:  total.lat.quantile(50),
		P99Ns:  total.lat.quantile(99),
		P999Ns: total.lat.quantile(99.9),
		MaxNs:  float64(total.lat.max),
	}
	if n := total.lat.count; n > 0 {
		s.MeanNs = float64(total.lat.sum) / float64(n)
	}
	if elapsedNs > 0 {
		s.ThroughputRPS = float64(s.Executed()) / (elapsedNs / 1e9)
	}
	if offered := s.Executed() + s.Shed; offered > 0 {
		s.ShedRate = float64(s.Shed) / float64(offered)
	}
	return s, tenants
}

// Snapshot summarizes everything recorded so far.
func (r *Recorder) Snapshot(elapsedNs float64) ServeSummary {
	s, _ := r.Ledger(elapsedNs)
	return s
}

// TenantSummaries returns the per-tenant rows sorted by tenant name.
func (r *Recorder) TenantSummaries() []TenantSummary {
	_, tenants := r.Ledger(0)
	return tenants
}

// Tenant returns one tenant's row (zero counts if never recorded).
func (r *Recorder) Tenant(name string) TenantSummary {
	rw := row{tenant: name}
	r.mu.Lock()
	if p := r.rows[name]; p != nil {
		rw = *p
	}
	r.mu.Unlock()
	return rw.summary()
}
