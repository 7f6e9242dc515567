// Package host is the concurrent multi-tenant sandbox serving layer: a
// wall-clock worker pool in front of the simulated FaaS platform. Where
// faas.ServeTenant drives one warm instance on one goroutine, a host.Server
// schedules mixed-tenant request streams across N worker goroutines behind
// per-tenant bounded admission queues dispatched by deficit round-robin
// (DRR) — one hot tenant can saturate its own queue but cannot starve the
// others, because every tenant with queued work dispatches at least
// quantum × weight requests per scheduler round.
//
// Each worker owns a private pool of warm faas.TenantInstance sets keyed by
// (tenant, isolation config), so the large per-instance allocations — a
// cpu.Machine, a simulated kernel and address space, compiled code — are
// built once per (worker, tenant, config) and warm-reused across requests,
// mirroring the warm-instance model the paper's FaaS evaluation (§6.3)
// assumes. Pools are bounded: LRU/TTL eviction with deferred batched
// teardown (§6.3.1) keeps the warm set at a configured cap under tenant
// churn. Machines are never shared across goroutines: all simulator state
// (kernel, memory, HFI, caches) is confined to the owning worker, which is
// what makes the layer race-free by construction.
//
// The layer is hardened against the failure modes a production stack sees
// (and which internal/chaos injects deterministically):
//
//   - Transient provisioning failures retry with exponential backoff and
//     jitter (RetryConfig); deterministic compile/verification failures
//     fail fast (see faas.IsTransient).
//   - Per-tenant circuit breakers (BreakerConfig) trip on the tenant's
//     fault+timeout rate, shed fast while open (StatusShed with
//     ErrBreakerOpen), and half-open on a timer with probe requests.
//   - A faulted or timed-out instance is quarantined: Reset, then a
//     verified-reset check (sandbox.Instance.HeapHash — a digest of the
//     resident pages of every linear memory the instance owns, grown
//     pages and extra memories included — against the baseline taken
//     from the fresh instance at every cold provision). An instance whose
//     reset failed to restore the initial image — a poisoned instance —
//     is discarded, never reused.
//   - Submit after Close returns a typed ErrClosed response; requests
//     admitted before Close drain with their real outcomes recorded.
//
// Per-request deadlines ride on the engines' existing instruction budget
// ("fuel"): a request that exhausts its budget stops with cpu.StopLimit and
// is surfaced as StatusTimeout. Each request makes one entry in a
// stats.Recorder — the shard ledger: one row per tenant holding its
// outcome, host-call, tier and substrate counts and a fixed-size latency
// histogram, with shard totals (p50/p99/p999, throughput, shed rate)
// derived by summing rows — so fairness and breaker behaviour are
// observable.
//
// Submission is context-aware: Submit(ctx, req) resolves StatusCanceled the
// moment ctx is cancelled while the request still sits in its DRR tenant
// queue — the request is unlinked from the queue without ever occupying a
// worker, which is what lets an HTTP front-end abandon a queued request
// when its client disconnects. A context deadline additionally propagates
// into the fuel budget (Config.FuelPerSecond), so a request dispatched
// close to its deadline runs with a correspondingly smaller instruction
// budget and times out rather than overstaying. Cancellation is part of
// the exact-conservation contract: every admitted request resolves with
// exactly one of ok/timeout/fault/shed/rejected/canceled.
package host

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hfi/internal/chaos"
	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/sandbox"
	"hfi/internal/stats"
	"hfi/internal/tier"
	"hfi/internal/verifier"
	"hfi/internal/workloads"
)

// Policy selects what a full admission queue does to new requests.
type Policy uint8

// Backpressure policies.
const (
	// PolicyDefault (the zero value) inherits the server-level policy; at
	// the server level it means PolicyBlock.
	PolicyDefault Policy = iota
	// PolicyBlock applies backpressure to the submitter: Submit blocks
	// until the tenant's queue drains (a closed-loop client slows down).
	PolicyBlock
	// PolicyShed rejects immediately with StatusShed when the tenant's
	// queue is full — the HTTP-429 path — and counts the rejection.
	PolicyShed
)

func (p Policy) String() string {
	switch p {
	case PolicyShed:
		return "shed"
	case PolicyBlock:
		return "block"
	default:
		return "default"
	}
}

// ParsePolicy reads a backpressure policy as the CLIs and the shard spec
// spell it: "block" or "shed"; "" yields def, anything else is an error.
func ParsePolicy(s string, def Policy) (Policy, error) {
	switch s {
	case "":
		return def, nil
	case "block":
		return PolicyBlock, nil
	case "shed":
		return PolicyShed, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want block or shed)", s)
}

// TenantPolicy is one tenant's admission configuration: its DRR weight,
// its queue bound, and what happens when that queue is full. Zero fields
// inherit the server defaults.
type TenantPolicy struct {
	// Weight scales the tenant's DRR share: a weight-2 tenant dispatches
	// twice as many requests per scheduler round as a weight-1 tenant
	// when both have backlog (0 = 1).
	Weight int
	// QueueDepth bounds the tenant's admission queue (0 = Config.QueueDepth).
	QueueDepth int
	// Policy is the tenant's backpressure policy (PolicyDefault =
	// Config.Policy).
	Policy Policy
}

func (p TenantPolicy) weight() int {
	if p.Weight <= 0 {
		return 1
	}
	return p.Weight
}

// RetryConfig bounds provisioning retries for transient failures.
type RetryConfig struct {
	// Max is the number of retries after the first attempt (0 = fail on
	// the first error, the old behaviour).
	Max int
	// Base is the first backoff; attempt k waits ~Base·2^k with jitter
	// (default 200µs).
	Base time.Duration
	// Cap bounds a single backoff (default 10ms).
	Cap time.Duration
}

func (r RetryConfig) withDefaults() RetryConfig {
	if r.Base <= 0 {
		r.Base = 200 * time.Microsecond
	}
	if r.Cap <= 0 {
		r.Cap = 10 * time.Millisecond
	}
	return r
}

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of worker goroutines; each owns its own warm
	// instance pool. Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds each tenant's admission queue. Defaults to
	// 2*Workers.
	QueueDepth int
	// Policy is the default backpressure policy when a tenant queue is
	// full (PolicyDefault = PolicyBlock).
	Policy Policy
	// Quantum is the DRR quantum: requests a weight-1 tenant may dispatch
	// per scheduler round (default 1).
	Quantum int
	// Tenants overrides per-tenant weight, depth, and shed policy.
	Tenants map[string]TenantPolicy
	// Fuel is the default per-request instruction budget (0 = unlimited).
	// A request exceeding it stops with cpu.StopLimit → StatusTimeout.
	Fuel uint64
	// FuelPerSecond converts a context deadline into fuel: a request
	// dispatched with d wall time left before its deadline runs with at
	// most d × FuelPerSecond instructions (clamped below the configured
	// budget, never above it). 0 disables the conversion — deadlines then
	// only cancel requests still waiting in queue.
	FuelPerSecond uint64
	// DispatchWall models the per-request platform work outside the
	// sandbox (network receive, routing, response send) as real wall time,
	// the wall-clock twin of faas.DispatchOverheadNs on the simulated
	// clock. Workers overlap these waits, so throughput scales with the
	// pool even when guest execution itself is bottlenecked on CPU.
	DispatchWall time.Duration
	// Retry bounds provisioning retries for transient failures.
	Retry RetryConfig
	// Breaker configures the per-tenant circuit breaker (zero = disabled).
	Breaker BreakerConfig
	// Pool bounds each worker's warm-instance pool (zero = unbounded, no
	// TTL).
	Pool PoolConfig
	// Chaos, when non-nil, injects deterministic faults at the serving
	// seams (see internal/chaos). nil serves clean.
	Chaos *chaos.Injector
	// OnProvision, when non-nil, observes every successfully provisioned
	// TenantInstance before it serves its first request — the
	// instrumentation seam the substrate chaos soak uses to arm its
	// cross-tenant escape oracle (canary mappings plus a memory-access
	// hook) on every machine the server builds. Called on the owning
	// worker's goroutine; the instance is still worker-private.
	OnProvision func(*faas.TenantInstance)
	// Seed seeds the retry-jitter PRNGs (0 = 1). Jitter affects timing
	// only, never outcomes.
	Seed int64
}

// tenantPolicy resolves the effective policy for one tenant.
func (c *Config) tenantPolicy(name string) TenantPolicy {
	p := c.Tenants[name]
	if p.QueueDepth <= 0 {
		p.QueueDepth = c.QueueDepth
	}
	if p.Policy == PolicyDefault {
		p.Policy = c.Policy
	}
	if p.Policy == PolicyDefault {
		p.Policy = PolicyBlock
	}
	if p.Weight <= 0 {
		p.Weight = 1
	}
	return p
}

func (c *Config) quantum() int {
	if c.Quantum <= 0 {
		return 1
	}
	return c.Quantum
}

// Status classifies a response.
type Status uint8

// Response statuses.
const (
	StatusOK      Status = iota // guest halted normally; Body is valid
	StatusTimeout               // fuel budget exhausted (cpu.StopLimit)
	StatusShed                  // rejected at admission (queue full or breaker open)
	StatusFault                 // guest fault or provisioning error
	// StatusRejected: the tenant's compiled program failed static
	// verification at provisioning (a *verifier.RejectError is in Err),
	// or the chaos injector refused the request at admission. Distinct
	// from shed: a shed request lost the capacity race, a rejected one
	// was refused on proof grounds and never ran.
	StatusRejected
	// StatusClosed: the request arrived after Close; Err is ErrClosed.
	// Never recorded — a closed server admits nothing.
	StatusClosed
	// StatusCanceled: the request's context was cancelled (or its deadline
	// passed) while it was still waiting — blocked at admission or queued
	// in its tenant's DRR queue — so it was unlinked and never occupied a
	// worker. Err carries ctx.Err(). Requests already dispatched to a
	// worker are never interrupted; a deadline that expires mid-run
	// surfaces as StatusTimeout via the fuel budget instead.
	StatusCanceled
)

var statusNames = [...]string{"ok", "timeout", "shed", "fault", "rejected", "closed", "canceled"}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Typed admission-refusal errors.
var (
	// ErrClosed is returned (inside a StatusClosed response) by Submit
	// after Close.
	ErrClosed = errors.New("host: server closed")
	// ErrBreakerOpen marks sheds caused by the tenant's circuit breaker
	// rather than queue capacity.
	ErrBreakerOpen = errors.New("host: tenant circuit breaker open")
)

// Request is one guest invocation: the seq'th request of tenant's stream,
// served under the given isolation configuration. Build requests with
// NewRequest — the one construction path the HTTP front-end, the load
// generators, and the tests share.
type Request struct {
	Tenant workloads.Tenant
	Iso    faas.Config
	Seq    uint64
	// Fuel overrides the server's default budget when nonzero.
	Fuel uint64
	// Body overrides the tenant's canonical request generator: when
	// non-nil these bytes are written as the guest request verbatim (the
	// HTTP body → guest request mapping); when nil the body is derived
	// from Tenant.MakeRequest(Seq).
	Body []byte
}

// RequestOpt customizes a Request built by NewRequest.
type RequestOpt func(*Request)

// WithWorkload supplies the tenant's executable workload (module and
// canonical request generator). The tenant name given to NewRequest stays
// authoritative — an HTTP route may serve a workload under its own name.
func WithWorkload(w workloads.Tenant) RequestOpt {
	return func(r *Request) {
		r.Tenant.Mod = w.Mod
		r.Tenant.MakeRequest = w.MakeRequest
		r.Tenant.Stream = w.Stream
	}
}

// WithIso selects the isolation configuration the request runs under.
func WithIso(cfg faas.Config) RequestOpt {
	return func(r *Request) { r.Iso = cfg }
}

// WithFuel overrides the server's default instruction budget (0 keeps it).
func WithFuel(n uint64) RequestOpt {
	return func(r *Request) { r.Fuel = n }
}

// WithBody makes the request carry an explicit guest request body instead
// of the tenant's MakeRequest(Seq) output. A nil or empty body keeps the
// canonical generator.
func WithBody(b []byte) RequestOpt {
	return func(r *Request) {
		if len(b) > 0 {
			r.Body = b
		}
	}
}

// NewRequest builds the seq'th request of tenant's stream. Options attach
// the workload, the isolation configuration, a fuel override, and an
// explicit body; every call site — cmds, tests, load generators, and the
// HTTP layer — constructs requests through here.
func NewRequest(tenant string, seq uint64, opts ...RequestOpt) Request {
	r := Request{Tenant: workloads.Tenant{Name: tenant}, Seq: seq}
	for _, opt := range opts {
		opt(&r)
	}
	return r
}

// Response reports one request's outcome.
type Response struct {
	Status  Status
	Body    []byte         // response bytes (StatusOK only)
	Stop    cpu.StopReason // engine stop reason for executed requests
	Err     error          // admission/provisioning error detail
	Worker  int            // worker that served the request
	Latency time.Duration  // wall time from admission to completion
}

// callState tracks where a call is in its lifecycle. Guarded by the
// scheduler's mutex — it is what makes cancellation race-free: exactly one
// of {cancel watcher, dequeue path, admission path} resolves each call.
type callState uint8

const (
	callWaiting    callState = iota // blocked at admission (PolicyBlock, queue full)
	callQueued                      // sitting in its tenant's DRR queue
	callDispatched                  // handed to a worker; cancellation is too late
	callDone                        // resolved (any status)
)

type call struct {
	req     Request
	ctx     context.Context
	t0      time.Time
	done    chan Response
	settled chan struct{} // closed at dispatch; stops the cancel watcher
	state   callState     // guarded by sched.mu
}

// poolKey identifies a warm-instance pool slot: one tenant under one
// isolation configuration.
type poolKey struct {
	tenant string
	iso    faas.Config
}

// Server is the concurrent serving layer. Create with New, feed with
// Submit/Do, then Close. Submit after Close resolves with ErrClosed.
type Server struct {
	cfg     Config
	sched   *scheduler
	rec     *stats.Recorder
	wg      sync.WaitGroup
	started time.Time

	// admitted is deliberately not in the ledger: it is the other side of
	// the conservation identity (admitted == Σ outcomes), counted where a
	// request enters, not where it resolves.
	admitted   atomic.Uint64
	coldStarts atomic.Uint64
	retries    atomic.Uint64
	quarantine atomic.Uint64
	discarded  atomic.Uint64
	evictions  atomic.Uint64
	teardowns  atomic.Uint64
	closedRefs atomic.Uint64
	poolSize   atomic.Int64
	poolHigh   atomic.Int64

	// images is the one cache every worker provisions through: it lives
	// as long as the server, and its counts are this server's alone.
	images *sandbox.CodeCache
}

// New starts a server with cfg.Workers goroutines waiting on the
// scheduler.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cfg.Retry = cfg.Retry.withDefaults()
	s := &Server{
		cfg:     cfg,
		rec:     stats.NewRecorder(),
		started: time.Now(),
		images:  sandbox.NewCodeCache(),
	}
	s.sched = newScheduler(&s.cfg)
	s.sched.srv = s
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// Workers reports the configured pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// Submit admits one request and returns a channel that receives exactly
// one Response. A full tenant queue blocks the caller (PolicyBlock) or
// resolves immediately with StatusShed (PolicyShed); an open circuit
// breaker sheds fast with ErrBreakerOpen; a closed server resolves with
// StatusClosed/ErrClosed. Cancelling ctx while the request waits —
// blocked at admission or queued — resolves StatusCanceled and unlinks
// the request without it ever occupying a worker; a nil ctx means
// context.Background(). The admission decision, its counter, and the
// enqueue form one critical section, so outcome accounting is exact:
// every admitted request resolves with exactly one of
// ok/timeout/fault/shed/rejected/canceled.
func (s *Server) Submit(ctx context.Context, req Request) <-chan Response {
	if ctx == nil {
		ctx = context.Background()
	}
	done := make(chan Response, 1)
	c := &call{req: req, ctx: ctx, t0: time.Now(), done: done, settled: make(chan struct{})}
	name := req.Tenant.Name
	sc := s.sched

	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		s.closedRefs.Add(1)
		done <- Response{Status: StatusClosed, Err: ErrClosed}
		return done
	}
	if ctx.Err() != nil {
		// Cancelled before admission even started: accounted like any
		// other admitted-then-canceled request so conservation holds.
		s.admitted.Add(1)
		s.resolveCanceledLocked(c)
		sc.mu.Unlock()
		return done
	}
	// Chaos seam: transient verifier rejection at admission — refused on
	// (injected) proof grounds before touching a queue or sandbox.
	if err := s.cfg.Chaos.RejectAtAdmission(name, int(req.Seq)); err != nil {
		s.admitted.Add(1)
		s.rec.RecordTenant(name, stats.OutcomeRejected, 0)
		c.state = callDone
		sc.mu.Unlock()
		done <- Response{Status: StatusRejected, Err: err}
		return done
	}
	tq := sc.tenant(name)
	if !tq.br.allow(time.Now()) {
		s.admitted.Add(1)
		s.rec.RecordTenant(name, stats.OutcomeShed, 0)
		c.state = callDone
		sc.mu.Unlock()
		done <- Response{Status: StatusShed, Err: ErrBreakerOpen}
		return done
	}
	watching := false
	if tq.pol.Policy == PolicyShed {
		if tq.qlen() >= tq.pol.QueueDepth {
			s.admitted.Add(1)
			s.rec.RecordTenant(name, stats.OutcomeShed, 0)
			c.state = callDone
			sc.mu.Unlock()
			done <- Response{Status: StatusShed}
			return done
		}
	} else {
		for tq.qlen() >= tq.pol.QueueDepth {
			// The watcher wakes this wait when ctx fires; the loop re-checks
			// the context each wake, so a cancelled submitter stops blocking.
			if ctx.Err() != nil {
				s.admitted.Add(1)
				s.resolveCanceledLocked(c)
				sc.mu.Unlock()
				return done
			}
			if !watching {
				watching = true
				s.watchCancel(c)
			}
			sc.notFull.Wait()
			if sc.closed {
				c.state = callDone
				sc.mu.Unlock()
				s.closedRefs.Add(1)
				done <- Response{Status: StatusClosed, Err: ErrClosed}
				return done
			}
		}
	}
	if ctx.Err() != nil {
		// ctx fired while this goroutine held the admission lock (the
		// watcher, if any, saw callWaiting and could only wake us): resolve
		// here rather than enqueueing a dead request.
		s.admitted.Add(1)
		s.resolveCanceledLocked(c)
		sc.mu.Unlock()
		return done
	}
	s.admitted.Add(1)
	c.state = callQueued
	sc.enqueue(tq, c)
	if !watching && ctx.Done() != nil {
		s.watchCancel(c)
	}
	sc.mu.Unlock()
	return done
}

// Do submits and waits for the response.
func (s *Server) Do(ctx context.Context, req Request) Response { return <-s.Submit(ctx, req) }

// watchCancel arms the per-call cancel watcher: one goroutine selecting
// ctx.Done() against the call's dispatch. Only armed for cancellable
// contexts, so background-context traffic pays nothing.
func (s *Server) watchCancel(c *call) {
	if c.ctx.Done() == nil {
		return
	}
	go func() {
		select {
		case <-c.ctx.Done():
			s.cancelCall(c)
		case <-c.settled:
		}
	}()
}

// cancelCall is the watcher's entry: if the call is still queued, unlink
// it from its tenant's DRR queue and resolve StatusCanceled; if it is
// still blocked at admission, wake the submitter to observe its context;
// dispatched or resolved calls are left alone.
func (s *Server) cancelCall(c *call) {
	sc := s.sched
	sc.mu.Lock()
	switch c.state {
	case callWaiting:
		sc.notFull.Broadcast()
		sc.mu.Unlock()
	case callQueued:
		if sc.unlink(c) {
			s.resolveCanceledLocked(c)
			sc.notFull.Broadcast()
		}
		sc.mu.Unlock()
	default:
		sc.mu.Unlock()
	}
}

// resolveCanceledLocked accounts and resolves a canceled call. Caller
// holds sched.mu and has already counted the call as admitted (queued
// calls were admitted at enqueue; pre-admission cancels count themselves).
// The response channel is buffered, so the send cannot block under the
// lock.
func (s *Server) resolveCanceledLocked(c *call) {
	c.state = callDone
	s.rec.RecordTenant(c.req.Tenant.Name, stats.OutcomeCanceled, 0)
	c.done <- Response{Status: StatusCanceled, Err: context.Cause(c.ctx), Latency: time.Since(c.t0)}
}

// Close stops admissions, drains every queued and in-flight request with
// its real outcome recorded, tears down the worker pools, and waits for
// the workers to exit. Safe to call concurrently with Submit and more than
// once.
func (s *Server) Close() {
	s.sched.close()
	s.wg.Wait()
}

// Snapshot summarizes latencies and outcomes so far, with throughput
// computed over the given wall window (pass time.Since(start) of the load
// run, or 0 to skip throughput).
func (s *Server) Snapshot(elapsed time.Duration) stats.ServeSummary {
	return s.rec.Snapshot(float64(elapsed.Nanoseconds()))
}

// TenantSummaries reports the per-tenant outcome breakdown (sorted by
// tenant name) — the observability fairness and breaker behaviour are
// judged by.
func (s *Server) TenantSummaries() []stats.TenantSummary {
	return s.rec.TenantSummaries()
}

// Ledger returns the serve summary, the per-tenant rows and the counters
// cut from one copy of the ledger: serve is exactly the sum of tenants, and
// the counters' ledger-derived fields are exactly serve's. This is what
// /statsz serves.
func (s *Server) Ledger(elapsed time.Duration) (stats.ServeSummary, []stats.TenantSummary, Counters) {
	serve, tenants := s.rec.Ledger(float64(elapsed.Nanoseconds()))
	return serve, tenants, s.counters(serve.Counts)
}

// BreakerStatus is one tenant's circuit-breaker state as surfaced on the
// wire (/statsz): the state machine position plus lifetime trips. Tenants
// whose breaker is disabled (BreakerConfig.Window == 0) are omitted.
type BreakerStatus struct {
	Tenant string `json:"tenant"`
	State  string `json:"state"` // "closed" | "open" | "half-open"
	Trips  uint64 `json:"trips"`
}

// BreakerStates snapshots every tenant breaker, sorted by tenant name —
// the signal a routing tier uses to decide a shard is degraded and hedge
// requests elsewhere.
func (s *Server) BreakerStates() []BreakerStatus {
	return s.sched.breakerStates()
}

// Admitted counts requests that entered outcome accounting: every Submit
// that did not hit a closed server. Conservation invariant:
// Admitted == OK + Timeouts + Faults + Shed + Rejected + Canceled once
// all submitted requests have resolved.
func (s *Server) Admitted() uint64 { return s.admitted.Load() }

// Counters is a point-in-time view of the server's robustness machinery.
type Counters struct {
	Admitted          uint64 `json:"admitted"`
	ColdStarts        uint64 `json:"cold_starts"`
	Shed              uint64 `json:"shed"`
	Canceled          uint64 `json:"canceled"`
	ClosedRejects     uint64 `json:"closed_rejects"`
	ProvisionRetries  uint64 `json:"provision_retries"`
	Quarantined       uint64 `json:"quarantined"`
	QuarantineDiscard uint64 `json:"quarantine_discards"`
	Evictions         uint64 `json:"evictions"`
	Teardowns         uint64 `json:"teardowns"`
	PoolSize          int64  `json:"pool_size"`
	PoolHighWater     int64  `json:"pool_high_water"`
	BreakerTrips      uint64 `json:"breaker_trips"`

	// Tiered-engine activity across all workers: gate-admitted blocks
	// (fusable blocks each gate derivation admitted, summed), the
	// guest-instruction retirement split between the tiers, and the
	// lowering hits and misses of the server's own image cache, which every
	// worker provisions through (a lowering is built exactly when its
	// image is, so these are the image counts).
	TierPromotedBlocks uint64 `json:"tier_promoted_blocks"`
	TierInstrs         uint64 `json:"tier_instrs"`
	TierInterpInstrs   uint64 `json:"tier_interp_instrs"`
	LoweringHits       uint64 `json:"lowering_hits"`
	LoweringMisses     uint64 `json:"lowering_misses"`

	// Substrate is the substrate chaos accounting across all workers
	// (conservation: Injected == Detected + Benign and Recovered ==
	// Detected).
	Substrate stats.SubstrateCounters `json:"substrate"`
}

// Counters snapshots the robustness counters.
func (s *Server) Counters() Counters {
	_, _, c := s.Ledger(0)
	return c
}

// counters fills Shed, Canceled, the tier fields and Substrate from the
// ledger totals led — the ledger is their only home — and the rest from
// the server's own gauges. led was read before Admitted is loaded here, and
// a request is counted admitted before it is recorded, so
// led.Admitted() <= Counters.Admitted in every snapshot, with equality once
// every submitted request has resolved.
func (s *Server) counters(led stats.Counts) Counters {
	c := Counters{
		Admitted:          s.admitted.Load(),
		ColdStarts:        s.coldStarts.Load(),
		Shed:              led.Shed,
		Canceled:          led.Canceled,
		ClosedRejects:     s.closedRefs.Load(),
		ProvisionRetries:  s.retries.Load(),
		Quarantined:       s.quarantine.Load(),
		QuarantineDiscard: s.discarded.Load(),
		Evictions:         s.evictions.Load(),
		Teardowns:         s.teardowns.Load(),
		PoolSize:          s.poolSize.Load(),
		PoolHighWater:     s.poolHigh.Load(),
		BreakerTrips:      s.sched.breakerTrips(),

		TierPromotedBlocks: led.Tier.PromotedBlocks,
		TierInstrs:         led.Tier.TieredInstrs,
		TierInterpInstrs:   led.Tier.InterpInstrs,

		Substrate: led.Substrate,
	}
	c.LoweringHits, c.LoweringMisses = s.images.Stats()
	return c
}

// ChaosSummary snapshots the chaos injector's per-class fire counts, or
// nil when the server runs clean — the /statsz surface for chaos
// observability.
func (s *Server) ChaosSummary() *chaos.Summary {
	if s.cfg.Chaos == nil {
		return nil
	}
	sum := s.cfg.Chaos.Snapshot()
	return &sum
}

// poolGrew maintains the aggregate pool-size gauge and its high-water
// mark across all workers.
func (s *Server) poolGrew(delta int64) {
	n := s.poolSize.Add(delta)
	for {
		high := s.poolHigh.Load()
		if n <= high || s.poolHigh.CompareAndSwap(high, n) {
			return
		}
	}
}

// worker owns a private pool of warm instances and serves scheduler
// entries until the scheduler closes and drains. Nothing in the pool ever
// crosses goroutines.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	pool := newInstPool(s)
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(id)*0x9E3779B9))
	for {
		c, ok := s.sched.next()
		if !ok {
			break
		}
		var d stats.Counts
		resp := s.serveOne(id, pool, rng, c, &d)
		resp.Latency = time.Since(c.t0)
		s.finish(c, resp, d)
	}
	pool.drain()
}

// finish makes the request's one ledger entry — its outcome, latency and
// the host-call/tier/substrate traffic d that serveOne harvested — feeds
// the tenant's circuit breaker, and resolves the caller's channel.
func (s *Server) finish(c *call, resp Response, d stats.Counts) {
	name := c.req.Tenant.Name
	lat := float64(resp.Latency.Nanoseconds())
	var o stats.Outcome
	failed := false
	switch resp.Status {
	case StatusOK:
		o = stats.OutcomeOK
	case StatusTimeout:
		o = stats.OutcomeTimeout
		failed = true
	case StatusRejected:
		o, lat = stats.OutcomeRejected, 0
	default:
		o = stats.OutcomeFault
		failed = true
	}
	s.rec.RecordRequest(name, o, lat, d)
	if o != stats.OutcomeRejected {
		// Rejections never probed the tenant's runtime health; everything
		// else updates the breaker window.
		s.sched.reportOutcome(name, failed, time.Now())
	}
	c.done <- resp
}

// chaosGarbage is the deterministic mid-request dirt an injected trap
// leaves in the heap — what a genuinely aborted guest leaves behind.
var chaosGarbage = func() []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(0xA5 ^ i)
	}
	return b
}()

// serveOne runs one request on the worker's warm instance for its
// (tenant, config), provisioning (with retry) on pool miss and
// quarantining the instance on any abnormal stop. The traffic the request
// generated below the outcome — host calls, tier retirement, substrate
// accounting — accumulates into d for finish to record.
func (s *Server) serveOne(id int, pool *instPool, rng *rand.Rand, c *call, d *stats.Counts) Response {
	req := c.req
	name := req.Tenant.Name
	seq := int(req.Seq)
	inj := s.cfg.Chaos
	if d := s.cfg.DispatchWall + inj.SlowDown(name, seq); d > 0 {
		time.Sleep(d)
	}
	key := poolKey{name, req.Iso}
	ent := pool.get(key, time.Now())
	if ent == nil {
		ti, resp, ok := s.provision(id, rng, req)
		if !ok {
			return resp
		}
		ent = pool.put(key, ti, ti.Inst.HeapHash(), time.Now())
		s.coldStarts.Add(1)
	}
	fuel := req.Fuel
	if fuel == 0 {
		fuel = s.cfg.Fuel
	}
	fuel = s.deadlineFuel(c.ctx, fuel)
	var body []byte
	var res cpu.RunResult
	if inj.Trap(name, seq) {
		// Injected mid-request trap: dirty the heap the way an aborted
		// guest would, then surface the fault. The recovery path below
		// must clean this up or the next pooled reuse is corrupted.
		ent.ti.Inst.WriteHeap(1024, chaosGarbage)
		res = cpu.RunResult{Reason: cpu.StopFault}
	} else {
		if f, ok := inj.StarveFuel(name, seq); ok {
			fuel = f
		}
		// Chaos seam: arm a hostcall-layer fault (transient error, quota
		// exhaustion, slow call) for this request; consumed at dispatch.
		ent.ti.ArmHostcallFault(inj.Hostcall(name, seq))
		if req.Body != nil {
			body, res = ent.ti.ServeBody(req.Body, fuel)
		} else {
			body, res = ent.ti.ServeRequest(seq, fuel)
		}
		if env := ent.ti.Env; env != nil {
			hc := &d.Hostcalls
			hc.Calls, hc.BytesIn, hc.BytesOut, hc.QuotaRejects = env.TakeCounters()
		}
		d.Tier = ent.ti.TierCountersDelta()
	}
	switch res.Reason {
	case cpu.StopHalt:
		if layer, bad := s.substrateStage(ent, req, &d.Substrate); bad {
			// A substrate audit fired: the instance's below-the-seams state
			// is corrupt. Quarantine it (Reset + verified-reset check, same
			// contract as a guest fault) and fold the request into the fault
			// outcome with the typed audit error, so the conservation
			// identity admitted == ok+timeout+fault+shed+rejected+canceled
			// holds with substrate chaos active.
			s.quarantineInstance(pool, ent, req)
			return Response{
				Status: StatusFault, Stop: res.Reason,
				Err: &cpu.SubstrateError{Layer: layer}, Worker: id,
			}
		}
		return Response{Status: StatusOK, Body: body, Stop: res.Reason, Worker: id}
	case cpu.StopLimit:
		// Deadline exceeded mid-run: the instance memory is mid-request
		// garbage; quarantine before the pool reuses it.
		s.quarantineInstance(pool, ent, req)
		return Response{Status: StatusTimeout, Stop: res.Reason, Worker: id}
	default:
		s.quarantineInstance(pool, ent, req)
		return Response{Status: StatusFault, Stop: res.Reason, Worker: id}
	}
}

// substrateStage is the end-of-request substrate chaos seam and its
// detection counterpart, run on every successfully served request (the
// StopHalt path only — faulted and timed-out requests already quarantine).
// The injection side plants the four below-the-seams fault classes the
// chaos injector draws for this (tenant, seq): a bit flip in the guest
// heap, a stale page-decision-cache entry surviving a suppressed
// invalidation, clock skew between the worker's rails, and a corrupted
// cached-lowering gate verdict. The detection side then audits
// unconditionally — a sampled, cost-modeled heap-hash spot check plus
// three always-on cheap cross-audits (cache generation tags, tier gate
// freshness, clock drift) — and recovers in place: flush the decision
// caches, invalidate the tier gate's verdicts, resync the clock. Faults
// are injected end-of-request so every plant is either detected by this
// request's audits or benign by construction (cold state recycled before
// any consumer reads it); nothing carries across requests, which is what
// makes the soak's detection counts exactly predictable.
//
// Returns the first audit layer that fired and whether any did; the
// caller quarantines on detection. The accounting accumulates into sc,
// which finish records with the request. Counter conservation, maintained
// here and asserted by the soak: Injected == Detected + Benign per class
// sum, and Recovered == Detected (every detection completes recovery).
func (s *Server) substrateStage(ent *poolEntry, req Request, sc *stats.SubstrateCounters) (string, bool) {
	inj := s.cfg.Chaos
	name := req.Tenant.Name
	seq := int(req.Seq)
	ti := ent.ti
	m := ti.RT.M
	layer := ""
	detect := func(l string) {
		sc.Detected++
		sc.Recovered++
		if layer == "" {
			layer = l
		}
	}

	// Draws — each a pure function of (class, tenant, seq), so the soak's
	// single-threaded predictor replays exactly this sequence.
	flip := inj.BitFlip(name, seq)
	spot := inj.SpotCheck(name, seq)
	tlbLive, tlbOK := inj.TLBStale(name, seq)
	skewNs, skewLive, skewOK := inj.ClockSkew(name, seq)
	te, tiered := ti.Eng.(*tier.Engine)
	var rotPick uint64
	var rotLive, rotOK bool
	if tiered && te.HasLowering() {
		// Rot is only drawable when there is a cached lowering to corrupt;
		// the predictor mirrors this by provisioning a reference instance.
		rotPick, rotLive, rotOK = inj.LoweringRot(name, seq)
	}

	// Heap integrity: the sampled spot check resets the instance and pays
	// the cost-modeled hash scrub; a flip drawn for a sampled request
	// strikes a live initial-heap page inside the audit window (guaranteed
	// mismatch against the verified-reset baseline). A flip on an
	// unsampled request is a transient upset that self-corrects before
	// any reader — real corruption below the seams for an instant,
	// undetectable and benign by construction.
	if spot {
		ti.Inst.Reset()
		if ti.Env != nil {
			ti.Env.ResetSession()
		}
		if flip {
			sc.Injected++
			place, mask := inj.BitFlipSpec(name, seq)
			off := uint64(place * float64(ti.Inst.InitialHeapBytes()))
			if off >= ti.Inst.InitialHeapBytes() {
				off = ti.Inst.InitialHeapBytes() - 1
			}
			ti.Inst.FlipHeapBit(off, mask)
		}
		if ti.Inst.AuditHeapHash() != ent.baseline {
			detect("heap-hash")
		}
	} else if flip {
		sc.Injected++
		sc.Benign++
		place, mask := inj.BitFlipSpec(name, seq)
		off := uint64(place * float64(ti.Inst.InitialHeapBytes()))
		if off >= ti.Inst.InitialHeapBytes() {
			off = ti.Inst.InitialHeapBytes() - 1
		}
		ti.Inst.FlipHeapBit(off, mask)
		ti.Inst.FlipHeapBit(off, mask)
	}

	// Plant the remaining classes: the state a lost shootdown leaves in
	// the decision caches, skew between the clock rails (differential when
	// live, common-mode — invisible and harmless — when dead), and a
	// flipped gate verdict on a cached lowering.
	if tlbOK {
		sc.Injected++
		m.PlantStaleDTC(tlbLive, uint64(seq))
	}
	if skewOK {
		sc.Injected++
		m.Kern.Clock.SkewNs(skewNs, !skewLive)
	}
	if rotOK {
		sc.Injected++
		te.PlantGateRot(rotLive, rotPick)
	}

	// Always-on cross-audits (a handful of integer compares each), with
	// in-place recovery. A dead plant passes its audit and is accounted
	// benign; an audit firing with no matching plant would break the
	// Injected == Detected + Benign identity and fail the soak loudly —
	// the audits double as regression tripwires for genuine corruption.
	if !m.AuditCacheGens() {
		m.FlushDTC()
		detect("dtc-gen")
	} else if tlbOK {
		sc.Benign++
	}
	if tiered && !te.AuditGate() {
		te.Invalidate()
		detect("tier-gate")
	} else if rotOK {
		sc.Benign++
	}
	if clock := m.Kern.Clock; clock.DriftNs() != 0 {
		clock.Resync()
		detect("clock-drift")
	} else if skewOK {
		sc.Benign++
	}

	return layer, layer != ""
}

// deadlineFuel clamps a request's fuel budget to the wall time left
// before its context deadline, at Config.FuelPerSecond instructions per
// second. The conversion only ever shrinks the budget: a generous
// deadline never buys more fuel than the configured cap, and a deadline
// already in the past leaves a single instruction so the run surfaces as
// a deterministic StatusTimeout (StopLimit) rather than a special case.
func (s *Server) deadlineFuel(ctx context.Context, fuel uint64) uint64 {
	if s.cfg.FuelPerSecond == 0 || ctx == nil {
		return fuel
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return fuel
	}
	left := time.Until(dl)
	if left <= 0 {
		return 1
	}
	budget := uint64(left.Seconds() * float64(s.cfg.FuelPerSecond))
	if budget == 0 {
		budget = 1
	}
	if fuel == 0 || budget < fuel {
		// fuel == 0 means "unlimited": the deadline becomes the only cap.
		return budget
	}
	return fuel
}

// quarantineInstance is the recovery path for a faulted or timed-out
// instance: Reset, then verify the reset actually restored the
// post-provision heap image (sandbox.Instance.HeapHash against the
// baseline taken at provisioning). A verified instance returns to the
// pool; a poisoned one — reset did not restore it — is discarded and torn
// down, never reused ("Isolation Without Taxation": reuse is only safe if
// post-fault state is provably reset).
func (s *Server) quarantineInstance(pool *instPool, ent *poolEntry, req Request) {
	s.quarantine.Add(1)
	ent.ti.Inst.Reset()
	if ent.ti.Env != nil {
		// Host-side session state (fd table, streams) is mid-request
		// garbage too; reset it alongside the heap.
		ent.ti.Env.ResetSession()
	}
	if s.cfg.Chaos.Poison(req.Tenant.Name, int(req.Seq)) {
		// Chaos seam: lingering post-Reset corruption, as an incomplete
		// reset (or a bug in it) would leave. The hash check must catch it.
		ent.ti.Inst.WriteHeap(1500, []byte{0xDE, 0xAD, 0xBE, 0xEF})
	}
	if ent.ti.Inst.HeapHash() != ent.baseline {
		pool.discard(ent)
	}
}

// provision builds a warm instance for the request, retrying transient
// failures with exponential backoff and jitter. Verification rejections
// (typed *verifier.RejectError) and other deterministic failures fail
// fast.
func (s *Server) provision(id int, rng *rand.Rand, req Request) (*faas.TenantInstance, Response, bool) {
	name := req.Tenant.Name
	for attempt := 0; ; attempt++ {
		err := s.cfg.Chaos.ProvisionError(name, attempt)
		var ti *faas.TenantInstance
		if err == nil {
			ti, err = faas.ProvisionShared(req.Tenant, req.Iso, s.images)
		}
		if err == nil {
			if s.cfg.OnProvision != nil {
				s.cfg.OnProvision(ti)
			}
			return ti, Response{}, true
		}
		var re *verifier.RejectError
		if errors.As(err, &re) {
			return nil, Response{Status: StatusRejected, Err: err, Worker: id}, false
		}
		if attempt >= s.cfg.Retry.Max || !faas.IsTransient(err) {
			return nil, Response{Status: StatusFault, Err: err, Worker: id}, false
		}
		s.retries.Add(1)
		time.Sleep(backoff(s.cfg.Retry, attempt, rng))
	}
}

// backoff computes the attempt'th retry delay: exponential growth capped
// at Cap, with uniform jitter in [d/2, d] so synchronized retry storms
// decorrelate. Jitter shifts timing only; outcomes never depend on it.
func backoff(r RetryConfig, attempt int, rng *rand.Rand) time.Duration {
	d := r.Base
	for i := 0; i < attempt && d < r.Cap; i++ {
		d *= 2
	}
	if d > r.Cap {
		d = r.Cap
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}
