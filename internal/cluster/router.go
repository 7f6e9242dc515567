package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hfi/internal/chaos"
	"hfi/internal/httpfront"
)

// Config tunes the router's placement and resilience policy.
type Config struct {
	// VNodes per shard on the consistent-hash ring (0 ⇒ 64).
	VNodes int
	// LoadFactor is the bounded-load multiplier: a shard is skipped while
	// it holds more than ceil(LoadFactor × placements / healthy shards)
	// tenant placements (0 ⇒ 1.25, the classic CHWBL setting).
	LoadFactor float64
	// HedgeAfter is how long a request routed to a degraded shard waits
	// for the primary before firing the duplicate at the tenant's
	// successor shard (0 ⇒ 2ms).
	HedgeAfter time.Duration
	// RetryMax bounds re-route rounds after transport failures (0 ⇒ 3).
	RetryMax int
	// HealthEvery is the /healthz + /statsz poll period (0 ⇒ 50ms).
	HealthEvery time.Duration
	// HealthFails is how many consecutive probe/attempt failures eject a
	// shard from the ring, migrating its placements (0 ⇒ 2).
	HealthFails int
	// RequestTimeout bounds one proxied attempt end-to-end (0 ⇒ 30s).
	RequestTimeout time.Duration
	// MaxBody bounds an invoke request body in bytes (0 ⇒ 1 MiB).
	MaxBody int64
	// Chaos, when set, severs router↔shard links per the injector's
	// partition schedule — in the transport, before any connection is
	// dialed, so a severed attempt never reaches shard admission.
	Chaos *chaos.Injector
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.LoadFactor <= 1 {
		c.LoadFactor = 1.25
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 2 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 3
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = 50 * time.Millisecond
	}
	if c.HealthFails <= 0 {
		c.HealthFails = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	return c
}

// shardRef is the router's view of one member: the typed client it proxies
// through, the gating state (guarded by Router.mu), and the router-side
// delivery ledger the fleet conservation cross-check reads.
type shardRef struct {
	name   string
	addr   string
	client *httpfront.Client
	proc   *ShardProc // nil for externally managed shards

	// Guarded by Router.mu:
	healthy  bool
	draining bool
	fails    int // consecutive probe/attempt failures

	degraded atomic.Bool  // any breaker not "closed" in the last scrape
	inflight atomic.Int64 // attempts currently against this shard

	attempts      atomic.Uint64 // proxied attempts started
	delivered     atomic.Uint64 // responses with a host outcome code
	transportErrs atomic.Uint64 // attempts that died without a status
	admitted      atomic.Uint64 // shard's Counters.Admitted, last scrape
}

// errPartitioned is what a chaos-severed attempt fails with.
var errPartitioned = errors.New("cluster: chaos partition severed link")

// partitionTransport interposes the chaos partition schedule between the
// router and one shard. Severing happens before the dial, so a partitioned
// attempt never reaches the shard — the delivered==admitted ledger stays
// exact by construction.
type partitionTransport struct {
	shard string
	inj   *chaos.Injector
	next  http.RoundTripper
	tick  atomic.Int64
}

func (t *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tick := int(t.tick.Add(1) - 1)
	if t.inj.Partition(t.shard, tick) {
		return nil, errPartitioned
	}
	return t.next.RoundTrip(req)
}

// Router is the cluster front tier: one HTTP handler that places tenants
// over shards by bounded-load consistent hashing, sticks them to the shard
// holding their warm verified image, and absorbs shard failure with
// health-gated membership, drain migration, and hedged retries.
type Router struct {
	cfg     Config
	started time.Time

	mu         sync.Mutex
	ring       *Ring
	shards     map[string]*shardRef
	order      []string          // insertion order, for stable /statsz
	placements map[string]string // tenant → shard holding its warm image
	placeCount map[string]int    // shard → placements held

	draining atomic.Bool
	inflight atomic.Int64 // all attempts, including hedge losers
	reqSeq   atomic.Uint64

	stopOnce sync.Once
	stopc    chan struct{}
	wg       sync.WaitGroup

	hits, misses  atomic.Uint64
	hedges        atomic.Uint64
	hedgeWins     atomic.Uint64
	retries       atomic.Uint64
	transportErrs atomic.Uint64
	migrations    atomic.Uint64
	unroutable    atomic.Uint64
	proxied       atomic.Uint64
}

// NewRouter builds an empty router; add members with AddShard, then Start.
func NewRouter(cfg Config) *Router {
	cfg = cfg.withDefaults()
	return &Router{
		cfg:        cfg,
		started:    time.Now(),
		ring:       NewRing(cfg.VNodes),
		shards:     make(map[string]*shardRef),
		placements: make(map[string]string),
		placeCount: make(map[string]int),
		stopc:      make(chan struct{}),
	}
}

// AddShard registers a listening shard as a healthy ring member. proc may
// be nil when the shard's lifecycle is managed elsewhere.
func (rt *Router) AddShard(name, addr string, proc *ShardProc) {
	tr := &partitionTransport{
		shard: name,
		inj:   rt.cfg.Chaos,
		next:  &http.Transport{MaxIdleConnsPerHost: 64},
	}
	client := httpfront.NewClientWith("http://"+addr, &http.Client{Transport: tr})
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.shards[name] = &shardRef{name: name, addr: addr, client: client, proc: proc, healthy: true}
	rt.order = append(rt.order, name)
	rt.ring.Add(name)
}

// Start launches the health/stats scrape loop.
func (rt *Router) Start() {
	rt.wg.Add(1)
	go rt.healthLoop()
}

// Stop halts the scrape loop and waits for background hedge losers.
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stopc) })
	rt.wg.Wait()
	rt.Quiesce(10 * time.Second)
}

// BeginDrain flips the router's own /healthz to 503.
func (rt *Router) BeginDrain() { rt.draining.Store(true) }

// Quiesce waits until no attempt (including hedge losers still racing a
// decided request) is in flight — the barrier before ledger cross-checks.
func (rt *Router) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for rt.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// Handler returns the router's route mux — the same wire surface as a
// shard (invoke/healthz/statsz/drainz) plus the per-shard drain trigger.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{tenant}/invoke", rt.invoke)
	mux.HandleFunc("GET /healthz", rt.healthz)
	mux.HandleFunc("GET /statsz", rt.statsz)
	mux.HandleFunc("POST /drainz", rt.drainz)
	mux.HandleFunc("POST /admin/shards/{shard}/drain", rt.adminDrain)
	return mux
}

func (rt *Router) invoke(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	reqID := r.Header.Get(httpfront.RequestIDHeader)
	if reqID == "" {
		reqID = fmt.Sprintf("hfir-%d", rt.reqSeq.Add(1))
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBody+1))
	if err != nil {
		httpfront.WriteEnvelope(w, http.StatusBadRequest, httpfront.ErrorEnvelope{
			Outcome: "bad_request", RequestID: reqID, Error: err.Error()})
		return
	}
	if int64(len(body)) > rt.cfg.MaxBody {
		httpfront.WriteEnvelope(w, http.StatusRequestEntityTooLarge, httpfront.ErrorEnvelope{
			Outcome: "body_too_large", RequestID: reqID,
			Error: fmt.Sprintf("body exceeds %d bytes", rt.cfg.MaxBody)})
		return
	}
	res, ok := rt.do(r.Context(), tenant, body, reqID)
	if !ok {
		rt.unroutable.Add(1)
		httpfront.WriteEnvelope(w, http.StatusServiceUnavailable, httpfront.ErrorEnvelope{
			Outcome: "unroutable", RequestID: reqID,
			Error: "no healthy shard available for tenant"})
		return
	}
	// Relay the shard's response verbatim: same code, same body bytes
	// (the envelope included), same retry hint.
	if res.ContentType != "" {
		w.Header().Set("Content-Type", res.ContentType)
	}
	if res.RetryAfter != "" {
		w.Header().Set("Retry-After", res.RetryAfter)
	}
	w.Header().Set(httpfront.RequestIDHeader, reqID)
	w.WriteHeader(res.Code)
	w.Write(res.Body)
}

// do routes one request: place (warm-first), attempt (hedged when the
// target is degraded), and re-place on transport failure up to RetryMax
// rounds. false means no shard could be reached.
func (rt *Router) do(ctx context.Context, tenant string, body []byte, reqID string) (httpfront.InvokeResult, bool) {
	tried := make(map[string]bool)
	for round := 0; ; round++ {
		primary, alt := rt.place(tenant, tried, round == 0)
		if primary == nil {
			return httpfront.InvokeResult{}, false
		}
		res, ok := rt.hedgedAttempt(ctx, primary, alt, tenant, body, reqID)
		if ok {
			rt.proxied.Add(1)
			return res, true
		}
		tried[primary.name] = true
		if round >= rt.cfg.RetryMax {
			return httpfront.InvokeResult{}, false
		}
		rt.retries.Add(1)
	}
}

// place picks the tenant's shard: the warm placement when it is still
// eligible (a routing hit), else the first eligible, under-bound candidate
// on the ring walk (a miss, and a migration if the tenant had a placement
// elsewhere). When the pick is degraded, the next eligible candidate comes
// back as the hedge target. countStats is true only on a request's first
// round so retries don't inflate the hit rate.
func (rt *Router) place(tenant string, tried map[string]bool, countStats bool) (primary, alt *shardRef) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	eligible := func(name string) *shardRef {
		sh := rt.shards[name]
		if sh == nil || !sh.healthy || sh.draining || tried[name] {
			return nil
		}
		return sh
	}
	warm := false
	if cur, ok := rt.placements[tenant]; ok {
		if sh := eligible(cur); sh != nil {
			primary, warm = sh, true
		}
	}
	if primary == nil {
		cands := rt.ring.Candidates(tenant)
		bound := rt.loadBoundLocked()
		for _, name := range cands {
			if sh := eligible(name); sh != nil && rt.placeCount[name] < bound {
				primary = sh
				break
			}
		}
		if primary == nil {
			// Everyone over bound: liveness beats balance.
			for _, name := range cands {
				if sh := eligible(name); sh != nil {
					primary = sh
					break
				}
			}
		}
		if primary != nil {
			if old, had := rt.placements[tenant]; had && old != primary.name {
				rt.placeCount[old]--
				rt.migrations.Add(1)
			}
			if rt.placements[tenant] != primary.name {
				rt.placements[tenant] = primary.name
				rt.placeCount[primary.name]++
			}
		}
	}
	if primary == nil {
		return nil, nil
	}
	if countStats {
		if warm {
			rt.hits.Add(1)
		} else {
			rt.misses.Add(1)
		}
	}
	if primary.degraded.Load() {
		for _, name := range rt.ring.Candidates(tenant) {
			if name == primary.name {
				continue
			}
			if sh := eligible(name); sh != nil {
				alt = sh
				break
			}
		}
	}
	return primary, alt
}

// loadBoundLocked is the CHWBL bound: ceil(factor × placements / healthy).
func (rt *Router) loadBoundLocked() int {
	healthy := 0
	for _, sh := range rt.shards {
		if sh.healthy && !sh.draining {
			healthy++
		}
	}
	if healthy == 0 {
		return 1
	}
	b := int(rt.cfg.LoadFactor * float64(len(rt.placements)+1) / float64(healthy))
	if b < 1 {
		b = 1
	}
	return b
}

// attempt proxies one request to one shard, maintaining the ledger:
// attempts, then exactly one of delivered (a response carrying a host
// outcome code) or transportErrs. Responses outside the outcome table
// (unknown_tenant and friends — produced without host admission) relay
// fine but count toward neither side of the delivered==admitted identity.
func (rt *Router) attempt(ctx context.Context, sh *shardRef, tenant string, body []byte, reqID string) (httpfront.InvokeResult, error) {
	rt.inflight.Add(1)
	sh.inflight.Add(1)
	sh.attempts.Add(1)
	actx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	res, err := sh.client.Invoke(actx, tenant, body, reqID)
	cancel()
	sh.inflight.Add(-1)
	rt.inflight.Add(-1)
	if err != nil {
		sh.transportErrs.Add(1)
		rt.transportErrs.Add(1)
		rt.noteFailure(sh)
		return httpfront.InvokeResult{}, err
	}
	if _, mapped := res.Outcome(); mapped {
		sh.delivered.Add(1)
	}
	rt.noteSuccess(sh)
	return res, nil
}

// hedgedAttempt runs the primary attempt, racing a duplicate against alt
// (same request id — the idempotency contract lets downstream collapse
// them) when the primary is degraded. The loser is never cancelled: both
// attempts run to completion under a cancel-free context so every shard
// admission stays matched by a router delivery, and the first good
// response wins.
func (rt *Router) hedgedAttempt(ctx context.Context, primary, alt *shardRef, tenant string, body []byte, reqID string) (httpfront.InvokeResult, bool) {
	if alt == nil {
		res, err := rt.attempt(ctx, primary, tenant, body, reqID)
		return res, err == nil
	}
	rt.hedges.Add(1)
	hctx := context.WithoutCancel(ctx)
	type out struct {
		res   httpfront.InvokeResult
		err   error
		hedge bool
	}
	ch := make(chan out, 2)
	run := func(sh *shardRef, hedge bool) {
		res, err := rt.attempt(hctx, sh, tenant, body, reqID)
		ch <- out{res, err, hedge}
	}
	go run(primary, false)
	timer := time.NewTimer(rt.cfg.HedgeAfter)
	defer timer.Stop()
	pending, fired := 1, false
	for {
		select {
		case o := <-ch:
			pending--
			if o.err == nil {
				if o.hedge {
					rt.hedgeWins.Add(1)
				}
				return o.res, true
			}
			if pending == 0 {
				if fired {
					return httpfront.InvokeResult{}, false
				}
				fired, pending = true, 1
				go run(alt, true)
			}
		case <-timer.C:
			if !fired {
				fired = true
				pending++
				go run(alt, true)
			}
		}
	}
}

// noteFailure counts one consecutive transport failure against the shard
// and ejects it (ring removal + placement migration) at the threshold —
// the fast path a killed shard leaves the fleet by, ahead of the probe
// loop noticing.
func (rt *Router) noteFailure(sh *shardRef) {
	rt.mu.Lock()
	sh.fails++
	if sh.fails >= rt.cfg.HealthFails && sh.healthy {
		rt.ejectLocked(sh)
	}
	rt.mu.Unlock()
}

func (rt *Router) noteSuccess(sh *shardRef) {
	rt.mu.Lock()
	sh.fails = 0
	rt.mu.Unlock()
}

// ejectLocked removes the shard from rotation and migrates every tenant
// placed on it to its ring successor.
func (rt *Router) ejectLocked(sh *shardRef) {
	sh.healthy = false
	rt.ring.Remove(sh.name)
	rt.migrateLocked(sh.name)
}

// readmitLocked returns a recovered shard to the ring. Placements do not
// migrate back — warm images live where they live; new tenants rebalance
// onto it via the bounded-load walk.
func (rt *Router) readmitLocked(sh *shardRef) {
	sh.healthy = true
	sh.fails = 0
	rt.ring.Add(sh.name)
}

// migrateLocked re-places every tenant held by `from` onto its first
// eligible ring successor, counting each move. Tenants with no eligible
// successor lose their placement (re-placed lazily, or unroutable).
func (rt *Router) migrateLocked(from string) int {
	moved := 0
	for tenant, cur := range rt.placements {
		if cur != from {
			continue
		}
		var dst *shardRef
		for _, cand := range rt.ring.Candidates(tenant) {
			if sh := rt.shards[cand]; sh != nil && sh.healthy && !sh.draining {
				dst = sh
				break
			}
		}
		rt.placeCount[from]--
		if dst == nil {
			delete(rt.placements, tenant)
			continue
		}
		rt.placements[tenant] = dst.name
		rt.placeCount[dst.name]++
		moved++
	}
	rt.migrations.Add(uint64(moved))
	return moved
}

// Drain takes one shard out of rotation gracefully: migrate its tenants to
// successors, flip the shard's own /healthz via /drainz, then wait for
// every in-flight attempt against it to finish — zero dropped requests is
// the contract.
func (rt *Router) Drain(ctx context.Context, name string) error {
	rt.mu.Lock()
	sh := rt.shards[name]
	if sh == nil {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: no shard %q", name)
	}
	sh.draining = true
	rt.ring.Remove(name)
	rt.migrateLocked(name)
	rt.mu.Unlock()

	if err := sh.client.Drain(ctx); err != nil {
		return err
	}
	for sh.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// healthLoop probes every member each period: /healthz gates ring
// membership (ejection after HealthFails consecutive bad probes, automatic
// readmission on recovery), /statsz refreshes the degraded bit and the
// shard's admitted counter for the fleet ledger.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopc:
			return
		case <-tick.C:
		}
		rt.pollOnce()
	}
}

func (rt *Router) pollOnce() {
	rt.mu.Lock()
	refs := make([]*shardRef, 0, len(rt.order))
	for _, name := range rt.order {
		refs = append(refs, rt.shards[name])
	}
	rt.mu.Unlock()
	for _, sh := range refs {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		up, err := sh.client.Healthz(ctx)
		cancel()
		rt.mu.Lock()
		if err != nil || !up {
			sh.fails++
			if sh.fails >= rt.cfg.HealthFails && sh.healthy {
				rt.ejectLocked(sh)
			}
		} else {
			sh.fails = 0
			if !sh.healthy && !sh.draining {
				rt.readmitLocked(sh)
			}
		}
		rt.mu.Unlock()
		if err != nil {
			continue
		}
		sctx, scancel := context.WithTimeout(context.Background(), time.Second)
		doc, serr := sh.client.Statsz(sctx)
		scancel()
		if serr != nil || doc.Counters == nil {
			continue
		}
		sh.admitted.Store(doc.Counters.Admitted)
		deg := false
		for _, b := range doc.Breakers {
			if b.State != "closed" {
				deg = true
				break
			}
		}
		sh.degraded.Store(deg)
	}
}

// ScrapeOnce runs one synchronous health/stats poll — tests use it to
// refresh degraded bits and admitted counters without racing the loop.
func (rt *Router) ScrapeOnce() { rt.pollOnce() }

// StatszDoc builds the router-role StatszV1.
func (rt *Router) StatszDoc() httpfront.StatszV1 {
	rt.mu.Lock()
	shards := make([]httpfront.ShardInfoV1, 0, len(rt.order))
	for _, name := range rt.order {
		sh := rt.shards[name]
		shards = append(shards, httpfront.ShardInfoV1{
			Name: sh.name, Addr: sh.addr,
			Healthy: sh.healthy, Draining: sh.draining,
			Degraded:        sh.degraded.Load(),
			Placements:      rt.placeCount[name],
			Inflight:        sh.inflight.Load(),
			Attempts:        sh.attempts.Load(),
			Delivered:       sh.delivered.Load(),
			TransportErrors: sh.transportErrs.Load(),
			Admitted:        sh.admitted.Load(),
		})
	}
	rt.mu.Unlock()
	hits, misses := rt.hits.Load(), rt.misses.Load()
	cl := &httpfront.ClusterStatszV1{
		Shards:          shards,
		RoutingHits:     hits,
		RoutingMisses:   misses,
		Hedges:          rt.hedges.Load(),
		HedgeWins:       rt.hedgeWins.Load(),
		Retries:         rt.retries.Load(),
		TransportErrors: rt.transportErrs.Load(),
		Migrations:      rt.migrations.Load(),
		Unroutable:      rt.unroutable.Load(),
		Proxied:         rt.proxied.Load(),
	}
	if hits+misses > 0 {
		cl.RoutingHitRate = float64(hits) / float64(hits+misses)
	}
	return httpfront.StatszV1{
		SchemaVersion: httpfront.StatszSchemaVersion,
		Role:          httpfront.RoleRouter,
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Draining:      rt.draining.Load(),
		Cluster:       cl,
	}
}

func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		httpfront.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	httpfront.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (rt *Router) statsz(w http.ResponseWriter, r *http.Request) {
	httpfront.WriteJSON(w, http.StatusOK, rt.StatszDoc())
}

func (rt *Router) drainz(w http.ResponseWriter, r *http.Request) {
	rt.BeginDrain()
	httpfront.WriteJSON(w, http.StatusOK, map[string]string{"status": "draining"})
}

func (rt *Router) adminDrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("shard")
	if err := rt.Drain(r.Context(), name); err != nil {
		httpfront.WriteJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	httpfront.WriteJSON(w, http.StatusOK, map[string]string{"status": "drained", "shard": name})
}
