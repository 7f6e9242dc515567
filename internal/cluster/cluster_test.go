package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"hfi/internal/chaos"
	"hfi/internal/httpfront"
)

// launchTest spawns a real subprocess fleet (the test binary re-execing
// itself — see TestMain) fronted by a fresh router.
func launchTest(t *testing.T, n int, spec ShardSpec, rcfg Config) *Cluster {
	t.Helper()
	if spec.Workers == 0 {
		spec.Workers = 2
	}
	if spec.QueueDepth == 0 {
		spec.QueueDepth = 32
	}
	if spec.Seed == 0 {
		spec.Seed = 7
	}
	cl, err := Launch(LaunchOpts{N: n, Shard: spec, Router: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// serveRouter exposes the router over a real HTTP listener and returns the
// typed client pointed at it.
func serveRouter(t *testing.T, rt *Router) *httpfront.Client {
	t.Helper()
	ts := httptest.NewServer(rt.Handler())
	c := httpfront.NewClient(ts.URL)
	t.Cleanup(func() { c.CloseIdle(); ts.Close() })
	return c
}

// tenantNames lists what the load harness would offer a default shard.
func tenantNames() []string {
	var names []string
	for _, c := range httpfront.RegistryMix(httpfront.DefaultRegistry(1)) {
		names = append(names, c.Tenant.Name)
	}
	return names
}

// settleLedger retries the scrape+check loop until every live shard's
// router-delivered count matches its own admitted counter — the final
// scrape can race a chaos partition window or a flapping member, so one
// observation is not a verdict.
func settleLedger(t *testing.T, rt *Router, timeout time.Duration) httpfront.StatszV1 {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		rt.ScrapeOnce()
		doc := rt.StatszDoc()
		err := func() error {
			for _, sh := range doc.Cluster.Shards {
				if !sh.Healthy {
					continue // a dead member's counters are unobservable
				}
				if sh.Delivered != sh.Admitted {
					return fmt.Errorf("shard %s: router delivered %d != shard admitted %d",
						sh.Name, sh.Delivered, sh.Admitted)
				}
			}
			return nil
		}()
		if err == nil {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet ledger never settled: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterEndToEnd drives the full tenant mix through a 3-shard
// subprocess fleet and checks the tentpole invariants: exact client-side
// outcome conservation, the delivered==admitted fleet ledger per shard,
// warm-image routing hits after first placement, and bounded-load spread.
func TestClusterEndToEnd(t *testing.T) {
	cl := launchTest(t, 3, ShardSpec{}, Config{})
	c := serveRouter(t, cl.Router)
	names := tenantNames()
	ctx := context.Background()

	const rounds = 4
	offered := 0
	outcomes := map[int]int{}
	for r := 0; r < rounds; r++ {
		for _, name := range names {
			res, err := c.Invoke(ctx, name, nil, "")
			if err != nil {
				t.Fatalf("invoke %s: %v", name, err)
			}
			if _, mapped := res.Outcome(); !mapped {
				t.Fatalf("invoke %s: code %d outside the outcome table (%s)", name, res.Code, res.Body)
			}
			if res.RequestID == "" {
				t.Fatalf("invoke %s: no request id echoed", name)
			}
			outcomes[res.Code]++
			offered++
		}
	}
	if outcomes[200] == 0 {
		t.Fatalf("no successful invokes across the fleet: %v", outcomes)
	}

	if !cl.Router.Quiesce(10 * time.Second) {
		t.Fatal("router did not quiesce")
	}
	doc := settleLedger(t, cl.Router, 5*time.Second)

	// Fleet-wide conservation: every offered request reached exactly one
	// shard admission (no transport errors on a quiet loopback fleet).
	var delivered uint64
	for _, sh := range doc.Cluster.Shards {
		if !sh.Healthy {
			t.Fatalf("shard %s unhealthy on a quiet fleet", sh.Name)
		}
		delivered += sh.Delivered
	}
	if delivered != uint64(offered) {
		t.Fatalf("fleet delivered %d != offered %d", delivered, offered)
	}
	if doc.Cluster.TransportErrors != 0 {
		t.Fatalf("transport errors on a quiet fleet: %d", doc.Cluster.TransportErrors)
	}

	// Warm routing: each tenant misses exactly once (first placement) and
	// hits every round after — placements never move on a healthy fleet.
	if doc.Cluster.RoutingMisses != uint64(len(names)) {
		t.Fatalf("routing misses %d, want one per tenant (%d)", doc.Cluster.RoutingMisses, len(names))
	}
	if want := uint64(offered - len(names)); doc.Cluster.RoutingHits != want {
		t.Fatalf("routing hits %d, want %d", doc.Cluster.RoutingHits, want)
	}
	if doc.Cluster.RoutingHitRate < 0.5 {
		t.Fatalf("routing hit rate %.2f, want ≥ 0.5 after %d rounds", doc.Cluster.RoutingHitRate, rounds)
	}

	// Bounded-load placement: all tenants placed, no shard hoards them.
	total, spread := 0, 0
	for _, sh := range doc.Cluster.Shards {
		total += sh.Placements
		if sh.Placements > 0 {
			spread++
		}
	}
	if total != len(names) {
		t.Fatalf("placements %d != tenants %d", total, len(names))
	}
	if spread < 2 {
		t.Fatalf("bounded-load walk packed every tenant onto %d shard(s)", spread)
	}

	// The router's own /statsz speaks the same versioned document.
	sz, err := c.Statsz(ctx)
	if err != nil {
		t.Fatalf("router statsz: %v", err)
	}
	if sz.Role != httpfront.RoleRouter || sz.Cluster == nil {
		t.Fatalf("router statsz role %q cluster nil=%v", sz.Role, sz.Cluster == nil)
	}
	if len(sz.Cluster.Shards) != 3 {
		t.Fatalf("router statsz shards %d, want 3", len(sz.Cluster.Shards))
	}
	if up, err := c.Healthz(ctx); err != nil || !up {
		t.Fatalf("router healthz up=%v err=%v", up, err)
	}

	// The admin drain route takes one member out through the same graceful
	// path, and the fleet keeps serving.
	resp, err := http.Post(c.Base()+"/admin/shards/shard-2/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("admin drain status %d", resp.StatusCode)
	}
	after := cl.Router.StatszDoc()
	for _, sh := range after.Cluster.Shards {
		if sh.Name == "shard-2" {
			if !sh.Draining || sh.Placements != 0 {
				t.Fatalf("drained shard %+v, want draining with 0 placements", sh)
			}
		}
	}
	for _, name := range names {
		res, err := c.Invoke(ctx, name, nil, "")
		if err != nil {
			t.Fatalf("post-drain invoke %s: %v", name, err)
		}
		if _, mapped := res.Outcome(); !mapped {
			t.Fatalf("post-drain invoke %s: code %d", name, res.Code)
		}
	}
}

// TestDrainMigrationUnderLoad is the zero-dropped-requests contract: a
// shard is drained in the middle of an open-loop burst, its tenants
// migrate to ring successors, every in-flight request finishes with a real
// outcome, and the fleet ledger still balances.
func TestDrainMigrationUnderLoad(t *testing.T) {
	cl := launchTest(t, 3, ShardSpec{QueueDepth: 64}, Config{})
	c := serveRouter(t, cl.Router)
	names := tenantNames()
	ctx := context.Background()

	// Seed placements so the drained shard actually holds tenants.
	for _, name := range names {
		if _, err := c.Invoke(ctx, name, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	pre := cl.Router.StatszDoc()
	var preDrain int
	for _, sh := range pre.Cluster.Shards {
		if sh.Name == "shard-0" {
			preDrain = sh.Placements
		}
	}
	if preDrain == 0 {
		t.Fatal("shard-0 holds no placements before drain — bounded-load walk broken")
	}

	const (
		workers = 4
		perW    = 30
	)
	results := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				res, err := c.Invoke(ctx, names[(w+i)%len(names)], nil, "")
				if err != nil {
					results[w] = append(results[w], -1)
					continue
				}
				results[w] = append(results[w], res.Code)
				time.Sleep(time.Millisecond)
			}
		}()
	}

	time.Sleep(15 * time.Millisecond) // the burst is in flight
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := cl.Router.Drain(dctx, "shard-0"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	wg.Wait()

	// Zero dropped: every request resolved with an outcome-mapped code.
	offered := 0
	for w, rs := range results {
		if len(rs) != perW {
			t.Fatalf("worker %d resolved %d/%d requests", w, len(rs), perW)
		}
		for _, code := range rs {
			if _, mapped := httpfront.OutcomeForCode(code); !mapped {
				t.Fatalf("worker %d saw code %d — a dropped or unroutable request", w, code)
			}
			offered++
		}
	}
	_ = offered

	if !cl.Router.Quiesce(10 * time.Second) {
		t.Fatal("router did not quiesce")
	}
	doc := settleLedger(t, cl.Router, 5*time.Second)

	if doc.Cluster.TransportErrors != 0 {
		t.Fatalf("graceful drain caused %d transport errors", doc.Cluster.TransportErrors)
	}
	if doc.Cluster.Migrations == 0 {
		t.Fatal("drain migrated no placements")
	}
	total := 0
	for _, sh := range doc.Cluster.Shards {
		total += sh.Placements
		if sh.Name == "shard-0" {
			if !sh.Draining {
				t.Fatal("shard-0 not marked draining")
			}
			if sh.Placements != 0 {
				t.Fatalf("drained shard still holds %d placements", sh.Placements)
			}
			if sh.Inflight != 0 {
				t.Fatalf("drained shard still has %d in flight", sh.Inflight)
			}
		}
	}
	if total != len(names) {
		t.Fatalf("placements %d after migration, want %d (every tenant re-placed)", total, len(names))
	}

	// The drained shard's own front reports draining on its wire surface.
	p := cl.Proc("shard-0")
	if p == nil {
		t.Fatal("no shard-0 proc")
	}
	direct := httpfront.NewClient("http://" + p.Addr)
	defer direct.CloseIdle()
	if up, err := direct.Healthz(ctx); err != nil || up {
		t.Fatalf("drained shard healthz up=%v err=%v, want draining 503", up, err)
	}
	sz, err := direct.Statsz(ctx)
	if err != nil {
		t.Fatalf("drained shard statsz: %v", err)
	}
	if !sz.Draining || sz.Role != httpfront.RoleShard || sz.Shard != "shard-0" {
		t.Fatalf("drained shard statsz %+v, want draining shard-0", sz)
	}
}

// TestHedgedRetries trips the "faulty" tenant's breaker on its home shard
// (through the router, so the ledger stays exact), waits for the scrape to
// mark the shard degraded, and asserts follow-up requests hedge against
// the ring successor under the same request id.
func TestHedgedRetries(t *testing.T) {
	cl := launchTest(t, 2,
		ShardSpec{BreakerWindow: 8, BreakerMinSamples: 4},
		Config{HedgeAfter: time.Millisecond})
	c := serveRouter(t, cl.Router)
	ctx := context.Background()

	// Trip the breaker: every non-empty body makes "faulty" trap → 502s
	// fill its breaker window on whichever shard owns its placement.
	sawBreakerCause := false
	for i := 0; i < 16; i++ {
		res, err := c.Invoke(ctx, "faulty", []byte("boom"), fmt.Sprintf("trip-%d", i))
		if err != nil {
			t.Fatalf("trip %d: %v", i, err)
		}
		if _, mapped := res.Outcome(); !mapped {
			t.Fatalf("trip %d: code %d outside outcome table", i, res.Code)
		}
		if res.Envelope != nil && res.Envelope.Cause == "breaker_open" {
			sawBreakerCause = true
		}
	}
	if !sawBreakerCause {
		t.Fatal("breaker never opened: no envelope carried cause=breaker_open")
	}

	// The scrape must observe the non-closed breaker and mark the shard
	// degraded (open → half-open still counts).
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl.Router.ScrapeOnce()
		doc := cl.Router.StatszDoc()
		degraded := false
		for _, sh := range doc.Cluster.Shards {
			degraded = degraded || sh.Degraded
		}
		if degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard marked degraded after breaker trip")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Requests for the degraded shard's tenant now hedge to the successor.
	for i := 0; i < 6; i++ {
		res, err := c.Invoke(ctx, "faulty", nil, fmt.Sprintf("hedged-%d", i))
		if err != nil {
			t.Fatalf("hedged invoke %d: %v", i, err)
		}
		if _, mapped := res.Outcome(); !mapped {
			t.Fatalf("hedged invoke %d: code %d", i, res.Code)
		}
	}

	if !cl.Router.Quiesce(10 * time.Second) {
		t.Fatal("router did not quiesce (hedge losers leaked)")
	}
	doc := settleLedger(t, cl.Router, 5*time.Second)
	if doc.Cluster.Hedges == 0 {
		t.Fatal("no hedged attempts fired against the degraded shard")
	}
	if doc.Cluster.TransportErrors != 0 {
		t.Fatalf("hedging caused %d transport errors", doc.Cluster.TransportErrors)
	}
}

// TestClusterChaosSoak is the fleet-tier chaos proof: a 4-shard cluster
// under the shardkill and partition classes — one member SIGKILLed at a
// seed-chosen tick, router↔shard links severed in windowed bursts — must
// keep exact client-side outcome conservation, eject and migrate around
// the dead member, and keep the delivered==admitted ledger on every shard
// that survives.
func TestClusterChaosSoak(t *testing.T) {
	inj := chaos.New(chaos.Config{
		Seed:      11,
		ShardKill: 0.004,
		Partition: 0.06, PartitionTicks: 6,
	})
	cl := launchTest(t, 4, ShardSpec{QueueDepth: 64}, Config{
		Chaos:       inj,
		HealthEvery: 20 * time.Millisecond,
		RetryMax:    4,
	})
	c := serveRouter(t, cl.Router)
	names := tenantNames()
	ctx := context.Background()

	const total = 240
	// The kill schedule is a pure draw per (shard, tick) — find the first
	// hit so two same-seed runs kill the same member at the same point.
	killTick, killShard := -1, ""
	for tick := 0; tick < total && killTick < 0; tick++ {
		for _, p := range cl.Procs {
			if inj.ShardKill(p.Spec.Name, tick) {
				killTick, killShard = tick, p.Spec.Name
				break
			}
		}
	}
	if killTick < 0 {
		t.Fatalf("seed %d draws no shard kill in %d ticks — raise the rate", inj.Seed(), total)
	}
	t.Logf("chaos schedule: SIGKILL %s at tick %d", killShard, killTick)

	const workers = 3
	var killOnce sync.Once
	results := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < total; i += workers {
				if i >= killTick {
					killOnce.Do(func() { cl.Proc(killShard).Kill() })
				}
				res, err := c.Invoke(ctx, names[i%len(names)], nil, "")
				if err != nil {
					results[w] = append(results[w], -1)
					continue
				}
				results[w] = append(results[w], res.Code)
			}
		}()
	}
	wg.Wait()

	// Exact conservation at the client: every one of the offered requests
	// resolved to an outcome-mapped code — a killed shard or severed link
	// surfaces as a retried success, a shed, or an unroutable 503 (the shed
	// class), never a hang, a drop, or a transport error.
	offered := 0
	for w, rs := range results {
		if len(rs) != (total-w+workers-1)/workers {
			t.Fatalf("worker %d resolved %d requests", w, len(rs))
		}
		for _, code := range rs {
			if code == -1 {
				t.Fatal("client saw a transport error through the router")
			}
			if _, mapped := httpfront.OutcomeForCode(code); !mapped {
				t.Fatalf("code %d outside the outcome table", code)
			}
			offered++
		}
	}
	if offered != total {
		t.Fatalf("accounted %d != offered %d", offered, total)
	}

	if !cl.Router.Quiesce(15 * time.Second) {
		t.Fatal("router did not quiesce")
	}
	doc := settleLedger(t, cl.Router, 10*time.Second)

	killed := false
	for _, sh := range doc.Cluster.Shards {
		if sh.Name == killShard {
			killed = true
			if sh.Healthy {
				t.Fatalf("killed shard %s still marked healthy", killShard)
			}
		}
	}
	if !killed {
		t.Fatalf("killed shard %s missing from /statsz", killShard)
	}
	if doc.Cluster.TransportErrors == 0 {
		t.Fatal("a kill plus partitions produced no transport errors — chaos never bit")
	}
	if doc.Cluster.Migrations == 0 {
		t.Fatal("ejecting the killed shard migrated no placements")
	}

	snap := inj.Snapshot()
	if snap.ShardKill == 0 || snap.Partition == 0 {
		t.Fatalf("chaos summary %+v, want both cluster classes fired", snap)
	}
}

// TestShardIgnoresSIGINT: a terminal's Ctrl-C reaches every process in the
// foreground group, shards included, but a shard's lifetime belongs to its
// parent (stdin). A SIGINT must neither kill a held request nor the shard:
// the request finishes 200, /healthz still answers 200, and Stop reaps a
// clean exit.
func TestShardIgnoresSIGINT(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Spawn(exe, ShardSpec{Name: "sigint", Workers: 1, DispatchWallUs: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill) // a no-op once Stop has reaped it
	c := httpfront.NewClient("http://" + p.Addr)
	defer c.CloseIdle()
	ctx := context.Background()

	held := make(chan error, 1)
	go func() {
		res, err := c.Invoke(ctx, "hostcall-micro", nil, "")
		if err == nil && res.Code != http.StatusOK {
			err = fmt.Errorf("held request: HTTP %d", res.Code)
		}
		held <- err
	}()
	time.Sleep(100 * time.Millisecond) // inside the 300 ms dispatch wall
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := <-held; err != nil {
		t.Fatalf("held request across SIGINT: %v", err)
	}
	if up, err := c.Healthz(ctx); err != nil || !up {
		t.Fatalf("healthz after SIGINT: up=%v err=%v, want 200", up, err)
	}
	p.Stop()
	if code := p.cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("shard exit after Stop: %s, want status 0", p.cmd.ProcessState)
	}
}
