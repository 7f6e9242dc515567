package httpfront

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hfi/internal/chaos"
	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/hostcall"
	"hfi/internal/isa"
	"hfi/internal/sfi"
	"hfi/internal/stats"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// unverifiable builds a tenant whose program compiles but fails static
// verification (memory.grow limit past the guard reservation), so every
// invoke resolves StatusRejected.
func unverifiable(name string) workloads.Tenant {
	m := wasm.NewModule(name, 1, 200_000)
	f := m.Func("run", 1)
	old := f.NewReg()
	f.Grow(old, f.Param(0))
	f.BrImm(isa.CondEQ, old, 0xFFFFFFFF, "fail")
	f.Ret(old)
	f.Label("fail")
	f.Trap()
	return workloads.Tenant{
		Name: name, Mod: m,
		MakeRequest: func(i int) []byte { return nil },
	}
}

// newFront builds a front over a fresh server with the standard test
// registry — a healthy tenant, a body-trapping tenant, and an unverifiable
// tenant, all under stock isolation — and a typed wire client over it.
func newFront(t *testing.T, cfg host.Config) (*Front, *Client) {
	t.Helper()
	light := workloads.FaaSTenantsLight()
	iso := faas.StockLucet()
	reg := map[string]Tenant{
		"html":    {Workload: light[3], Iso: iso},
		"xml":     {Workload: light[0], Iso: iso},
		"trap":    {Workload: workloads.TrapTenant("trap"), Iso: iso},
		"unverif": {Workload: unverifiable("unverif"), Iso: iso},
	}
	f := New(host.New(cfg), reg)
	ts := httptest.NewServer(f.Handler())
	c := NewClient(ts.URL)
	t.Cleanup(func() { c.CloseIdle(); ts.Close(); f.Host().Close() })
	return f, c
}

// invoke runs one request through the typed client, failing the test on
// transport errors (any HTTP status is a valid InvokeResult).
func invoke(t *testing.T, c *Client, tenant, body string) InvokeResult {
	t.Helper()
	res, err := c.Invoke(context.Background(), tenant, []byte(body), "")
	if err != nil {
		t.Fatalf("invoke %s: %v", tenant, err)
	}
	return res
}

// TestStatusCodeTable pins the full documented host.Status → HTTP map in
// both directions, and the envelope outcome each status serializes as.
func TestStatusCodeTable(t *testing.T) {
	want := map[host.Status]int{
		host.StatusOK:       200,
		host.StatusShed:     429,
		host.StatusRejected: 422,
		host.StatusTimeout:  504,
		host.StatusFault:    502,
		host.StatusClosed:   503,
		host.StatusCanceled: 499,
	}
	vocab := make(map[string]bool)
	for _, o := range EnvelopeOutcomes {
		vocab[o] = true
	}
	for st, code := range want {
		if got := StatusCode(st); got != code {
			t.Errorf("StatusCode(%v) = %d, want %d", st, got, code)
		}
		o, ok := OutcomeForCode(code)
		if !ok {
			t.Errorf("OutcomeForCode(%d) unmapped", code)
		}
		// 503 folds into the shed class client-side; everything else round-trips.
		if st == host.StatusClosed {
			if o != stats.OutcomeShed {
				t.Errorf("OutcomeForCode(503) = %v, want shed class", o)
			}
		}
		// Every error status must serialize to a closed-vocabulary outcome.
		if st != host.StatusOK {
			if eo := statusOutcome(st); !vocab[eo] {
				t.Errorf("statusOutcome(%v) = %q, not in EnvelopeOutcomes", st, eo)
			}
		}
	}
	if _, ok := OutcomeForCode(404); ok {
		t.Error("OutcomeForCode(404) should be unmapped")
	}
	// Reverse direction: the pinned retry hints follow the header contract.
	if RetryAfterMS(429) != 1000 || RetryAfterMS(503) != 5000 || RetryAfterMS(502) != 0 {
		t.Errorf("RetryAfterMS table drifted: 429→%d 503→%d 502→%d",
			RetryAfterMS(429), RetryAfterMS(503), RetryAfterMS(502))
	}
}

// TestInvokeEndToEnd drives every documented status over real HTTP and
// asserts the typed error envelope on every non-2xx path.
func TestInvokeEndToEnd(t *testing.T) {
	t.Run("ok", func(t *testing.T) {
		_, c := newFront(t, host.Config{Workers: 1})
		res := invoke(t, c, "html", "")
		if res.Code != 200 {
			t.Fatalf("status %d, want 200", res.Code)
		}
		if res.RequestID == "" {
			t.Fatal("200 without a synthesized request id")
		}
	})
	t.Run("request_id_echoed", func(t *testing.T) {
		_, c := newFront(t, host.Config{Workers: 1})
		res, err := c.Invoke(context.Background(), "html", nil, "req-test-7")
		if err != nil || res.Code != 200 {
			t.Fatalf("invoke: code %d err %v", res.Code, err)
		}
		if res.RequestID != "req-test-7" {
			t.Fatalf("request id %q, want echo of req-test-7", res.RequestID)
		}
	})
	t.Run("fault_502", func(t *testing.T) {
		_, c := newFront(t, host.Config{Workers: 1})
		res, err := c.Invoke(context.Background(), "trap", []byte("boom"), "req-fault-1")
		if err != nil {
			t.Fatal(err)
		}
		if res.Code != 502 {
			t.Fatalf("status %d, want 502", res.Code)
		}
		if res.Envelope == nil {
			t.Fatalf("502 without an envelope: %s", res.Body)
		}
		if res.Envelope.Outcome != "fault" {
			t.Fatalf("envelope outcome %q, want fault", res.Envelope.Outcome)
		}
		if res.Envelope.RequestID != "req-fault-1" {
			t.Fatalf("envelope request_id %q, want req-fault-1", res.Envelope.RequestID)
		}
	})
	t.Run("rejected_422", func(t *testing.T) {
		_, c := newFront(t, host.Config{Workers: 1})
		res := invoke(t, c, "unverif", "")
		if res.Code != 422 {
			t.Fatalf("status %d, want 422", res.Code)
		}
		if res.Envelope == nil || res.Envelope.Outcome != "rejected" {
			t.Fatalf("envelope %+v, want outcome rejected", res.Envelope)
		}
	})
	t.Run("timeout_504", func(t *testing.T) {
		_, c := newFront(t, host.Config{Workers: 1, Fuel: 100})
		res := invoke(t, c, "html", "")
		if res.Code != 504 {
			t.Fatalf("status %d, want 504", res.Code)
		}
		if res.Envelope == nil || res.Envelope.Outcome != "timeout" {
			t.Fatalf("envelope %+v, want outcome timeout", res.Envelope)
		}
	})
	t.Run("unknown_tenant_404", func(t *testing.T) {
		_, c := newFront(t, host.Config{Workers: 1})
		res := invoke(t, c, "nope", "")
		if res.Code != 404 {
			t.Fatalf("status %d, want 404", res.Code)
		}
		if res.Envelope == nil || res.Envelope.Outcome != "unknown_tenant" {
			t.Fatalf("envelope %+v, want outcome unknown_tenant", res.Envelope)
		}
	})
}

// TestOverloadShed429 saturates a depth-1 shed queue behind one slowed
// worker and asserts a real 429 with the Retry-After header and the
// matching envelope retry_after_ms hint.
func TestOverloadShed429(t *testing.T) {
	_, c := newFront(t, host.Config{
		Workers: 1, QueueDepth: 1, Policy: host.PolicyShed,
		DispatchWall: 50 * time.Millisecond,
	})
	// First request occupies the worker (50ms dispatch wall), second fills
	// the depth-1 queue, third must shed.
	bg := func() chan int {
		ch := make(chan int, 1)
		go func() {
			res, err := c.Invoke(context.Background(), "html", nil, "")
			if err != nil {
				ch <- 0
				return
			}
			ch <- res.Code
		}()
		return ch
	}
	c1 := bg()
	time.Sleep(10 * time.Millisecond)
	c2 := bg()
	time.Sleep(10 * time.Millisecond)

	res := invoke(t, c, "html", "")
	if res.Code != 429 {
		t.Fatalf("overload status %d, want 429", res.Code)
	}
	if res.RetryAfter == "" {
		t.Fatal("429 without Retry-After")
	}
	if res.Envelope == nil || res.Envelope.Outcome != "shed" || res.Envelope.RetryAfterMS != 1000 {
		t.Fatalf("envelope %+v, want outcome shed retry_after_ms 1000", res.Envelope)
	}
	if s1, s2 := <-c1, <-c2; s1 != 200 || s2 != 200 {
		t.Fatalf("background requests %d/%d, want 200/200", s1, s2)
	}
}

// TestDrainSemantics: POST /drainz flips /healthz to 503; after host.Close,
// invokes map StatusClosed → 503 with Retry-After.
func TestDrainSemantics(t *testing.T) {
	f, c := newFront(t, host.Config{Workers: 1})
	ctx := context.Background()

	if up, err := c.Healthz(ctx); err != nil || !up {
		t.Fatalf("healthz before drain: up=%v err=%v", up, err)
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drainz: %v", err)
	}
	if up, err := c.Healthz(ctx); err != nil || up {
		t.Fatalf("healthz during drain: up=%v err=%v, want draining 503", up, err)
	}
	// Draining alone must not refuse work — the LB drains us, clients with
	// in-flight connections finish.
	if res := invoke(t, c, "html", ""); res.Code != 200 {
		t.Fatalf("invoke during drain: %d, want 200", res.Code)
	}
	f.Host().Close()
	res := invoke(t, c, "html", "")
	if res.Code != 503 {
		t.Fatalf("invoke after close: %d, want 503", res.Code)
	}
	if res.RetryAfter == "" {
		t.Fatal("503 without Retry-After")
	}
	if res.Envelope == nil || res.Envelope.Outcome != "closed" {
		t.Fatalf("envelope %+v, want outcome closed", res.Envelope)
	}
}

// TestServeDrainSequence drives Serve's drain end to end: with a request
// held in dispatch, cancelling ctx flips /healthz to 503 within the drain
// wait while the held request still completes 200; Serve returns nil and
// the listener then refuses new connections.
func TestServeDrainSequence(t *testing.T) {
	const wait = 500 * time.Millisecond
	f := New(host.New(host.Config{Workers: 1, DispatchWall: 300 * time.Millisecond}), DefaultRegistry(1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, f.Handler(), wait, f.BeginDrain, f.Host().Close) }()
	c := NewClient("http://" + ln.Addr().String())
	defer c.CloseIdle()

	held := make(chan error, 1)
	go func() {
		res, err := c.Invoke(context.Background(), "hostcall-micro", nil, "")
		if err == nil && res.Code != http.StatusOK {
			err = fmt.Errorf("HTTP %d, want 200", res.Code)
		}
		held <- err
	}()
	for f.Host().Admitted() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	deadline := time.Now().Add(wait)
	for {
		up, err := c.Healthz(context.Background())
		if err != nil {
			t.Fatalf("healthz during drain: %v", err)
		}
		if !up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz still 200 after the drain wait")
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-held; err != nil {
		t.Fatalf("held request across drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		conn.Close()
		t.Fatal("listener still accepts after Serve returned")
	}
}

// TestClientDisconnectCancelsQueued is the end-to-end no-worker-occupancy
// proof over real HTTP: a blocker request holds the single worker, a
// victim request (own tenant) queues behind it, and the victim's client
// disconnects. The host must account one canceled request, zero executed
// requests for the victim tenant, and exactly one cold start — the
// blocker's. The worker never touched the victim.
func TestClientDisconnectCancelsQueued(t *testing.T) {
	f, c := newFront(t, host.Config{
		Workers: 1, QueueDepth: 4, DispatchWall: 60 * time.Millisecond,
	})

	blocker := make(chan int, 1)
	go func() {
		res, err := c.Invoke(context.Background(), "html", nil, "")
		if err != nil {
			blocker <- 0
			return
		}
		blocker <- res.Code
	}()
	time.Sleep(15 * time.Millisecond) // worker is inside the blocker's dispatch wall

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Invoke(ctx, "xml", nil, "")
		errc <- err
	}()
	time.Sleep(15 * time.Millisecond) // victim is queued behind the blocker
	cancel()                          // client goes away

	if err := <-errc; err == nil {
		t.Fatal("victim request unexpectedly got a response after its context was cancelled")
	}
	if code := <-blocker; code != 200 {
		t.Fatalf("blocker status %d", code)
	}

	// The cancel is resolved by the watcher under the scheduler lock, so it
	// is already accounted by the time both requests resolved.
	deadline := time.Now().Add(2 * time.Second)
	for {
		cn := f.Host().Counters()
		if cn.Canceled == 1 {
			if cn.ColdStarts != 1 {
				t.Fatalf("cold starts = %d, want 1 (victim must never occupy a worker)", cn.ColdStarts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled = %d after 2s, want 1 (%+v)", cn.Canceled, cn)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, tn := range f.Host().TenantSummaries() {
		if tn.Tenant == "xml" {
			if tn.Executed() != 0 || tn.Canceled != 1 {
				t.Fatalf("victim tenant %+v, want executed 0 canceled 1", tn)
			}
		}
	}
}

// TestStatszConservation: /statsz serves a valid StatszV1 whose global
// ledger conserves exactly across a burst of mixed-outcome traffic.
func TestStatszConservation(t *testing.T) {
	_, c := newFront(t, host.Config{Workers: 2})
	for i := 0; i < 10; i++ {
		invoke(t, c, "html", "")
	}
	for i := 0; i < 3; i++ {
		invoke(t, c, "trap", "boom")
	}
	invoke(t, c, "unverif", "")

	sz, err := c.Statsz(context.Background())
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if sz.Role != RoleShard {
		t.Fatalf("statsz role %q, want %q", sz.Role, RoleShard)
	}
	if sz.Serve == nil || sz.Counters == nil {
		t.Fatalf("shard statsz missing serve/counters: %+v", sz)
	}
	sum := sz.Serve
	accounted := sum.OK + sum.Timeouts + sum.Faults + sum.Shed + sum.Rejected + sum.Canceled
	if accounted != sz.Counters.Admitted || accounted != 14 {
		t.Fatalf("statsz ledger: accounted %d admitted %d, want 14", accounted, sz.Counters.Admitted)
	}
	if sum.OK != 10 || sum.Faults != 3 || sum.Rejected != 1 {
		t.Fatalf("statsz outcomes %+v, want 10 ok / 3 faults / 1 rejected", sum)
	}
	if len(sz.Tenants) != 3 {
		t.Fatalf("statsz tenants = %d, want 3", len(sz.Tenants))
	}
}

// TestStatszChaosSummary pins the /statsz chaos surface: a clean server
// omits the chaos key entirely; a server with an injector reports the
// per-class fire counts (including the substrate classes) and the
// substrate counters conserve on every surface the document exposes.
func TestStatszChaosSummary(t *testing.T) {
	t.Run("clean_server_omits_key", func(t *testing.T) {
		_, c := newFront(t, host.Config{Workers: 1})
		invoke(t, c, "html", "")
		resp, err := http.Get(c.Base() + "/statsz")
		if err != nil {
			t.Fatalf("statsz fetch: %v", err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("statsz read: %v", err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("statsz decode: %v", err)
		}
		if _, present := doc["chaos"]; present {
			t.Fatalf("clean server exposes a chaos key: %s", raw)
		}
	})
	t.Run("injector_reported", func(t *testing.T) {
		// Every served request draws a spot-checked bit flip: each invoke
		// is detected as substrate corruption and surfaces as a 502.
		inj := chaos.New(chaos.Config{Seed: 5, BitFlip: 1.0, SpotCheck: 1.0})
		_, c := newFront(t, host.Config{Workers: 1, Chaos: inj})
		const n = 4
		for i := 0; i < n; i++ {
			res := invoke(t, c, "html", "")
			if res.Code != 502 {
				t.Fatalf("invoke %d: status %d, want 502 (substrate fault)", i, res.Code)
			}
		}
		sz, err := c.Statsz(context.Background())
		if err != nil {
			t.Fatalf("statsz: %v", err)
		}
		if sz.Chaos == nil {
			t.Fatal("chaos-injected server reports no chaos summary")
		}
		if sz.Chaos.BitFlip != n {
			t.Fatalf("chaos.bitflip = %d, want %d", sz.Chaos.BitFlip, n)
		}
		sc := sz.Counters.Substrate
		if sc != sz.Serve.Substrate {
			t.Fatalf("counters substrate %+v != serve substrate %+v", sc, sz.Serve.Substrate)
		}
		if sc.Injected != n || sc.Detected != n || sc.Recovered != n || sc.Benign != 0 {
			t.Fatalf("substrate counters %+v, want %d injected == detected == recovered", sc, n)
		}
		var tsum stats.SubstrateCounters
		for _, tn := range sz.Tenants {
			tsum.Add(tn.Substrate)
		}
		if tsum != sc {
			t.Fatalf("tenant substrate counters %+v do not sum to global %+v", tsum, sc)
		}
		if sz.Serve.Faults != n {
			t.Fatalf("faults = %d, want %d (substrate faults fold into fault)", sz.Serve.Faults, n)
		}
	})
}

// TestHostcallOverHTTP is the quickstart scenario end-to-end: the
// stateful KV-session tenant and the streaming transformer served over
// real HTTP, with the /statsz hostcall counters conserving exactly —
// the global boundary traffic is the sum of the per-tenant attributions.
func TestHostcallOverHTTP(t *testing.T) {
	world := hostcall.NewWorld(21)
	iso := faas.Config{Name: "HFI", Scheme: sfi.HFI, World: world}
	var kv, stream workloads.Tenant
	for _, te := range workloads.HostcallTenants() {
		switch te.Name {
		case "kv-session":
			kv = te
		case "stream-xform":
			stream = te
		}
	}
	reg := map[string]Tenant{
		"kv":     {Workload: kv, Iso: iso},
		"stream": {Workload: stream, Iso: iso},
	}
	f := New(host.New(host.Config{Workers: 1}), reg)
	ts := httptest.NewServer(f.Handler())
	c := NewClient(ts.URL)
	t.Cleanup(func() { c.CloseIdle(); ts.Close(); f.Host().Close() })

	// Multi-invoke stateful session: the counter accumulates across HTTP
	// requests because the state lives in the shared world's KV store.
	counter := func(body string) uint64 {
		res := invoke(t, c, "kv", body)
		if res.Code != 200 {
			t.Fatalf("kv invoke status %d", res.Code)
		}
		if len(res.Body) != 8 {
			t.Fatalf("kv response %d bytes, want 8", len(res.Body))
		}
		return binary.LittleEndian.Uint64(res.Body)
	}
	var want uint64
	for _, body := range []string{"abc", "d", "hello world"} {
		for _, ch := range []byte(body) {
			want += uint64(ch)
		}
		if got := counter(body); got != want {
			t.Fatalf("session counter after %q = %d, want %d", body, got, want)
		}
	}

	// Streaming body: request flows to the guest via fd 0, the response is
	// whatever reached fd 1 — here the XOR transform of the body.
	payload := strings.Repeat("streaming over hfihttpd! ", 30) // > one 512 B chunk
	res := invoke(t, c, "stream", payload)
	if res.Code != 200 {
		t.Fatalf("stream invoke status %d", res.Code)
	}
	if len(res.Body) != len(payload) {
		t.Fatalf("streamed %d of %d bytes", len(res.Body), len(payload))
	}
	for i := range res.Body {
		if res.Body[i] != payload[i]^0x5a {
			t.Fatalf("stream byte %d = %#x, want %#x", i, res.Body[i], payload[i]^0x5a)
		}
	}

	// Hostcall counter conservation on /statsz: global == Σ per-tenant,
	// and both tenants actually crossed the boundary.
	sz, err := c.Statsz(context.Background())
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	var sum stats.HostcallCounters
	for _, tn := range sz.Tenants {
		if tn.Hostcalls.Calls == 0 {
			t.Fatalf("tenant %s recorded no hostcalls", tn.Tenant)
		}
		sum.Add(tn.Hostcalls)
	}
	if sum != sz.Serve.Hostcalls {
		t.Fatalf("hostcall conservation: tenants %+v != global %+v", sum, sz.Serve.Hostcalls)
	}
	if sz.Serve.Hostcalls.Calls == 0 || sz.Serve.Hostcalls.BytesIn == 0 || sz.Serve.Hostcalls.BytesOut == 0 {
		t.Fatalf("degenerate hostcall traffic: %+v", sz.Serve.Hostcalls)
	}

	// Tier counter conservation on /statsz: global == Σ per-tenant, the
	// engines actually retired instructions, and the counters surface in
	// host.Counters too (the lowering cache must have been exercised by
	// provisioning).
	var tsum stats.TierCounters
	for _, tn := range sz.Tenants {
		tsum.Add(tn.Tier)
	}
	if tsum != sz.Serve.Tier {
		t.Fatalf("tier conservation: tenants %+v != global %+v", tsum, sz.Serve.Tier)
	}
	if sz.Serve.Tier.TieredInstrs+sz.Serve.Tier.InterpInstrs == 0 {
		t.Fatalf("tiered engines retired nothing: %+v", sz.Serve.Tier)
	}
	if sz.Counters.TierInstrs != sz.Serve.Tier.TieredInstrs ||
		sz.Counters.TierInterpInstrs != sz.Serve.Tier.InterpInstrs ||
		sz.Counters.TierPromotedBlocks != sz.Serve.Tier.PromotedBlocks {
		t.Fatalf("host counters disagree with recorder: %+v vs %+v", sz.Counters, sz.Serve.Tier)
	}
	if sz.Counters.LoweringHits+sz.Counters.LoweringMisses == 0 {
		t.Fatalf("lowering cache never consulted: %+v", sz.Counters)
	}
}

// TestKVSessionTwoWorkers serves the stateful KV tenants of the default
// registry — one hostcall.World, hence one KV, behind every worker — with
// Workers: 2 and concurrent clients on the same and on distinct tenants.
// Run under -race: an unsynchronised store dies here with "concurrent map
// writes".
func TestKVSessionTwoWorkers(t *testing.T) {
	f := New(host.New(host.Config{Workers: 2}), DefaultRegistry(21))
	ts := httptest.NewServer(f.Handler())
	c := NewClient(ts.URL)
	t.Cleanup(func() { c.CloseIdle(); ts.Close(); f.Host().Close() })

	var wg sync.WaitGroup
	for _, tenant := range []string{"kv-session", "kv-session", "fan-in-agg"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := c.Invoke(context.Background(), tenant, []byte("session body"), "")
				if err != nil || res.Code != 200 {
					t.Errorf("%s request %d: status %d, err %v", tenant, i, res.Code, err)
					return
				}
			}
		}(tenant)
	}
	wg.Wait()
}

// TestStatszConservationUnderLoad scrapes /statsz as fast as it can while
// closed-loop clients drive a 2-worker shedding front over hostcall and
// compute tenants with substrate chaos on, and holds every document — not
// only the quiescent one — to the ledger's identities: serve is the sum of
// the tenant rows, the counters' ledger-derived fields are serve's, and the
// accounted outcomes never exceed admissions (and equal them once drained).
func TestStatszConservationUnderLoad(t *testing.T) {
	inj := chaos.New(chaos.Config{
		Seed: 9, BitFlip: 0.2, SpotCheck: 0.5, TLBStale: 0.2, ClockSkew: 0.2, LoweringRot: 0.2,
	})
	f := New(host.New(host.Config{Workers: 2, QueueDepth: 1, Policy: host.PolicyShed, Chaos: inj}), DefaultRegistry(21))
	ts := httptest.NewServer(f.Handler())
	c := NewClient(ts.URL)
	t.Cleanup(func() { c.CloseIdle(); ts.Close(); f.Host().Close() })

	check := func(sz StatszV1, drained bool) {
		t.Helper()
		var sum stats.Counts
		for _, tn := range sz.Tenants {
			sum.Add(tn.Counts)
		}
		if sum != sz.Serve.Counts {
			t.Fatalf("Σ tenants %+v != serve %+v", sum, sz.Serve.Counts)
		}
		ct := sz.Counters
		if tier := (stats.TierCounters{
			PromotedBlocks: ct.TierPromotedBlocks, TieredInstrs: ct.TierInstrs, InterpInstrs: ct.TierInterpInstrs,
		}); tier != sz.Serve.Tier {
			t.Fatalf("counters tier %+v != serve tier %+v", tier, sz.Serve.Tier)
		}
		if ct.Substrate != sz.Serve.Substrate {
			t.Fatalf("counters substrate %+v != serve substrate %+v", ct.Substrate, sz.Serve.Substrate)
		}
		if ct.Shed != sz.Serve.Shed || ct.Canceled != sz.Serve.Canceled {
			t.Fatalf("counters shed/canceled %d/%d != serve %d/%d", ct.Shed, ct.Canceled, sz.Serve.Shed, sz.Serve.Canceled)
		}
		if got := sz.Serve.Admitted(); got > ct.Admitted || drained && got != ct.Admitted {
			t.Fatalf("Σ outcomes %d vs admitted %d (drained=%v)", got, ct.Admitted, drained)
		}
	}

	const clients, each = 6, 60
	tenants := []string{"kv-session", "templated-html", "hostcall-micro", "xml-to-json", "stream-xform", "check-sha256"}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// A failed scrape ends the test mid-load: stop the clients before the
	// server goes away under them.
	t.Cleanup(func() { cancel(); wg.Wait() })
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.Invoke(ctx, tenants[(w+i)%len(tenants)], []byte("session body"), ""); err != nil {
					if ctx.Err() == nil {
						t.Errorf("client %d invoke %d: %v", w, i, err)
					}
					return
				}
			}
		}(w)
	}
	loaded := make(chan struct{})
	go func() { wg.Wait(); close(loaded) }()

	midLoad := 0
	for scraping := true; scraping; {
		select {
		case <-loaded:
			scraping = false
		default:
		}
		sz, err := c.Statsz(context.Background())
		if err != nil {
			t.Fatalf("statsz: %v", err)
		}
		check(sz, false)
		if a := sz.Counters.Admitted; a > 0 && a < clients*each {
			midLoad++
		}
	}
	sz, err := c.Statsz(context.Background())
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	check(sz, true)
	if sz.Counters.Admitted != clients*each {
		t.Fatalf("admitted %d, want %d", sz.Counters.Admitted, clients*each)
	}
	if midLoad < 10 {
		t.Fatalf("only %d scrapes landed mid-load; the per-scrape check is vacuous", midLoad)
	}
	if s := sz.Serve; s.Shed == 0 || s.Hostcalls.Calls == 0 || s.Tier.TieredInstrs == 0 || s.Substrate.Injected == 0 {
		t.Fatalf("load did not exercise every ledger section: %+v", s.Counts)
	}
}
