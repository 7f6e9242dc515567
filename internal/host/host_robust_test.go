package host

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfi/internal/chaos"
	"hfi/internal/faas"
	"hfi/internal/isa"
	"hfi/internal/sfi"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// flakyTenant builds a tenant whose run(n) traps whenever the request body
// is non-empty and halts with an empty response otherwise; MakeRequest
// makes the first failBelow requests of the stream fail. This gives tests
// a tenant with a deterministic, seq-addressed fault pattern without any
// chaos injector.
func flakyTenant(name string, failBelow int) workloads.Tenant {
	m := wasm.NewModule(name, 1, 16)
	f := m.Func("run", 1)
	n := f.Param(0)
	f.BrImm(isa.CondEQ, n, 0, "ok")
	f.Trap()
	f.Label("ok")
	f.Ret(n)
	return workloads.Tenant{
		Name: name, Mod: m,
		MakeRequest: func(i int) []byte {
			if i < failBelow {
				return []byte{1}
			}
			return nil
		},
	}
}

// TestSubmitAfterCloseTyped: the satellite contract — Submit on a closed
// server resolves immediately with StatusClosed and the typed ErrClosed,
// never a zero-value Response.
func TestSubmitAfterCloseTyped(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[0]
	s := New(Config{Workers: 1})
	s.Close()

	r := s.Do(context.Background(), treq(tenant, faas.StockLucet(), 0))
	if r.Status != StatusClosed {
		t.Fatalf("status = %v, want %v", r.Status, StatusClosed)
	}
	if !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", r.Err)
	}
	if got := s.Counters().ClosedRejects; got != 1 {
		t.Fatalf("ClosedRejects = %d, want 1", got)
	}
	// Closed-server refusals are not admitted and not recorded.
	if s.Admitted() != 0 || s.Snapshot(0).Executed() != 0 {
		t.Fatalf("closed refusal leaked into accounting: admitted=%d", s.Admitted())
	}
}

// TestCloseUnderLoad: Close racing a storm of submitters loses nothing —
// every Do resolves exactly once, as a real outcome (admitted before the
// close, drained) or as a typed StatusClosed, and the two sets partition
// the total exactly.
func TestCloseUnderLoad(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[3]
	iso := faas.StockLucet()
	s := New(Config{Workers: 2, QueueDepth: 4, DispatchWall: 500 * time.Microsecond})

	const clients, per = 8, 8
	results := make(chan Response, clients*per)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				results <- s.Do(context.Background(), treq(tenant, iso, c*per+i))
			}
		}(c)
	}
	time.Sleep(3 * time.Millisecond)
	s.Close()
	wg.Wait()
	close(results)

	var ok, closed uint64
	for r := range results {
		switch r.Status {
		case StatusOK:
			if r.Err != nil {
				t.Fatalf("OK response carries err %v", r.Err)
			}
			ok++
		case StatusClosed:
			if !errors.Is(r.Err, ErrClosed) {
				t.Fatalf("closed response err = %v, want ErrClosed", r.Err)
			}
			closed++
		default:
			t.Fatalf("unexpected status %v (err %v)", r.Status, r.Err)
		}
	}
	if ok+closed != clients*per {
		t.Fatalf("resolved %d+%d of %d submissions", ok, closed, clients*per)
	}
	if ok == 0 {
		t.Fatal("nothing drained before close — in-flight work was dropped")
	}
	// Everything admitted pre-close drained with a real outcome.
	if got := s.Admitted(); got != ok {
		t.Fatalf("Admitted() = %d, but %d real outcomes resolved", got, ok)
	}
	if got := s.Counters().ClosedRejects; got != closed {
		t.Fatalf("ClosedRejects = %d, observed %d StatusClosed", got, closed)
	}
	sum := s.Snapshot(0)
	if sum.OK != ok || sum.Executed()+sum.Shed+sum.Rejected != ok {
		t.Fatalf("recorder %+v inconsistent with ok=%d closed=%d", sum, ok, closed)
	}
}

// TestShedAccountingConservation: the queue-accounting satellite. Many
// goroutines hammering one PolicyShed tenant while the worker drains must
// account every submission exactly once: submitted == ok + shed,
// Rejected() equals the observed shed responses, and the recorder's
// conservation invariant holds with no slack.
func TestShedAccountingConservation(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[3]
	iso := faas.StockLucet()
	s := New(Config{Workers: 1, QueueDepth: 1, Policy: PolicyShed, DispatchWall: 200 * time.Microsecond})

	const clients, per = 8, 40
	var ok, shed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch r := s.Do(context.Background(), treq(tenant, iso, c*per+i)); r.Status {
				case StatusOK:
					ok.Add(1)
				case StatusShed:
					shed.Add(1)
				default:
					t.Errorf("unexpected status %v", r.Status)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	s.Close()

	const total = clients * per
	if ok.Load()+shed.Load() != total {
		t.Fatalf("ok %d + shed %d != %d", ok.Load(), shed.Load(), total)
	}
	if shed.Load() == 0 {
		t.Fatal("depth-1 shed queue under 8 clients shed nothing")
	}
	if got := s.Admitted(); got != total {
		t.Fatalf("Admitted() = %d, want %d (every submission is admitted under PolicyShed)", got, total)
	}
	if got := s.Counters().Shed; got != shed.Load() {
		t.Fatalf("Counters().Shed = %d, observed %d shed responses", got, shed.Load())
	}
	sum := s.Snapshot(0)
	if sum.OK != ok.Load() || sum.Shed != shed.Load() {
		t.Fatalf("recorder %+v != observed ok=%d shed=%d", sum, ok.Load(), shed.Load())
	}
	if sum.Executed()+sum.Shed+sum.Rejected != total {
		t.Fatalf("conservation violated: %+v does not sum to %d", sum, total)
	}
	ts := s.rec.Tenant(tenant.Name)
	if ts.Admitted() != total || ts.Shed != shed.Load() {
		t.Fatalf("per-tenant breakdown %+v inconsistent with total=%d shed=%d", ts, total, shed.Load())
	}
}

// TestProvisionRetryTransient: injected transient provisioning failures are
// retried with backoff and eventually succeed when the retry budget covers
// the injector's failure prefix.
func TestProvisionRetryTransient(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[0]
	iso := faas.StockLucet()
	inj := chaos.New(chaos.Config{Seed: 7, Provision: 1, MaxProvisionFails: 2})
	s := New(Config{Workers: 1, Chaos: inj,
		Retry: RetryConfig{Max: 2, Base: 50 * time.Microsecond, Cap: 200 * time.Microsecond}})
	defer s.Close()

	r := s.Do(context.Background(), treq(tenant, iso, 0))
	if r.Status != StatusOK {
		t.Fatalf("status = %v (err %v), want OK after retries", r.Status, r.Err)
	}
	ctr := s.Counters()
	if ctr.ProvisionRetries == 0 || ctr.ProvisionRetries > 2 {
		t.Fatalf("ProvisionRetries = %d, want 1..2", ctr.ProvisionRetries)
	}
	// Warm reuse afterwards: no fresh provisioning, no fresh retries.
	if r := s.Do(context.Background(), treq(tenant, iso, 1)); r.Status != StatusOK {
		t.Fatalf("warm request: %v", r.Status)
	}
	if got := s.Counters(); got.ColdStarts != 1 || got.ProvisionRetries != ctr.ProvisionRetries {
		t.Fatalf("warm reuse reprovisioned: %+v", got)
	}
}

// TestProvisionRetryBudgetExhausted: with no retry budget the same
// transient failure surfaces as a typed fault.
func TestProvisionRetryBudgetExhausted(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[0]
	inj := chaos.New(chaos.Config{Seed: 7, Provision: 1, MaxProvisionFails: 2})
	s := New(Config{Workers: 1, Chaos: inj})
	defer s.Close()

	r := s.Do(context.Background(), treq(tenant, faas.StockLucet(), 0))
	if r.Status != StatusFault {
		t.Fatalf("status = %v, want fault with Retry.Max=0", r.Status)
	}
	var fe *chaos.FaultError
	if !errors.As(r.Err, &fe) || !faas.IsTransient(r.Err) {
		t.Fatalf("err = %v, want a transient *chaos.FaultError", r.Err)
	}
	if got := s.Counters().ProvisionRetries; got != 0 {
		t.Fatalf("ProvisionRetries = %d, want 0", got)
	}
}

// TestBreakerTripsShedsRecovers: a tenant whose first requests all fault
// trips its breaker (typed ErrBreakerOpen sheds), then recovers through a
// half-open probe once its requests succeed again. Single worker and
// sequential Do make the whole trajectory deterministic.
func TestBreakerTripsShedsRecovers(t *testing.T) {
	tenant := flakyTenant("flaky-breaker", 4) // seqs 0..3 fault, then healthy
	iso := faas.Config{Name: "HFI", Scheme: sfi.HFI}
	s := New(Config{Workers: 1, Breaker: BreakerConfig{
		Window: 4, MinSamples: 4, TripRatio: 1.0,
		OpenFor: 20 * time.Millisecond, Probes: 1,
	}})
	defer s.Close()

	for i := 0; i < 4; i++ {
		if r := s.Do(context.Background(), treq(tenant, iso, i)); r.Status != StatusFault {
			t.Fatalf("seq %d: status %v, want fault", i, r.Status)
		}
	}
	// Tripped: sheds fast with the typed error, without executing.
	r := s.Do(context.Background(), treq(tenant, iso, 4))
	if r.Status != StatusShed || !errors.Is(r.Err, ErrBreakerOpen) {
		t.Fatalf("post-trip: status %v err %v, want shed/ErrBreakerOpen", r.Status, r.Err)
	}
	if got := s.Counters().BreakerTrips; got != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", got)
	}

	// After OpenFor the probe is admitted; the tenant is healthy now, so
	// the breaker closes and stays closed.
	time.Sleep(30 * time.Millisecond)
	for i := 5; i < 8; i++ {
		if r := s.Do(context.Background(), treq(tenant, iso, i)); r.Status != StatusOK {
			t.Fatalf("recovered seq %d: status %v err %v", i, r.Status, r.Err)
		}
	}
	ts := s.rec.Tenant(tenant.Name)
	if ts.Faults != 4 || ts.Shed == 0 || ts.OK != 3 {
		t.Fatalf("tenant breakdown %+v, want 4 faults / ≥1 shed / 3 ok", ts)
	}
	// Breaker sheds count toward the 429 counter like queue sheds.
	if got := s.Counters().Shed; got != ts.Shed {
		t.Fatalf("Counters().Shed = %d, tenant shed = %d", got, ts.Shed)
	}
}

// TestQuarantineKeepsVerifiedInstance: faults quarantine the instance, but
// a verified reset returns it to the pool — repeated faults reuse one
// instance, no re-provisioning.
func TestQuarantineKeepsVerifiedInstance(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[0]
	inj := chaos.New(chaos.Config{Seed: 3, Trap: 1}) // every request traps, resets stay clean
	s := New(Config{Workers: 1, Chaos: inj})

	for i := 0; i < 3; i++ {
		if r := s.Do(context.Background(), treq(tenant, faas.StockLucet(), i)); r.Status != StatusFault {
			t.Fatalf("seq %d: status %v, want injected fault", i, r.Status)
		}
	}
	s.Close()
	ctr := s.Counters()
	if ctr.Quarantined != 3 || ctr.QuarantineDiscard != 0 {
		t.Fatalf("quarantined=%d discarded=%d, want 3/0", ctr.Quarantined, ctr.QuarantineDiscard)
	}
	if ctr.ColdStarts != 1 {
		t.Fatalf("ColdStarts = %d, want 1 (verified instance reused)", ctr.ColdStarts)
	}
}

// TestQuarantineDiscardsPoisonedInstance: when reset fails to restore the
// baseline heap image (the injector's poison seam), the hash check catches
// it and the instance is discarded — the next request re-provisions.
func TestQuarantineDiscardsPoisonedInstance(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[0]
	inj := chaos.New(chaos.Config{Seed: 3, Trap: 1, Poison: 1})
	s := New(Config{Workers: 1, Chaos: inj})

	for i := 0; i < 2; i++ {
		if r := s.Do(context.Background(), treq(tenant, faas.StockLucet(), i)); r.Status != StatusFault {
			t.Fatalf("seq %d: status %v, want injected fault", i, r.Status)
		}
	}
	s.Close()
	ctr := s.Counters()
	if ctr.QuarantineDiscard != 2 {
		t.Fatalf("QuarantineDiscard = %d, want 2", ctr.QuarantineDiscard)
	}
	if ctr.ColdStarts != 2 {
		t.Fatalf("ColdStarts = %d, want 2 (poisoned instances never reused)", ctr.ColdStarts)
	}
	if ctr.PoolSize != 0 {
		t.Fatalf("PoolSize = %d after close, want 0", ctr.PoolSize)
	}
	if ctr.Teardowns != ctr.ColdStarts {
		t.Fatalf("Teardowns = %d, ColdStarts = %d — a discarded instance escaped teardown", ctr.Teardowns, ctr.ColdStarts)
	}
}

// TestPoolEvictionLRU: a capped pool under key churn evicts least-recently
// used instances, re-provisions on revisit, and tears down exactly what it
// provisioned.
func TestPoolEvictionLRU(t *testing.T) {
	light := workloads.FaaSTenantsLight()
	iso := faas.StockLucet()
	s := New(Config{Workers: 1, Pool: PoolConfig{Cap: 2, TeardownBatch: 2}})

	for _, tn := range light { // 4 distinct pool keys through a cap-2 pool
		if r := s.Do(context.Background(), treq(tn, iso, 0)); r.Status != StatusOK {
			t.Fatalf("%s: %v", tn.Name, r.Status)
		}
	}
	// light[0] was evicted long ago; revisiting re-provisions.
	if r := s.Do(context.Background(), treq(light[0], iso, 1)); r.Status != StatusOK {
		t.Fatalf("revisit: %v", r.Status)
	}
	mid := s.Counters()
	if mid.ColdStarts != 5 {
		t.Fatalf("ColdStarts = %d, want 5 (4 distinct + 1 revisit)", mid.ColdStarts)
	}
	if mid.Evictions != 3 {
		t.Fatalf("Evictions = %d, want 3", mid.Evictions)
	}
	if mid.PoolSize != 2 || mid.PoolHighWater > 3 {
		t.Fatalf("pool size %d (high %d), want ≤ cap 2 (high ≤ cap+1)", mid.PoolSize, mid.PoolHighWater)
	}
	s.Close()
	end := s.Counters()
	if end.PoolSize != 0 || end.Teardowns != end.ColdStarts {
		t.Fatalf("after close: size=%d teardowns=%d coldstarts=%d, want 0 and equal", end.PoolSize, end.Teardowns, end.ColdStarts)
	}
}

// TestPoolTTLEviction: idle instances past the TTL are swept on the next
// pool access, so an idle tenant's warm state does not pin memory forever.
func TestPoolTTLEviction(t *testing.T) {
	light := workloads.FaaSTenantsLight()
	iso := faas.StockLucet()
	s := New(Config{Workers: 1, Pool: PoolConfig{TTL: 5 * time.Millisecond, TeardownBatch: 1}})
	defer s.Close()

	if r := s.Do(context.Background(), treq(light[0], iso, 0)); r.Status != StatusOK {
		t.Fatalf("first: %v", r.Status)
	}
	time.Sleep(15 * time.Millisecond)
	if r := s.Do(context.Background(), treq(light[1], iso, 0)); r.Status != StatusOK {
		t.Fatalf("second: %v", r.Status)
	}
	if got := s.Counters().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1 (stale instance swept)", got)
	}
	if r := s.Do(context.Background(), treq(light[0], iso, 1)); r.Status != StatusOK {
		t.Fatalf("revisit: %v", r.Status)
	}
	if got := s.Counters().ColdStarts; got != 3 {
		t.Fatalf("ColdStarts = %d, want 3 (TTL eviction forces re-provision)", got)
	}
}

// TestDRRFairnessUnderLoad: end-to-end fairness — while one tenant's deep
// backlog drains, a late-arriving tenant's short burst completes without
// waiting out the backlog.
func TestDRRFairnessUnderLoad(t *testing.T) {
	hot := workloads.FaaSTenantsLight()[3]
	cold := workloads.FaaSTenantsLight()[0]
	iso := faas.StockLucet()
	s := New(Config{Workers: 1, QueueDepth: 64, DispatchWall: time.Millisecond})

	const hotN = 50
	var hotDone atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < hotN; i++ {
		ch := s.Submit(context.Background(), treq(hot, iso, i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := <-ch; r.Status == StatusOK {
				hotDone.Add(1)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let the worker start on the backlog

	for i := 0; i < 5; i++ {
		if r := s.Do(context.Background(), treq(cold, iso, i)); r.Status != StatusOK {
			t.Fatalf("cold seq %d: %v", i, r.Status)
		}
	}
	// DRR interleaves: the cold burst finished while most of the hot
	// backlog was still queued. A FIFO queue would have forced the cold
	// tenant to wait out all 50.
	if done := hotDone.Load(); done >= hotN-5 {
		t.Fatalf("cold burst only completed after %d/%d hot requests — starved", done, hotN)
	}
	wg.Wait()
	s.Close()
	if hotDone.Load() != hotN {
		t.Fatalf("hot tenant completed %d/%d", hotDone.Load(), hotN)
	}
	if got := s.sched.tenantServed(cold.Name); got != 5 {
		t.Fatalf("scheduler served %d cold requests, want 5", got)
	}
}
