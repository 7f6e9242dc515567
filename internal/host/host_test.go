package host

import (
	"context"
	"errors"
	"testing"
	"time"

	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/isa"
	"hfi/internal/sfi"
	"hfi/internal/verifier"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// equivalenceConfigs is every isolation configuration the equivalence
// invariant must hold under: the three Table 1 platform configs plus the
// raw HFI, bounds-check, and masking schemes.
func equivalenceConfigs() []faas.Config {
	return []faas.Config{
		faas.StockLucet(),
		faas.LucetHFI(),
		faas.LucetSwivel(),
		{Name: "HFI", Scheme: sfi.HFI},
		{Name: "Bounds", Scheme: sfi.BoundsCheck},
		{Name: "Masking", Scheme: sfi.Masking},
	}
}

// treq builds one test request through the options constructor — the only
// construction path the API now offers (NewRequest names the tenant; the
// workload option supplies its module and request stream).
func treq(tn workloads.Tenant, iso faas.Config, seq int) Request {
	return NewRequest(tn.Name, uint64(seq), WithWorkload(tn), WithIso(iso))
}

// TestServeEquivalence: for every tenant × isolation config, the aggregate
// response checksum under the concurrent host must equal the
// single-threaded faas.ServeTenant run over the same request set — the
// engine-equivalence invariant extended to the parallel hot path.
func TestServeEquivalence(t *testing.T) {
	const n = 5
	for _, tenant := range workloads.FaaSTenantsLight() {
		for _, cfg := range equivalenceConfigs() {
			want, err := faas.ServeTenant(tenant, cfg, n)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", tenant.Name, cfg.Name, err)
			}

			s := New(Config{Workers: 4})
			chans := make([]<-chan Response, n)
			for i := 0; i < n; i++ {
				chans[i] = s.Submit(context.Background(), treq(tenant, cfg, i))
			}
			var got uint64
			for i, ch := range chans {
				r := <-ch
				if r.Status != StatusOK {
					t.Fatalf("%s/%s seq %d: status %v (stop %v, err %v)", tenant.Name, cfg.Name, i, r.Status, r.Stop, r.Err)
				}
				got ^= faas.HashResponse(i, r.Body)
			}
			s.Close()

			if got != want.Checksum {
				t.Fatalf("%s/%s: concurrent checksum %#x != single-threaded %#x", tenant.Name, cfg.Name, got, want.Checksum)
			}
		}
	}
}

// TestFuelDeadline: a starved instruction budget surfaces as
// StatusTimeout/StopLimit, and the instance recovers (via Reset) to serve
// the same request correctly afterwards on the same worker.
func TestFuelDeadline(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[3] // templated-html
	cfg := faas.StockLucet()
	want, err := faas.ServeTenant(tenant, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1})
	defer s.Close()

	r := s.Do(context.Background(), NewRequest(tenant.Name, 0, WithWorkload(tenant), WithIso(cfg), WithFuel(100)))
	if r.Status != StatusTimeout || r.Stop != cpu.StopLimit {
		t.Fatalf("starved request: status %v stop %v, want timeout/limit", r.Status, r.Stop)
	}
	r = s.Do(context.Background(), treq(tenant, cfg, 0))
	if r.Status != StatusOK {
		t.Fatalf("post-timeout request: status %v stop %v", r.Status, r.Stop)
	}
	if got := faas.HashResponse(0, r.Body); got != want.Checksum {
		t.Fatalf("post-timeout response checksum %#x != reference %#x (instance reset failed)", got, want.Checksum)
	}

	sum := s.Snapshot(0)
	if sum.Timeouts != 1 || sum.OK != 1 {
		t.Fatalf("summary = %+v, want 1 timeout + 1 ok", sum)
	}
}

// TestBackpressureShed: with PolicyShed and a saturated single worker, some
// admissions are rejected with StatusShed, the 429 counter matches, and
// every submission still resolves exactly once.
func TestBackpressureShed(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[3]
	cfg := faas.StockLucet()
	s := New(Config{Workers: 1, QueueDepth: 1, Policy: PolicyShed, DispatchWall: 2 * time.Millisecond})

	const total = 32
	chans := make([]<-chan Response, total)
	for i := 0; i < total; i++ {
		chans[i] = s.Submit(context.Background(), treq(tenant, cfg, i))
	}
	var ok, shed uint64
	for _, ch := range chans {
		switch r := <-ch; r.Status {
		case StatusOK:
			ok++
		case StatusShed:
			shed++
		default:
			t.Fatalf("unexpected status %v", r.Status)
		}
	}
	s.Close()

	if shed == 0 {
		t.Fatal("no sheds despite saturated worker and depth-1 queue")
	}
	if got := s.Counters().Shed; got != shed {
		t.Fatalf("Counters().Shed = %d, observed %d shed responses", got, shed)
	}
	sum := s.Snapshot(0)
	if sum.Shed != shed || sum.OK != ok || ok+shed != total {
		t.Fatalf("summary %+v inconsistent with ok=%d shed=%d", sum, ok, shed)
	}
	if sum.ShedRate <= 0 || sum.ShedRate >= 1 {
		t.Fatalf("shed rate = %v, want in (0,1)", sum.ShedRate)
	}
}

// TestBackpressureBlock: under PolicyBlock nothing is ever rejected — the
// queue being full just slows submitters down.
func TestBackpressureBlock(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[3]
	cfg := faas.StockLucet()
	s := New(Config{Workers: 2, QueueDepth: 2, Policy: PolicyBlock, DispatchWall: time.Millisecond})

	const total = 24
	done := make(chan Response, total)
	for c := 0; c < 4; c++ {
		go func(c int) {
			for i := c; i < total; i += 4 {
				done <- s.Do(context.Background(), treq(tenant, cfg, i))
			}
		}(c)
	}
	for i := 0; i < total; i++ {
		if r := <-done; r.Status != StatusOK {
			t.Fatalf("status %v", r.Status)
		}
	}
	s.Close()
	if s.Counters().Shed != 0 {
		t.Fatalf("PolicyBlock rejected %d requests", s.Counters().Shed)
	}
}

// TestWarmReuse: a single worker serving one tenant repeatedly provisions
// exactly once — the pool actually pools.
func TestWarmReuse(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[3]
	cfg := faas.StockLucet()
	s := New(Config{Workers: 1})
	for i := 0; i < 10; i++ {
		if r := s.Do(context.Background(), treq(tenant, cfg, i)); r.Status != StatusOK {
			t.Fatalf("seq %d: %v", i, r.Status)
		}
	}
	s.Close()
	if got := s.Counters().ColdStarts; got != 1 {
		t.Fatalf("cold starts = %d, want 1", got)
	}
}

// TestScheduleDeterminism: the load schedule is a pure function of
// (mix, total, seed).
func TestScheduleDeterminism(t *testing.T) {
	a := BuildSchedule(DefaultMix(), 200, 99)
	b := BuildSchedule(DefaultMix(), 200, 99)
	for i := range a {
		if a[i].Tenant.Name != b[i].Tenant.Name || a[i].Seq != b[i].Seq || a[i].Iso != b[i].Iso {
			t.Fatalf("schedule diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// unverifiableTenant builds a tenant whose program compiles but fails
// static verification: its memory.grow limit is far past the 8 GiB guard
// reservation, so the grow path's mprotect range cannot be proven inside
// the heap window.
func unverifiableTenant() workloads.Tenant {
	m := wasm.NewModule("oversized-grow", 1, 200_000)
	f := m.Func("run", 1)
	old := f.NewReg()
	f.Grow(old, f.Param(0))
	f.BrImm(isa.CondEQ, old, 0xFFFFFFFF, "fail")
	f.Ret(old)
	f.Label("fail")
	f.Trap()
	return workloads.Tenant{
		Name: "oversized-grow", Mod: m,
		MakeRequest: func(i int) []byte { return nil },
	}
}

// TestRejectedTenantDistinctFromShed: provisioning a tenant whose program
// fails verification yields StatusRejected with a typed
// *verifier.RejectError, recorded separately from sheds and faults, and
// never executes. Healthy traffic on the same server is unaffected.
func TestRejectedTenantDistinctFromShed(t *testing.T) {
	s := New(Config{Workers: 2})
	iso := faas.Config{Name: "Guard", Scheme: sfi.GuardPages}

	r := s.Do(context.Background(), treq(unverifiableTenant(), iso, 0))
	if r.Status != StatusRejected {
		t.Fatalf("status = %v (err %v), want %v", r.Status, r.Err, StatusRejected)
	}
	var re *verifier.RejectError
	if !errors.As(r.Err, &re) {
		t.Fatalf("err = %v, want a *verifier.RejectError", r.Err)
	}

	// The same server still serves verifiable tenants.
	good := workloads.FaaSTenantsLight()[0]
	if g := s.Do(context.Background(), treq(good, iso, 0)); g.Status != StatusOK {
		t.Fatalf("healthy tenant: status = %v (err %v)", g.Status, g.Err)
	}
	s.Close()

	sum := s.Snapshot(time.Second)
	if sum.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", sum.Rejected)
	}
	if sum.Shed != 0 || sum.Faults != 0 {
		t.Fatalf("shed = %d faults = %d, want 0/0: rejection must not masquerade", sum.Shed, sum.Faults)
	}
	if sum.Executed() != 1 {
		t.Fatalf("executed = %d, want 1 (the healthy request only)", sum.Executed())
	}
}

// TestServersOwnTheirImageCaches: two servers in one process each compile
// through their own image cache, so each reports only its own lowering
// counts — a tenant both serve is a miss on both.
func TestServersOwnTheirImageCaches(t *testing.T) {
	light := workloads.FaaSTenantsLight()
	iso := faas.StockLucet()
	a, b := New(Config{Workers: 1}), New(Config{Workers: 1})
	defer a.Close()
	defer b.Close()
	for _, r := range []struct {
		s  *Server
		tn workloads.Tenant
	}{{a, light[0]}, {b, light[0]}, {b, light[1]}} {
		if resp := r.s.Do(context.Background(), treq(r.tn, iso, 0)); resp.Status != StatusOK {
			t.Fatalf("%s: status %v (%v)", r.tn.Name, resp.Status, resp.Err)
		}
	}
	ca, cb := a.Counters(), b.Counters()
	if ca.LoweringHits != 0 || ca.LoweringMisses != 1 {
		t.Errorf("server a lowering hits/misses = %d/%d, want 0/1", ca.LoweringHits, ca.LoweringMisses)
	}
	if cb.LoweringHits != 0 || cb.LoweringMisses != 2 {
		t.Errorf("server b lowering hits/misses = %d/%d, want 0/2", cb.LoweringHits, cb.LoweringMisses)
	}
}
