package stats

import (
	"runtime"
	"sync"
	"testing"
)

// TestRecorderConcurrent hammers one recorder from many goroutines and
// checks that no records are lost, the percentiles are coherent, and every
// concurrent Ledger is self-consistent (totals == Σ rows). Run under -race
// this is also the recorder's data-race test.
func TestRecorderConcurrent(t *testing.T) {
	const (
		writers = 8
		each    = 1000
	)
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"a", "b", "c"}[w%3]
			for i := 0; i < each; i++ {
				switch i % 4 {
				case 0, 1:
					r.RecordTenant(name, OutcomeOK, float64(w*each+i))
				case 2:
					r.RecordTenant(name, OutcomeTimeout, float64(i))
				case 3:
					if i%8 == 3 {
						r.RecordTenant(name, OutcomeShed, 0)
					} else {
						r.RecordTenant(name, OutcomeFault, float64(i))
					}
				}
			}
		}(w)
	}
	// Concurrent snapshots must not disturb recording, and each one is cut
	// from a single copy of the ledger.
	for i := 0; i < 50; i++ {
		serve, tenants := r.Ledger(1e9)
		var sum Counts
		for _, tn := range tenants {
			sum.Add(tn.Counts)
		}
		if sum != serve.Counts {
			t.Fatalf("snapshot %d: Σ tenants %+v != serve %+v", i, sum, serve.Counts)
		}
	}
	wg.Wait()

	s := r.Snapshot(2e9)
	if s.OK != writers*each/2 {
		t.Fatalf("OK = %d, want %d", s.OK, writers*each/2)
	}
	if s.Timeouts != writers*each/4 {
		t.Fatalf("timeouts = %d, want %d", s.Timeouts, writers*each/4)
	}
	if s.Shed+s.Faults != writers*each/4 {
		t.Fatalf("shed+faults = %d, want %d", s.Shed+s.Faults, writers*each/4)
	}
	if s.Executed() != s.OK+s.Timeouts+s.Faults {
		t.Fatalf("Executed() = %d inconsistent", s.Executed())
	}
	if s.P50Ns > s.P99Ns || s.P99Ns > s.P999Ns || s.P999Ns > s.MaxNs {
		t.Fatalf("percentiles out of order: %+v", s)
	}
	wantTput := float64(s.Executed()) / 2.0
	if s.ThroughputRPS != wantTput {
		t.Fatalf("throughput = %v, want %v", s.ThroughputRPS, wantTput)
	}
	wantShed := float64(s.Shed) / float64(s.Executed()+s.Shed)
	if s.ShedRate != wantShed {
		t.Fatalf("shed rate = %v, want %v", s.ShedRate, wantShed)
	}
}

// TestRecorderEmpty: a fresh recorder snapshots to zeros without panicking.
func TestRecorderEmpty(t *testing.T) {
	s := NewRecorder().Snapshot(0)
	if s.Executed() != 0 || s.P99Ns != 0 || s.ThroughputRPS != 0 || s.ShedRate != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

// TestRecorderPerTenant: each record lands in its tenant's row and the
// global view is the sum of the rows; conservation holds per tenant, p99s
// are per-tenant, not global, and mean/max are exact.
func TestRecorderPerTenant(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 100; i++ {
		r.RecordTenant("fast", OutcomeOK, 10)
	}
	for i := 0; i < 50; i++ {
		r.RecordTenant("slow", OutcomeOK, 1000)
	}
	r.RecordTenant("slow", OutcomeTimeout, 5000)
	r.RecordTenant("slow", OutcomeFault, 2000)
	r.RecordTenant("slow", OutcomeShed, 0)
	r.RecordTenant("slow", OutcomeRejected, 0)

	g := r.Snapshot(0)
	if g.OK != 150 || g.Timeouts != 1 || g.Faults != 1 || g.Shed != 1 || g.Rejected != 1 {
		t.Fatalf("global view wrong: %+v", g)
	}
	if want := (100*10 + 50*1000 + 5000 + 2000) / 152.0; g.MeanNs != want || g.MaxNs != 5000 {
		t.Fatalf("global mean/max = %v/%v, want exactly %v/5000", g.MeanNs, g.MaxNs, want)
	}

	ts := r.TenantSummaries()
	if len(ts) != 2 || ts[0].Tenant != "fast" || ts[1].Tenant != "slow" {
		t.Fatalf("tenants = %+v", ts)
	}
	fast, slow := ts[0], ts[1]
	if fast.OK != 100 || fast.Admitted() != 100 {
		t.Fatalf("fast = %+v", fast)
	}
	if slow.OK != 50 || slow.Timeouts != 1 || slow.Faults != 1 || slow.Shed != 1 || slow.Rejected != 1 {
		t.Fatalf("slow = %+v", slow)
	}
	if slow.Admitted() != 54 || slow.Executed() != 52 {
		t.Fatalf("slow conservation: %+v", slow)
	}
	if fast.P99Ns != 10 {
		t.Fatalf("fast p99 = %v, want 10 (per-tenant, not global)", fast.P99Ns)
	}
	if slow.P99Ns < 1000 {
		t.Fatalf("slow p99 = %v, want >= 1000", slow.P99Ns)
	}
	if got := r.Tenant("slow"); got.OK != 50 {
		t.Fatalf("Tenant(slow) = %+v", got)
	}
	if got := r.Tenant("nope"); got.Admitted() != 0 {
		t.Fatalf("Tenant(nope) = %+v", got)
	}
}

// TestRecorderPerTenantConcurrent: per-tenant attribution under concurrent
// writers loses nothing (run with -race).
func TestRecorderPerTenantConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	const writers, each = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"a", "b"}[w%2]
			for i := 0; i < each; i++ {
				r.RecordTenant(name, OutcomeOK, float64(i))
			}
		}(w)
	}
	wg.Wait()
	for _, name := range []string{"a", "b"} {
		if got := r.Tenant(name).OK; got != writers/2*each {
			t.Fatalf("%s OK = %d, want %d", name, got, writers/2*each)
		}
	}
	if g := r.Snapshot(0); g.OK != writers*each {
		t.Fatalf("global OK = %d", g.OK)
	}
}

// TestRecorderShedOnly: sheds never contribute latency samples.
func TestRecorderShedOnly(t *testing.T) {
	r := NewRecorder()
	r.RecordTenant("t", OutcomeShed, 12345) // latency argument must be ignored
	s := r.Snapshot(1e9)
	if s.Shed != 1 || s.MaxNs != 0 || s.ThroughputRPS != 0 {
		t.Fatalf("shed-only snapshot = %+v", s)
	}
	if s.ShedRate != 1 {
		t.Fatalf("shed rate = %v, want 1", s.ShedRate)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{OutcomeOK: "ok", OutcomeTimeout: "timeout", OutcomeFault: "fault", OutcomeShed: "shed"} {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", o, got, want)
		}
	}
}

// TestRecordRequestOneEntry: one RecordRequest call carries the outcome, the
// latency and the request's host-call/tier/substrate traffic into the
// tenant's row, and the totals are derived from it.
func TestRecordRequestOneEntry(t *testing.T) {
	r := NewRecorder()
	d := Counts{
		Hostcalls: HostcallCounters{Calls: 3, BytesIn: 40, BytesOut: 50, QuotaRejects: 1},
		Tier:      TierCounters{PromotedBlocks: 2, TieredInstrs: 900, InterpInstrs: 100},
		Substrate: SubstrateCounters{Injected: 2, Detected: 1, Recovered: 1, Benign: 1},
	}
	r.RecordRequest("kv", OutcomeFault, 700, d)
	r.RecordRequest("kv", OutcomeOK, 300, d)
	r.RecordRequest("other", OutcomeCanceled, 0, Counts{})

	want := d
	want.Add(d)
	want.OK, want.Faults = 1, 1
	kv := r.Tenant("kv")
	if kv.Counts != want || kv.Tenant != "kv" {
		t.Fatalf("kv row = %+v, want counts %+v", kv, want)
	}
	want.Canceled = 1
	g := r.Snapshot(0)
	if g.Counts != want {
		t.Fatalf("totals = %+v, want %+v", g.Counts, want)
	}
	if g.MeanNs != 500 || g.MaxNs != 700 {
		t.Fatalf("mean/max = %v/%v, want 500/700 (the canceled request has no latency sample)", g.MeanNs, g.MaxNs)
	}
}

// allocCost is the heap bytes and objects one call of f allocates.
// MemStats is process-wide, so a GC cycle starting mid-measurement adds a
// few objects; the minimum of three calls is f's own cost.
type allocCost struct{ bytes, objects uint64 }

func costOf(f func()) allocCost {
	least := allocCost{^uint64(0), ^uint64(0)}
	for k := 0; k < 3; k++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		least.bytes = min(least.bytes, m1.TotalAlloc-m0.TotalAlloc)
		least.objects = min(least.objects, m1.Mallocs-m0.Mallocs)
	}
	return least
}

// ledgerCost is what a recorder costs at some fill level: what recording
// into its existing rows allocates (an upper bound on what it retains
// beyond the rows), and what one Snapshot and one TenantSummaries allocate.
type ledgerCost struct{ record, snapshot, tenants allocCost }

// measureLedger records n latencies over a fixed tenant set.
func measureLedger(n int) ledgerCost {
	names := []string{"a", "b", "c", "d"}
	r := NewRecorder()
	for _, name := range names {
		r.RecordTenant(name, OutcomeOK, 1)
	}
	return ledgerCost{
		record: costOf(func() {
			for i := 0; i < n; i++ {
				r.RecordTenant(names[i%len(names)], OutcomeOK, float64(i)*997)
			}
		}),
		snapshot: costOf(func() { r.Snapshot(1e9) }),
		tenants:  costOf(func() { r.TenantSummaries() }),
	}
}

// TestRecorderBoundedMemory: what the ledger retains and what a snapshot of
// it allocates depend on the tenant set, not on how many latencies were
// recorded — 10³ and 10⁶ records cost the same.
func TestRecorderBoundedMemory(t *testing.T) {
	small, large := measureLedger(1_000), measureLedger(1_000_000)
	if small != large {
		t.Errorf("ledger cost depends on records:\n 1e3: %+v\n 1e6: %+v", small, large)
	}
	if small.record != (allocCost{}) {
		t.Errorf("recording into existing rows allocated %+v", small.record)
	}
}

// TestRecordZeroAllocs is the allocation gate for the completion path:
// recording for a tenant the ledger already has a row for must not
// allocate.
func TestRecordZeroAllocs(t *testing.T) {
	r := NewRecorder()
	d := Counts{Hostcalls: HostcallCounters{Calls: 1}, Tier: TierCounters{TieredInstrs: 10}}
	r.RecordRequest("kv", OutcomeOK, 1, d)
	lat := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		lat += 1234.5
		r.RecordRequest("kv", OutcomeOK, lat, d)
		r.RecordTenant("kv", OutcomeShed, 0)
	})
	if allocs != 0 {
		t.Fatalf("recording allocates %.1f allocs/op, want 0", allocs)
	}
}
