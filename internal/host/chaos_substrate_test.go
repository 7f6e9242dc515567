package host

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfi/internal/chaos"
	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/kernel"
	"hfi/internal/stats"
	"hfi/internal/tier"
)

// The substrate soak is chaos phase three: faults injected *below* the
// serving seams — bit flips in guest heaps, stale decision-cache entries
// surviving a suppressed invalidation, clock skew between a worker's
// rails, corrupted cached-lowering gate verdicts — with the host's
// detect-and-recover path (sampled heap-hash spot checks, generation
// cross-audits, gate freshness audits, drift audits, quarantine) standing
// between the corruption and the tenants. Run race-detected, twice with
// the same seed, with a cross-tenant escape oracle armed on every
// provisioned machine, it asserts exactly:
//
//   - determinism — identical per-tenant outcomes, checksums, and
//     substrate counters across same-seed runs;
//   - prediction — outcomes and per-tenant substrate counters match a
//     single-threaded mirror of the injector's decision schedule;
//   - conservation — admitted == ok+timeout+fault+shed+rejected+canceled
//     with substrate faults folded into fault, and
//     Injected == Detected + Benign, Recovered == Detected, globally and
//     per tenant, with the global view the exact sum of tenant views;
//   - containment — zero accesses outside any instance's owned spans
//     under every substrate fault class (the mutation harness's canary
//     oracle, here armed fleet-wide via Config.OnProvision).

// soakSubstrateCfg layers the four substrate classes onto the phase-one
// seam faults. SpotCheck samples half the served requests for the
// cost-modeled heap scrub; live/dead plant modes split ~50/50 inside the
// injector, so every class exercises both its detected and its benign
// disposition.
func soakSubstrateCfg(seed int64) chaos.Config {
	return chaos.Config{
		Seed:      seed,
		Provision: 0.4, MaxProvisionFails: 2,
		Reject: 0.03,
		Trap:   0.05,
		Fuel:   0.05, StarvedFuel: 64,
		Slow: 0.02, SlowFor: 200 * time.Microsecond,
		Poison:   0.5,
		Hostcall: 0.10,

		BitFlip: 0.12, SpotCheck: 0.5,
		TLBStale:  0.10,
		ClockSkew: 0.08, SkewNs: 40_000,
		LoweringRot: 0.12,
	}
}

// substrateOutcomes extends the outcome tuple with the substrate ledger:
// faults carrying a typed *cpu.SubstrateError are counted apart from
// ordinary guest faults, and the per-tenant SubstrateCounters ride along.
type substrateOutcomes struct {
	ok, timeouts, faults, subFaults, rejected uint64
	checksum                                  uint64
	sc                                        stats.SubstrateCounters
}

// escapeOracle is the fleet-wide cross-tenant containment oracle: armed
// on every instance the server provisions (Config.OnProvision), it maps
// writable canary pages directly after the heap reservation and the aux
// block and hooks every architectural memory access, flagging any that
// leaves the instance's owned spans. Substrate chaos must never turn
// into an escape — that is the PR's containment claim.
type escapeOracle struct {
	escapes atomic.Uint64
	mu      sync.Mutex
	first   string
}

func (o *escapeOracle) arm(ti *faas.TenantInstance) {
	inst := ti.Inst
	type span struct{ lo, hi uint64 }
	owned := []span{
		{inst.CodeBase, inst.CodeBase + inst.CodeSize},
		{inst.HeapBase, inst.HeapBase + inst.HeapReserved},
		{inst.AuxBase, inst.AuxBase + inst.AuxSize},
	}
	for i, b := range inst.ExtraMemBases {
		if b != 0 {
			owned = append(owned, span{b, b + inst.ExtraMemReserved[i]})
		}
	}
	m := ti.RT.M
	for _, at := range []uint64{inst.HeapBase + inst.HeapReserved, inst.AuxBase + inst.AuxSize} {
		_ = m.AS.MapFixed(at, 4*kernel.OSPageSize, kernel.ProtRead|kernel.ProtWrite)
	}
	m.MemHook = func(pc, addr uint64, size uint8, write bool) {
		end := addr + uint64(size)
		for _, s := range owned {
			if addr >= s.lo && end <= s.hi {
				return
			}
		}
		o.escapes.Add(1)
		o.mu.Lock()
		if o.first == "" {
			kind := "load"
			if write {
				kind = "store"
			}
			o.first = fmt.Sprintf("%s %s of %d bytes at %#x (pc %#x) outside sandbox",
				ti.Tenant.Name, kind, size, addr, pc)
		}
		o.mu.Unlock()
	}
}

// substrateRun is one substrate soak's observable result.
type substrateRun struct {
	sum     stats.ServeSummary
	tenants map[string]substrateOutcomes
	tsums   []stats.TenantSummary
	ctr     Counters
	snap    chaos.Summary
	escapes uint64
	first   string
}

// runSubstrateSoakOnce pushes reqs through a fresh substrate-chaos server
// with 8 concurrent closed-loop clients, the escape oracle armed on every
// provisioned instance.
func runSubstrateSoakOnce(t *testing.T, seed int64, reqs []Request) substrateRun {
	t.Helper()
	inj := chaos.New(soakSubstrateCfg(seed))
	oracle := &escapeOracle{}
	s := New(Config{
		Workers: 4, QueueDepth: 8, Policy: PolicyBlock,
		Retry: RetryConfig{Max: 2, Base: 50 * time.Microsecond, Cap: time.Millisecond},
		Pool:  PoolConfig{Cap: 3, TeardownBatch: 4},
		Chaos: inj, Seed: seed,
		OnProvision: oracle.arm,
		Tenants:     map[string]TenantPolicy{reqs[0].Tenant.Name: {Weight: 2}},
	})

	var next atomic.Int64
	var mu sync.Mutex
	obs := make(map[string]substrateOutcomes)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := s.Do(context.Background(), reqs[i])
				name := reqs[i].Tenant.Name
				mu.Lock()
				o := obs[name]
				switch r.Status {
				case StatusOK:
					o.ok++
					o.checksum ^= faas.HashResponse(int(reqs[i].Seq), r.Body)
				case StatusTimeout:
					o.timeouts++
				case StatusFault:
					if errors.Is(r.Err, cpu.ErrSubstrate) {
						o.subFaults++
					} else {
						o.faults++
					}
				case StatusRejected:
					o.rejected++
				default:
					t.Errorf("req %d (%s seq %d): unexpected status %v err %v",
						i, name, reqs[i].Seq, r.Status, r.Err)
				}
				obs[name] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.Close()
	for _, ts := range s.TenantSummaries() {
		o := obs[ts.Tenant]
		o.sc = ts.Substrate
		obs[ts.Tenant] = o
	}
	return substrateRun{
		sum: s.Snapshot(0), tenants: obs, tsums: s.TenantSummaries(),
		ctr: s.Counters(), snap: inj.Snapshot(),
		escapes: oracle.escapes.Load(), first: oracle.first,
	}
}

// substrateExpected predicts each tenant's outcomes, clean-response
// checksum, and SubstrateCounters from the injector decisions alone,
// serving the request set single-threaded as ground truth. The mirror
// follows the host's decision order exactly: admission rejection, then
// injected trap, then fuel starvation, then the end-of-request substrate
// stage — whose rot draw only happens for (tenant, iso) keys whose
// provisioned instance carries a cached lowering, mirrored here off a
// reference instance per key.
func substrateExpected(t *testing.T, seed int64, reqs []Request) map[string]substrateOutcomes {
	t.Helper()
	inj := chaos.New(soakSubstrateCfg(seed))
	instances := make(map[poolKey]*faas.TenantInstance)
	exp := make(map[string]substrateOutcomes)
	for _, r := range reqs {
		key := poolKey{r.Tenant.Name, r.Iso}
		ti := instances[key]
		if ti == nil {
			var err error
			ti, err = faas.Provision(r.Tenant, r.Iso)
			if err != nil {
				t.Fatalf("reference provision %s: %v", r.Tenant.Name, err)
			}
			instances[key] = ti
		}
		name, seq := r.Tenant.Name, int(r.Seq)
		ti.ArmHostcallFault(inj.Hostcall(name, seq))
		body, res := ti.ServeRequest(seq, 0)
		if res.Reason != cpu.StopHalt {
			t.Fatalf("reference %s seq %d: stop %v", name, r.Seq, res.Reason)
		}
		o := exp[name]
		switch {
		case inj.RejectAtAdmission(name, seq) != nil:
			o.rejected++
		case inj.Trap(name, seq):
			o.faults++
		case func() bool { _, starved := inj.StarveFuel(name, seq); return starved }():
			o.timeouts++
		default:
			// The substrate stage: same draws, same conditionals as
			// Server.substrateStage, reduced to their accounting.
			var sc stats.SubstrateCounters
			flip := inj.BitFlip(name, seq)
			spot := inj.SpotCheck(name, seq)
			tlbLive, tlbOK := inj.TLBStale(name, seq)
			_, skewLive, skewOK := inj.ClockSkew(name, seq)
			var rotLive, rotOK bool
			if te, tiered := ti.Eng.(*tier.Engine); tiered && te.HasLowering() {
				_, rotLive, rotOK = inj.LoweringRot(name, seq)
			}
			if flip {
				sc.Injected++
				if spot {
					sc.Detected++
				} else {
					sc.Benign++
				}
			}
			for _, plant := range []struct{ ok, live bool }{
				{tlbOK, tlbLive}, {skewOK, skewLive}, {rotOK, rotLive},
			} {
				if !plant.ok {
					continue
				}
				sc.Injected++
				if plant.live {
					sc.Detected++
				} else {
					sc.Benign++
				}
			}
			sc.Recovered = sc.Detected
			o.sc.Add(sc)
			if sc.Detected > 0 {
				o.subFaults++
			} else {
				o.ok++
				o.checksum ^= faas.HashResponse(seq, body)
			}
		}
		exp[name] = o
	}
	return exp
}

// TestChaosSoakSubstrate is soak phase three: the full tenant mix under
// every substrate fault class, race-detected, run twice with the same
// seed, with the escape oracle armed fleet-wide and a single-threaded
// injector mirror as the prediction.
func TestChaosSoakSubstrate(t *testing.T) {
	const seed = 4242
	total := 240
	if testing.Short() {
		total = 120
	}
	mix := soakMix()
	reqs := BuildSchedule(mix, total, seed)

	run1 := runSubstrateSoakOnce(t, seed, reqs)
	run2 := runSubstrateSoakOnce(t, seed, reqs)
	exp := substrateExpected(t, seed, reqs)

	// Containment: zero accesses outside any instance's owned spans, in
	// both runs, under every substrate fault class.
	for i, run := range []substrateRun{run1, run2} {
		if run.escapes != 0 {
			t.Fatalf("run %d: %d cross-span escapes under substrate chaos; first: %s",
				i+1, run.escapes, run.first)
		}
		// The oracle must be watching the engine that serves production:
		// fused blocks retire with the hook armed.
		if run.ctr.TierInstrs == 0 {
			t.Fatalf("run %d: no fused instructions retired with the escape oracle armed", i+1)
		}
	}

	// Exact conservation with substrate faults folded into fault.
	for i, run := range []substrateRun{run1, run2} {
		sum := run.sum
		accounted := sum.OK + sum.Timeouts + sum.Faults + sum.Shed + sum.Rejected + sum.Canceled
		if accounted != uint64(total) || run.ctr.Admitted != uint64(total) {
			t.Fatalf("run %d: accounted %d admitted %d of %d: %+v",
				i+1, accounted, run.ctr.Admitted, total, sum)
		}
		if sum.Shed != 0 {
			t.Fatalf("run %d: %d sheds under PolicyBlock with no breaker", i+1, sum.Shed)
		}
		if run.ctr.PoolSize != 0 || run.ctr.Teardowns != run.ctr.ColdStarts {
			t.Fatalf("run %d: pool not fully recycled: %+v", i+1, run.ctr)
		}

		// Substrate counter conservation, globally: every injection is
		// accounted, every detection completed recovery, and the three
		// surfaces (recorder global, server counters, tenant sum) agree.
		sc := sum.Substrate
		if sc.Injected != sc.Detected+sc.Benign {
			t.Fatalf("run %d: injected %d != detected %d + benign %d",
				i+1, sc.Injected, sc.Detected, sc.Benign)
		}
		if sc.Recovered != sc.Detected {
			t.Fatalf("run %d: recovered %d != detected %d", i+1, sc.Recovered, sc.Detected)
		}
		if run.ctr.Substrate != sc {
			t.Fatalf("run %d: server counters %+v != recorder global %+v",
				i+1, run.ctr.Substrate, sc)
		}
		var tsum stats.SubstrateCounters
		for _, ts := range run.tsums {
			tsc := ts.Substrate
			if tsc.Injected != tsc.Detected+tsc.Benign || tsc.Recovered != tsc.Detected {
				t.Fatalf("run %d: tenant %s substrate counters unconserved: %+v",
					i+1, ts.Tenant, tsc)
			}
			tsum.Add(tsc)
		}
		if tsum != sc {
			t.Fatalf("run %d: tenant substrate counters %+v do not sum to global %+v",
				i+1, tsum, sc)
		}
	}

	// Non-degenerate schedule: every substrate class fired, and both the
	// detected and the benign dispositions occurred.
	snap := run1.snap
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"bitflip", snap.BitFlip}, {"tlbstale", snap.TLBStale},
		{"clockskew", snap.ClockSkew}, {"loweringrot", snap.LoweringRot},
	} {
		if c.n == 0 {
			t.Fatalf("substrate class %s never fired — tune soak rates", c.name)
		}
	}
	if sc := run1.sum.Substrate; sc.Detected == 0 || sc.Benign == 0 {
		t.Fatalf("degenerate substrate dispositions: %+v — tune soak rates", sc)
	}

	// Determinism and prediction: identical per-tenant outcome counts,
	// checksums, and substrate counters across same-seed runs, both equal
	// to the single-threaded injector mirror.
	for _, mixClass := range mix {
		name := mixClass.Tenant.Name
		o1, o2, e := run1.tenants[name], run2.tenants[name], exp[name]
		if o1 != o2 {
			t.Fatalf("%s: runs diverged: %+v vs %+v", name, o1, o2)
		}
		if o1 != e {
			t.Fatalf("%s: observed %+v, injector predicts %+v", name, o1, e)
		}
		if e.ok == 0 {
			t.Fatalf("%s: degenerate schedule (no clean requests) %+v", name, e)
		}
	}

	// The injector's own per-class fire counts are deterministic too —
	// except Provision, whose draw count follows the number of cold
	// starts, which is pool-eviction-timing-dependent (each draw is still
	// a pure hash, so outcomes never vary; only the count of draws does).
	s1, s2 := run1.snap, run2.snap
	s1.Provision, s2.Provision = 0, 0
	if s1 != s2 {
		t.Fatalf("injector snapshots diverged: %+v vs %+v", s1, s2)
	}
}
