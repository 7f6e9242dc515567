package host_test

// Tests that drive the server through the load harness. They live in the
// external test package because internal/loadgen imports internal/host.

import (
	"context"
	"testing"
	"time"

	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/loadgen"
	"hfi/internal/workloads"
)

// TestServeStressMixed floods ≥4 workers with ≥1000 mixed-tenant requests
// under the race detector and checks both full completion and
// checksum-identity against a single-threaded reference over the same
// deterministic schedule.
func TestServeStressMixed(t *testing.T) {
	const (
		total = 1000
		seed  = 42
	)
	mix := host.DefaultMix()

	s := host.New(host.Config{Workers: 4, QueueDepth: 16})
	pt, err := loadgen.Run(context.Background(), loadgen.InProcess(s),
		host.BuildSchedule(mix, total, seed), loadgen.Pacing{Clients: 8})
	s.Close()
	if err != nil {
		t.Fatal(err)
	}

	if pt.OK != total {
		t.Fatalf("OK = %d, want %d (timeouts %d, faults %d, shed %d)", pt.OK, total, pt.Timeouts, pt.Faults, pt.Shed)
	}
	want, err := host.ReferenceChecksum(mix, total, seed)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Checksum != want {
		t.Fatalf("stress checksum %#x != reference %#x", pt.Checksum, want)
	}
	if pt.P50Ns <= 0 || pt.P99Ns < pt.P50Ns {
		t.Fatalf("implausible latency summary: %+v", pt)
	}
	// The server's own ledger agrees with the harness's client-side one.
	if sum := s.Snapshot(0); sum.OK != pt.OK || sum.Shed != 0 {
		t.Fatalf("server recorded %+v, harness %+v", sum, pt)
	}
}

// TestOpenLoopOverload: an open loop offering far more than one worker's
// capacity under PolicyShed must shed, and every request must be accounted
// for exactly once — by the harness and by the server.
func TestOpenLoopOverload(t *testing.T) {
	const total = 100
	s := host.New(host.Config{Workers: 1, QueueDepth: 2, Policy: host.PolicyShed, DispatchWall: time.Millisecond})
	pt, err := loadgen.Run(context.Background(), loadgen.InProcess(s),
		host.BuildSchedule(host.DefaultMix(), total, 7), loadgen.Pacing{Rate: 1e6, Seed: 7})
	s.Close()
	if err != nil {
		t.Fatal(err) // includes a client-side ledger that does not conserve
	}
	if pt.Shed == 0 {
		t.Fatal("overloaded open loop shed nothing")
	}
	sum := s.Snapshot(0)
	if sum.Executed() != pt.Executed() || sum.Shed != pt.Shed {
		t.Fatalf("server ledger %+v disagrees with harness point %+v", sum, pt)
	}
}

// TestReferenceChecksumRejectsTrap: a reference run that traps is not a
// ground truth to compare against.
func TestReferenceChecksumRejectsTrap(t *testing.T) {
	trap := workloads.TrapTenant("faulty")
	trap.MakeRequest = func(int) []byte { return []byte{1} } // any body traps
	mix := append(host.DefaultMix(), host.Class{Weight: 4, Tenant: trap, Iso: faas.StockLucet()})
	if sum, err := host.ReferenceChecksum(mix, 40, 3); err == nil {
		t.Fatalf("faulting reference produced checksum %#x and no error", sum)
	}
	if _, err := host.ReferenceChecksum(host.DefaultMix(), 40, 3); err != nil {
		t.Fatalf("healthy reference: %v", err)
	}
}
