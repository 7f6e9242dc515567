package cluster_test

// In the external test package because internal/loadgen imports
// internal/cluster. Shard subprocesses are this test binary re-exec'd (see
// TestMain in main_test.go).

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"hfi/internal/cluster"
	"hfi/internal/host"
	"hfi/internal/httpfront"
	"hfi/internal/loadgen"
)

// TestRunSweepAndBaseline runs one cluster sweep point end-to-end (fresh
// 3-shard fleet, open-loop Poisson load, fleet ledger settled by the
// target's Close) and exercises the baseline gate in both directions.
func TestRunSweepAndBaseline(t *testing.T) {
	opts := cluster.LaunchOpts{N: 3, Shard: cluster.ShardSpec{Workers: 2, QueueDepth: 32, Policy: "block", Seed: 7}}
	reqs := host.BuildSchedule(httpfront.RegistryMix(httpfront.DefaultRegistry(1)), 120, 42)
	pts, err := loadgen.Sweep(context.Background(), func() (loadgen.Target, error) {
		return loadgen.Fleet(opts)
	}, reqs, []float64{800}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("%d points, want one", len(pts))
	}
	pt := pts[0]
	if pt.OK != 120 {
		t.Fatalf("blocking fleet served %d of 120: %+v", pt.OK, pt)
	}
	if pt.Shards != 3 {
		t.Fatalf("point shards %d, want 3", pt.Shards)
	}
	if pt.RoutingHitRate <= 0 {
		t.Fatalf("no warm routing hits in the sweep: %+v", pt)
	}

	// Self-baseline: the leg, written as the CLIs write it, gates cleanly
	// against itself...
	leg := loadgen.Report{Target: "cluster", Label: "cluster/3s", Seed: 42, Points: pts}
	path := filepath.Join(t.TempDir(), "baseline.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	code := loadgen.Finish(f, "test", []loadgen.Report{leg}, true, "", 0)
	if err := f.Close(); err != nil || code != 0 {
		t.Fatalf("writing the baseline: exit %d, close %v", code, err)
	}
	if err := loadgen.CheckBaseline([]loadgen.Report{leg}, path, 3.0); err != nil {
		t.Fatalf("self-baseline failed: %v", err)
	}
	// ...and a regressed p99 trips the gate.
	bad := leg
	bad.Points = []loadgen.Point{pt}
	bad.Points[0].P99Ns *= 100
	if err := loadgen.CheckBaseline([]loadgen.Report{bad}, path, 3.0); err == nil {
		t.Fatal("100x p99 regression passed the baseline gate")
	}
}

// TestSpawnRejectsUnknownPolicy: a shard handed a policy it does not know
// fails its spawn handshake instead of serving with another one.
func TestSpawnRejectsUnknownPolicy(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cluster.Spawn(exe, cluster.ShardSpec{Name: "typo", Workers: 1, Policy: "shde"})
	if err == nil {
		p.Kill()
		t.Fatal("shard with policy \"shde\" completed its handshake")
	}
}
