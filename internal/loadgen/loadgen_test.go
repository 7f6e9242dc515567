package loadgen

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hfi/internal/cluster"
	"hfi/internal/host"
)

// TestMain hooks the shard role: Fleet launches shards by re-exec'ing this
// test binary, exactly as cmd/hfirouter re-execs itself.
func TestMain(m *testing.M) {
	if cluster.IsShardProc() {
		os.Exit(cluster.ShardMain())
	}
	os.Exit(m.Run())
}

// TestOneScheduleThreeTargets drives one seeded DefaultMix schedule through
// every target, with every request guaranteed to run (PolicyBlock, no fuel
// limit). The schedule identity is the harness's, so it must be the same on
// all three; every layer must conserve; and the response checksum must
// equal the single-threaded reference whether the bytes came back from a
// function call, one HTTP hop, or a router hop in front of that.
func TestOneScheduleThreeTargets(t *testing.T) {
	const (
		total = 200
		seed  = 11
		rate  = 1500
	)
	mix := host.DefaultMix()
	reqs := host.BuildSchedule(mix, total, seed)
	want, err := host.ReferenceChecksum(mix, total, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := host.Config{Workers: 2, QueueDepth: 16, Policy: host.PolicyBlock}

	targets := []struct {
		name string
		new  func() (Target, error)
	}{
		{"inproc", func() (Target, error) { return InProcess(host.New(cfg)), nil }},
		{"shard", func() (Target, error) { return Shard(cluster.ShardSpec{Workers: 2, QueueDepth: 16, Policy: "block"}) }},
		{"cluster", func() (Target, error) {
			return Fleet(cluster.LaunchOpts{N: 2, Shard: cluster.ShardSpec{Workers: 2, QueueDepth: 16, Policy: "block"}})
		}},
	}
	var first Point
	for i, tc := range targets {
		t.Run(tc.name, func(t *testing.T) {
			// Sweep closes the target: a fleet ledger that does not settle
			// (delivered != admitted on any shard) fails here.
			pts, err := Sweep(context.Background(), tc.new, reqs, []float64{rate}, seed)
			if err != nil {
				t.Fatal(err)
			}
			pt := pts[0]
			if pt.OK != total || pt.Executed() != total {
				t.Fatalf("served %d of %d: %+v", pt.OK, total, pt)
			}
			if pt.Checksum != want {
				t.Fatalf("checksum %#x != single-threaded reference %#x", pt.Checksum, want)
			}
			if pt.P50Ns <= 0 || pt.P99Ns < pt.P50Ns {
				t.Fatalf("implausible latencies: %+v", pt)
			}
			if (pt.Shards > 0) != (tc.name == "cluster") {
				t.Fatalf("fleet columns on the wrong target: shards=%d", pt.Shards)
			}
			if i == 0 {
				first = pt
				return
			}
			if pt.ScheduleHash != first.ScheduleHash || !maps.Equal(pt.OfferedByTenant, first.OfferedByTenant) {
				t.Fatalf("schedule identity differs from the in-process run:\n%s %v\n%s %v",
					pt.ScheduleHash, pt.OfferedByTenant, first.ScheduleHash, first.OfferedByTenant)
			}
		})
	}

	// The closed loop issues the same requests; only the due times (all
	// zero) and hence the hash differ.
	s := host.New(cfg)
	pt, err := Run(context.Background(), InProcess(s), reqs, Pacing{Clients: 4})
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if pt.Checksum != want || pt.ScheduleHash == first.ScheduleHash || !maps.Equal(pt.OfferedByTenant, first.OfferedByTenant) {
		t.Fatalf("closed loop: %+v", pt)
	}
	if _, err := Run(context.Background(), nil, reqs, Pacing{}); err == nil {
		t.Fatal("a pacing with neither Rate nor Clients ran")
	}
}

// TestCheckBaselineFailureModes feeds the gate one passing self-baseline
// and then each way it must fail.
func TestCheckBaselineFailureModes(t *testing.T) {
	base := Report{Target: "inproc", Label: "inproc/2w", Seed: 1, Points: []Point{
		{RateRPS: 300, Offered: 10, OK: 10, P99Ns: 1e6, ScheduleHash: "aa", OfferedByTenant: map[string]int{"a": 6, "b": 4}},
		{RateRPS: 900, Offered: 10, OK: 7, Shed: 3, P99Ns: 5e6, ScheduleHash: "bb", OfferedByTenant: map[string]int{"a": 5, "b": 5}},
	}}
	other := Report{Target: "cluster", Label: "cluster/3s", Seed: 1, Points: []Point{
		{RateRPS: 300, Offered: 10, OK: 10, P99Ns: 2e6, ScheduleHash: "cc", OfferedByTenant: map[string]int{"a": 10}},
	}}
	path := filepath.Join(t.TempDir(), "baseline.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if code := Finish(f, "test", []Report{base, other}, true, "", 0); code != 0 {
		t.Fatalf("writing the baseline: exit %d", code)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	const tol = 2.0
	if err := CheckBaseline([]Report{base, other}, path, tol); err != nil {
		t.Fatalf("self-baseline: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(r *Report)
		want   string
	}{
		{"rate not in baseline", func(r *Report) { r.Points[1].RateRPS = 1000 }, "no such point"},
		{"label not in baseline", func(r *Report) { r.Label = "inproc/4w" }, "no such point"},
		{"ledger does not conserve", func(r *Report) { r.Points[1].Shed = 2 }, "conservation"},
		{"zero OK", func(r *Report) { r.Points[1].OK, r.Points[1].Shed = 0, 10 }, "zero successes"},
		{"schedule hash", func(r *Report) { r.Points[1].ScheduleHash = "ee" }, "schedule hash"},
		{"per-tenant offered", func(r *Report) { r.Points[1].OfferedByTenant = map[string]int{"a": 4, "b": 6} }, "offered per tenant"},
		{"shed below the knee", func(r *Report) { r.Points[0].OK, r.Points[0].Shed = 9, 1 }, "below the knee"},
		{"p99 beyond tolerance", func(r *Report) { r.Points[1].P99Ns = 5e6 * (tol + 0.01) }, "p99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := base
			got.Points = append([]Point(nil), base.Points...)
			tc.mutate(&got)
			err := CheckBaseline([]Report{got}, path, tol)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
	// At exactly tol× the gate still passes: the bound is inclusive.
	edge := base
	edge.Points = append([]Point(nil), base.Points...)
	edge.Points[1].P99Ns = 5e6 * tol
	if err := CheckBaseline([]Report{edge}, path, tol); err != nil {
		t.Fatalf("p99 at exactly the tolerance: %v", err)
	}
	if err := CheckBaseline([]Report{base}, filepath.Join(t.TempDir(), "missing.json"), tol); err == nil {
		t.Fatal("a missing baseline file passed")
	}
}

func TestParseRates(t *testing.T) {
	got, err := ParseRates(" 900, 300 ,,2500")
	if err != nil || len(got) != 3 || got[0] != 300 || got[1] != 900 || got[2] != 2500 {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, bad := range []string{"", ",", "300,x", "0", "-5"} {
		if _, err := ParseRates(bad); err == nil {
			t.Errorf("ParseRates(%q) passed", bad)
		}
	}
}
