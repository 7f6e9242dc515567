package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"hfi/internal/cluster"
)

// TestMain hands shard re-execs of the test binary to cluster.ShardMain,
// as internal/cluster's own tests do.
func TestMain(m *testing.M) {
	if cluster.IsShardProc() {
		os.Exit(cluster.ShardMain())
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload both ways at a small scale and checks that
// what it emits is exactly what BENCHMARK.json declares, with no failed
// operation — so a refactor of internal/... cannot silently break the
// benchmark.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	if got := declared(spec.EndToEnd); !reflect.DeepEqual(got, endToEndUnits) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, endToEndUnits)
	}
	if got := declared(spec.PerLayer); !reflect.DeepEqual(got, perLayerUnits) {
		t.Errorf("BENCHMARK.json per_layer and the program's per-layer set differ")
	}
	if len(spec.Workloads) != len(workloadSet) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloadSet))
	}
	for i, w := range workloadSet {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			var res result
			var err error
			if traced {
				res, err = runTraced(w, 1, time.Second, t.TempDir())
			} else {
				res, err = runEndToEnd(w, 1, time.Second, 1)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEndUnits
			if traced {
				want = perLayerUnits
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if want[name] != m.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", w.name, name, m.Unit, want[name])
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestSeeds: two seeds give different schedules and bodies, and both pass
// the same golden simulated statistics.
func TestSeeds(t *testing.T) {
	for _, w := range []workloadSpec{workloadSet[0], workloadSet[3]} { // sim_corpus, host_churn
		a, err := w.setup(1)
		if err != nil {
			t.Fatal(err)
		}
		a.close()
		b, err := w.setup(2)
		if err != nil {
			t.Fatal(err)
		}
		b.close()
		if slices.Equal(a.sched, b.sched) {
			t.Errorf("%s: seeds 1 and 2 give the same schedule", w.name)
		}
		if a.ops[0].body != nil && slices.Equal(a.ops[0].body, b.ops[0].body) {
			t.Errorf("%s: seeds 1 and 2 give the same request bodies", w.name)
		}
		c, err := w.setup(1)
		if err != nil {
			t.Fatal(err)
		}
		c.close()
		if !slices.Equal(a.sched, c.sched) {
			t.Errorf("%s: seed 1 gives two different schedules", w.name)
		}
	}
}

// TestWrongOutputFails: a corrupted golden entry fails set-up, and a
// corrupted reference checksum fails the operation.
func TestWrongOutputFails(t *testing.T) {
	var golden map[string]goldenEntry
	if err := json.Unmarshal(goldenRaw, &golden); err != nil {
		t.Fatal(err)
	}
	e := golden["sieve/hfi"]
	e.Cycles++
	golden["sieve/hfi"] = e
	saved := goldenRaw
	goldenRaw, _ = json.Marshal(golden)
	_, err := setupSimCorpus(1)
	goldenRaw = saved
	if err == nil {
		t.Error("sim_corpus set-up accepted a golden file with one cycle count off by one")
	}

	b, err := setupHostChurn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.send(&b.ops[0]); err != nil {
		t.Fatalf("untouched operation failed: %v", err)
	}
	b.ops[0].want ^= 1
	if err := b.send(&b.ops[0]); err == nil {
		t.Error("an operation with a corrupted reference checksum passed")
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	mk := func(vs ...float64) *series {
		s := &series{}
		for _, v := range vs {
			s.add(metric{Value: v})
		}
		return s
	}
	steady := mk(100, 101, 99, 100, 100)
	for _, c := range []struct {
		new  *series
		want string
	}{
		{mk(100, 100, 101, 99, 100), "unchanged"},
		{mk(120, 121, 119, 120, 120), "regressed"},
		{mk(80, 81, 79, 80, 80), "improved"},
		{mk(60, 140, 100, 75, 125), "unresolved"},
		{mk(50, 90, 70, 60, 80), "improved"}, // noisy, but every run beats every old one
	} {
		if got := verdict(steady, c.new, true, 0.10); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.new.Values, got, c.want)
		}
	}
}
