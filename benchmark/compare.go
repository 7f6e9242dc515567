package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
)

// series is one metric's values over the runs of a set, with the median
// and quartiles the comparison rules use.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func (s *series) add(m metric) {
	s.Unit = m.Unit
	s.Values = append(s.Values, m.Value)
	s.Q1, s.Median, s.Q3 = quartiles(s.Values)
}

// spread is the distance between the quartiles as a share of the median.
func (s *series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles cuts xs at its quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spreads printed here are the ones the repository's driver computes. With
// a single value all three are that value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// workloadResults is one workload's metrics over a set of runs.
type workloadResults struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
}

// resultsDoc is what a full run writes to <out>/results.json and what
// -compare reads.
type resultsDoc struct {
	Seed      int64                       `json:"seed"`
	Seconds   int                         `json:"seconds"`
	Runs      int                         `json:"runs"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// runAll runs every workload untraced and traced, each run in a child
// process of its own so peak memory, CPU time and cache state never carry
// from one workload to the next. Run r of a set uses seed+r.
func runAll(seed int64, seconds, runs int, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	doc := resultsDoc{Seed: seed, Seconds: seconds, Runs: runs, Workloads: map[string]*workloadResults{}}
	for r := 0; r < runs; r++ {
		for _, w := range workloadSet {
			wr := doc.Workloads[w.name]
			if wr == nil {
				wr = &workloadResults{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
				doc.Workloads[w.name] = wr
			}
			for trace, into := range []map[string]*series{wr.EndToEnd, wr.PerLayer} {
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(r), 10),
					"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
					return fmt.Errorf("%s: no result (%v): %v", w.name, err, jerr)
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				for name, m := range res.Metrics {
					if into[name] == nil {
						into[name] = &series{}
					}
					into[name].add(m)
				}
				if err != nil {
					printDoc(doc)
					return fmt.Errorf("%s: %w", w.name, err)
				}
			}
		}
	}
	printDoc(doc)
	return writeJSON(filepath.Join(outDir, "results.json"), doc)
}

// printDoc prints every metric by name with its unit: median over the
// set's runs, and the quartiles when there is more than one run.
func printDoc(doc resultsDoc) {
	for _, w := range workloadSet {
		wr := doc.Workloads[w.name]
		if wr == nil {
			continue
		}
		fmt.Printf("\n%s  (%d operations attempted, %d failed, fail share %.4f)\n", w.name, wr.Attempted, wr.Failed,
			ratio(float64(wr.Failed), float64(wr.Attempted)))
		for _, part := range []map[string]*series{wr.EndToEnd, wr.PerLayer} {
			for _, name := range slices.Sorted(maps.Keys(part)) {
				s := part[name]
				fmt.Printf("  %-42s %16.4f %-9s", name, s.Median, s.Unit)
				if len(s.Values) > 1 {
					fmt.Printf(" [q1 %.4f, q3 %.4f, %d runs]", s.Q1, s.Q3, len(s.Values))
				}
				fmt.Println()
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict applies the repository's rule for one (metric, workload) pair.
func verdict(old, new *series, lowerIsBetter bool, bound float64) string {
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	// The new median's change in the bad direction, as a share of the old.
	worse := sign * (new.Median - old.Median) / old.Median
	if spread := max(old.spread(), new.spread()); spread > bound {
		// Too noisy to call, unless every new run beats every old one.
		for _, n := range new.Values {
			for _, o := range old.Values {
				if sign*(n-o) >= 0 {
					return "unresolved"
				}
			}
		}
		return "improved"
	}
	switch {
	case worse > bound:
		return "regressed"
	case -worse > max(old.spread(), new.spread()):
		return "improved"
	default:
		return "unchanged"
	}
}

// compareFiles prints, per workload, every end-to-end metric's change from
// old to new with its base and a verdict.
func compareFiles(specPath string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two files: old.json new.json")
	}
	var spec benchmarkSpec
	var docs [2]resultsDoc
	for path, dst := range map[string]any{specPath: &spec, args[0]: &docs[0], args[1]: &docs[1]} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	regressed := 0
	for _, w := range workloadSet {
		old, new := docs[0].Workloads[w.name], docs[1].Workloads[w.name]
		if old == nil || new == nil {
			continue
		}
		fmt.Printf("\n%s\n  %-18s %14s %14s %9s %8s %8s  %s\n", w.name, "metric", "old median", "new median", "change", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			o, n := old.EndToEnd[m.Name], new.EndToEnd[m.Name]
			if o == nil || n == nil {
				continue
			}
			v := verdict(o, n, m.Better == "lower", m.Bound)
			if v == "regressed" {
				regressed++
			}
			change := 100 * (n.Median - o.Median) / o.Median
			fmt.Printf("  %-18s %14.4f %14.4f %+8.2f%% %7.2f%% %7.2f%%  %s\n", m.Name, o.Median, n.Median, change,
				100*max(o.spread(), n.spread()), 100*m.Bound, v)
		}
		if new.Failed > old.Failed {
			fmt.Printf("  failed operations: %d of %d, was %d of %d — more than the old side; no gain counts\n",
				new.Failed, new.Attempted, old.Failed, old.Attempted)
		}
	}
	fmt.Printf("\nchange is (new − old) / old median; spread is the wider side's quartile distance over its median (%d old runs, %d new)\n",
		docs[0].Runs, docs[1].Runs)
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
