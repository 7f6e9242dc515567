package loadgen

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"hfi/internal/stats"
)

// Report is one leg of a sweep: the points of one target configuration.
// It is both what the CLIs emit under -json and what a baseline file holds
// — a stream of Report documents, one per leg. Label names the leg
// ("inproc/2w", "cluster/3s"); label@rate keys a point.
type Report struct {
	Target string  `json:"target"` // inproc | shard | cluster
	Label  string  `json:"label"`
	Seed   int64   `json:"seed"` // with the CLI's flags, reproduces the schedule
	Points []Point `json:"points"`
}

func pointKey(label string, rate float64) string { return fmt.Sprintf("%s@%g", label, rate) }

// ParseRates parses a comma-separated list of offered rates (req/s) into
// ascending order.
func ParseRates(list string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(list, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	sort.Float64s(rates)
	return rates, nil
}

// Finish is the tail of every sweep CLI: write legs to w — one indented
// JSON document per leg (the baseline format) or one table per leg — gate
// them against the baseline at check ("" ⇒ no gate), report to stderr under
// prog's name, and return the exit code.
func Finish(w io.Writer, prog string, legs []Report, asJSON bool, check string, tol float64) int {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	var err error
	for _, leg := range legs {
		if asJSON {
			err = cmp.Or(err, enc.Encode(leg))
		} else {
			_, werr := fmt.Fprintln(w, leg.table())
			err = cmp.Or(err, werr)
		}
	}
	if err == nil && check != "" {
		if err = CheckBaseline(legs, check, tol); err == nil {
			fmt.Fprintf(os.Stderr, "%s: sweep matches baseline %s (p99 within %.1fx)\n", prog, check, tol)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		return 1
	}
	return 0
}

func (r Report) table() *stats.Table {
	tb := &stats.Table{
		Title:   fmt.Sprintf("open-loop sweep, %s (seed %d)", r.Label, r.Seed),
		Columns: []string{"rate req/s", "offered", "achieved", "ok", "shed%", "p50", "p99", "p99.9"},
	}
	fleet := len(r.Points) > 0 && r.Points[0].Shards > 0
	if fleet {
		tb.Columns = append(tb.Columns, "hit%")
	}
	for _, pt := range r.Points {
		row := []string{
			fmt.Sprintf("%g", pt.RateRPS),
			strconv.Itoa(pt.Offered),
			fmt.Sprintf("%.0f", pt.AchievedRPS),
			strconv.FormatUint(pt.OK, 10),
			fmt.Sprintf("%.1f", pt.ShedRate*100),
			stats.Ns(pt.P50Ns), stats.Ns(pt.P99Ns), stats.Ns(pt.P999Ns),
		}
		if fleet {
			row = append(row, fmt.Sprintf("%.1f", pt.RoutingHitRate*100))
		}
		tb.AddRow(row...)
	}
	tb.AddNote("open loop: Poisson arrivals at the offered rate, fresh target per rate; latency = completion − scheduled due time")
	return tb
}

// CheckBaseline gates legs against the baseline file at path. What a fixed
// seed makes exact must be exact: every point must exist in the baseline
// under its label@rate key with the same schedule hash and per-tenant
// offered counts, must conserve its ledger and serve something, and — at
// the leg's lowest rate, which the sweep puts below the knee — must serve
// everything. Wall-clock p99 may exceed the baseline's by at most tol×.
func CheckBaseline(legs []Report, path string, tol float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ref := make(map[string]Point)
	for dec := json.NewDecoder(f); dec.More(); {
		var leg Report
		if err := dec.Decode(&leg); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, pt := range leg.Points {
			ref[pointKey(leg.Label, pt.RateRPS)] = pt
		}
	}
	for _, leg := range legs {
		lowest := math.Inf(1)
		for _, pt := range leg.Points {
			lowest = min(lowest, pt.RateRPS)
		}
		for _, pt := range leg.Points {
			key := pointKey(leg.Label, pt.RateRPS)
			want, ok := ref[key]
			err := pt.conserved()
			switch {
			case !ok:
				err = fmt.Errorf("no such point in %s (label or rates changed: regenerate the baseline)", path)
			case err != nil:
			case pt.OK == 0:
				err = fmt.Errorf("zero successes")
			case pt.ScheduleHash != want.ScheduleHash:
				err = fmt.Errorf("schedule hash %s != baseline %s", pt.ScheduleHash, want.ScheduleHash)
			case !maps.Equal(pt.OfferedByTenant, want.OfferedByTenant):
				err = fmt.Errorf("offered per tenant %v != baseline %v", pt.OfferedByTenant, want.OfferedByTenant)
			case pt.RateRPS == lowest && pt.OK != uint64(pt.Offered):
				err = fmt.Errorf("lowest rate is below the knee, yet ok %d of %d offered (shed %d)", pt.OK, pt.Offered, pt.Shed)
			case pt.P99Ns > want.P99Ns*tol:
				err = fmt.Errorf("p99 %s exceeds %.1fx baseline %s", stats.Ns(pt.P99Ns), tol, stats.Ns(want.P99Ns))
			}
			if err != nil {
				return fmt.Errorf("loadtest gate: %s: %w", key, err)
			}
		}
	}
	return nil
}
