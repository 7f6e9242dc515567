// Command hfiserve drives the concurrent multi-tenant serving layer
// (internal/host) with synthetic load and prints a throughput-vs-workers
// scaling table: requests per second, latency percentiles, shed rate, and
// speedup over a single worker.
//
// Usage:
//
//	hfiserve                           # closed-loop sweep over 1,2,4,... workers
//	hfiserve -mode open -rate 2000     # Poisson-ish open loop at 2000 req/s
//	hfiserve -mode sweep -policy shed  # open-loop rate sweep: the p99 hockey stick
//	hfiserve -mode sweep -rates 200,400,800,1600 -requests 300 -json
//	                                   # one loadgen.Report document per worker count
//	hfiserve -mode sweep -check scripts/loadtest_baseline.json
//	                                   # fail (exit 1) against the baseline (loadgen.CheckBaseline)
//	hfiserve -policy shed -queue 8     # shed instead of blocking when full
//	hfiserve -fuel 200000              # per-request instruction budget
//	hfiserve -verify                   # also check checksums vs single-threaded
//	hfiserve -chaos -seed 7            # deterministic fault injection (internal/chaos)
//	hfiserve -chaos -chaos-classes bitflip,tlbstale
//	                                   # restrict injection to a subset of fault classes
//	hfiserve -tenant-weights templated-html=4,xml-to-json=1
//	                                   # per-tenant DRR weights
//	hfiserve -chaos -json              # machine-readable report (echoes the seed,
//	                                   # the enabled classes, and the per-class
//	                                   # fault breakdown per run and in aggregate)
//
// With -chaos the run exercises the robustness machinery: provisioning
// retries, per-tenant circuit breakers, instance quarantine with verified
// reset, and bounded warm pools; the per-tenant outcome breakdown is
// printed after the scaling table. The same -seed always injects the same
// fault schedule.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hfi/internal/chaos"
	"hfi/internal/host"
	"hfi/internal/loadgen"
	"hfi/internal/stats"
)

// runReport is one worker-count run in the -json output: the harness's
// client-side point plus the server's own per-tenant and counter view.
type runReport struct {
	Workers  int                   `json:"workers"`
	Point    loadgen.Point         `json:"point"`
	Tenants  []stats.TenantSummary `json:"tenants"`
	Counters host.Counters         `json:"counters"`
	Chaos    *chaos.Summary        `json:"chaos,omitempty"`
}

// report is the full -json document. Seed is echoed so a saved report can
// always be reproduced: the same seed yields the same load schedule and,
// under -chaos, the same fault schedule.
type report struct {
	Seed   int64  `json:"seed"`
	Mode   string `json:"mode"`
	Policy string `json:"policy"`
	Chaos  bool   `json:"chaos"`
	// ChaosClasses echoes which fault classes were enabled (all of them
	// for a bare -chaos; the -chaos-classes subset otherwise), so a saved
	// report records the full injection setup, not just the seed.
	ChaosClasses []string `json:"chaos_classes,omitempty"`
	// ChaosTotal aggregates the per-run per-class fault breakdowns across
	// every worker count in the report.
	ChaosTotal *chaos.Summary `json:"chaos_total,omitempty"`
	Runs       []runReport    `json:"runs"`
}

func main() {
	var (
		requests = flag.Int("requests", 400, "requests per worker-count run")
		workers  = flag.String("workers", "1,2,4", "comma-separated worker counts (GOMAXPROCS is always included)")
		queue    = flag.Int("queue", 0, "admission queue depth per tenant (0 = 2x workers)")
		policy   = flag.String("policy", "block", "backpressure policy: block | shed")
		fuel     = flag.Uint64("fuel", 0, "per-request instruction budget (0 = unlimited)")
		mode     = flag.String("mode", "closed", "load generator: closed | open | sweep")
		clients  = flag.Int("clients", 0, "closed-loop clients (0 = 2x workers)")
		rate     = flag.Float64("rate", 800, "open-loop arrival rate, req/s")
		dispatch = flag.Duration("dispatch", 2*time.Millisecond, "wall-clock per-request dispatch overhead")
		seed     = flag.Int64("seed", 1, "load (and chaos) schedule seed")
		verify   = flag.Bool("verify", false, "verify checksums against a single-threaded reference run")
		chaosOn  = flag.Bool("chaos", false, "inject deterministic faults (seeded by -seed)")
		chaosSel = flag.String("chaos-classes", "", "comma-separated fault classes to enable with -chaos (default: all; see internal/chaos)")
		weights  = flag.String("tenant-weights", "", "per-tenant DRR weights, e.g. templated-html=4,xml-to-json=1")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable JSON report (includes the seed)")
		poolCap  = flag.Int("pool", 0, "warm-instance pool cap per worker (0 = unbounded)")
		breakWin = flag.Int("breaker-window", 0, "circuit-breaker outcome window per tenant (0 = disabled)")
		rates    = flag.String("rates", "200,400,800,1200,1600,2400,3200", "offered rates for -mode sweep, req/s")
		check    = flag.String("check", "", "baseline (prior -mode sweep -json output) to gate the sweep against")
		tol      = flag.Float64("tolerance", 5.0, "p99 multiplier allowed over the -check baseline")
	)
	flag.Parse()
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "hfiserve:", err)
		os.Exit(2)
	}

	switch *mode {
	case "closed", "open", "sweep":
	default:
		usage(fmt.Errorf("unknown mode %q (want closed, open or sweep)", *mode))
	}
	pol, err := host.ParsePolicy(*policy, host.PolicyBlock)
	if err != nil {
		usage(err)
	}
	counts, err := parseWorkers(*workers)
	if err != nil {
		usage(err)
	}
	tenants, err := parseTenantWeights(*weights)
	if err != nil {
		usage(err)
	}

	// Resolve the chaos class selection up front: a bare -chaos enables
	// every class; -chaos-classes restricts injection to the named subset
	// (detection stays armed either way — audits are always on).
	chaosCfg := chaos.DefaultConfig(*seed)
	chaosClasses := chaos.Classes()
	if *chaosSel != "" {
		if !*chaosOn {
			usage(fmt.Errorf("-chaos-classes requires -chaos"))
		}
		keep, err := chaos.ParseClasses(*chaosSel)
		if err != nil {
			usage(err)
		}
		chaosCfg = chaosCfg.Restrict(keep)
		chaosClasses = keep
	}

	mix := host.DefaultMix()
	reqs := host.BuildSchedule(mix, *requests, *seed)
	ctx := context.Background()
	// A fresh injector per server so each run's fault summary is
	// attributable; decisions depend only on (seed, tenant, seq), so every
	// run still sees the same fault schedule.
	newServer := func(w int) (*host.Server, *chaos.Injector) {
		var inj *chaos.Injector
		if *chaosOn {
			inj = chaos.New(chaosCfg)
		}
		return host.New(host.Config{
			Workers: w, QueueDepth: *queue, Policy: pol,
			Fuel: *fuel, DispatchWall: *dispatch,
			Tenants: tenants,
			Retry:   host.RetryConfig{Max: 2},
			Breaker: host.BreakerConfig{Window: *breakWin},
			Pool:    host.PoolConfig{Cap: *poolCap},
			Chaos:   inj, Seed: *seed,
		}), inj
	}

	// The open-loop latency-vs-offered-load curve per worker count — the
	// hockey stick: p99 flat while the offered rate sits below capacity,
	// then exploding (PolicyBlock) or flattening into shed (PolicyShed).
	if *mode == "sweep" {
		rateList, err := loadgen.ParseRates(*rates)
		if err != nil {
			usage(err)
		}
		var legs []loadgen.Report
		for _, w := range counts {
			pts, err := loadgen.Sweep(ctx, func() (loadgen.Target, error) {
				s, _ := newServer(w)
				return loadgen.InProcess(s), nil
			}, reqs, rateList, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hfiserve:", err)
				os.Exit(1)
			}
			legs = append(legs, loadgen.Report{Target: "inproc", Label: fmt.Sprintf("inproc/%dw", w), Seed: *seed, Points: pts})
		}
		os.Exit(loadgen.Finish(os.Stdout, "hfiserve", legs, *jsonOut, *check, *tol))
	}

	// Checksum comparison needs every request to execute exactly once:
	// shedding drops requests, fuel starvation turns them into timeouts, and
	// chaos faults some on purpose, so verification only makes sense under
	// PolicyBlock with unlimited fuel and no injection.
	verifiable := *verify && pol == host.PolicyBlock && *fuel == 0 && !*chaosOn
	if *verify && !verifiable {
		fmt.Fprintln(os.Stderr, "hfiserve: -verify requires -policy block, -fuel 0, and no -chaos (requests must not shed, time out, or fault)")
		os.Exit(2)
	}
	var ref uint64
	if verifiable {
		if ref, err = host.ReferenceChecksum(mix, *requests, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "hfiserve:", err)
			os.Exit(1)
		}
	}

	tb := &stats.Table{
		Title:   fmt.Sprintf("throughput vs workers (%s loop, %d requests, policy %s)", *mode, *requests, pol),
		Columns: []string{"workers", "req/s", "p50", "p99", "p99.9", "shed%", "timeouts", "faults", "speedup"},
	}
	rep := report{Seed: *seed, Mode: *mode, Policy: pol.String(), Chaos: *chaosOn}
	if *chaosOn {
		for _, c := range chaosClasses {
			rep.ChaosClasses = append(rep.ChaosClasses, c.String())
		}
		rep.ChaosTotal = &chaos.Summary{}
	}
	var base float64
	var lastTenants []stats.TenantSummary
	for _, w := range counts {
		pacing := loadgen.Pacing{Rate: *rate, Seed: *seed}
		if *mode == "closed" {
			pacing = loadgen.Pacing{Clients: *clients}
			if pacing.Clients <= 0 {
				pacing.Clients = 2 * w
			}
		}
		s, inj := newServer(w)
		pt, err := loadgen.Run(ctx, loadgen.InProcess(s), reqs, pacing)
		s.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hfiserve: %d workers: %v\n", w, err)
			os.Exit(1)
		}

		if base == 0 {
			base = pt.AchievedRPS
		}
		tb.AddRow(
			strconv.Itoa(w),
			fmt.Sprintf("%.0f", pt.AchievedRPS),
			stats.Ns(pt.P50Ns), stats.Ns(pt.P99Ns), stats.Ns(pt.P999Ns),
			fmt.Sprintf("%.1f", pt.ShedRate*100),
			strconv.FormatUint(pt.Timeouts, 10),
			strconv.FormatUint(pt.Faults, 10),
			fmt.Sprintf("%.2fx", pt.AchievedRPS/base),
		)
		lastTenants = s.TenantSummaries()
		rr := runReport{Workers: w, Point: pt, Tenants: lastTenants, Counters: s.Counters()}
		if inj != nil {
			cs := inj.Snapshot()
			rr.Chaos = &cs
			rep.ChaosTotal.Add(cs)
		}
		rep.Runs = append(rep.Runs, rr)
		if verifiable {
			if pt.Checksum != ref {
				fmt.Fprintf(os.Stderr, "hfiserve: %d workers: checksum %#x != single-threaded reference %#x\n", w, pt.Checksum, ref)
				os.Exit(1)
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "hfiserve:", err)
			os.Exit(1)
		}
		return
	}

	tb.AddNote("GOMAXPROCS=%d; dispatch overhead %v wall per request", runtime.GOMAXPROCS(0), *dispatch)
	if *chaosOn {
		names := make([]string, len(chaosClasses))
		for i, c := range chaosClasses {
			names[i] = c.String()
		}
		tb.AddNote("chaos injection on, seed %d, classes %s (same seed ⇒ same fault schedule)",
			*seed, strings.Join(names, ","))
		if rep.ChaosTotal != nil {
			tb.AddNote("injected faults: %d total; substrate bitflip=%d tlbstale=%d clockskew=%d loweringrot=%d",
				rep.ChaosTotal.Total(), rep.ChaosTotal.BitFlip, rep.ChaosTotal.TLBStale,
				rep.ChaosTotal.ClockSkew, rep.ChaosTotal.LoweringRot)
		}
	}
	if verifiable {
		tb.AddNote("checksums verified against single-threaded reference (%#x)", ref)
	}
	fmt.Println(tb)

	// Per-tenant breakdown (largest worker count) whenever fairness or
	// fault machinery is in play.
	if (*chaosOn || *weights != "") && len(lastTenants) > 0 {
		ttb := &stats.Table{
			Title:   fmt.Sprintf("per-tenant outcomes (%d workers)", counts[len(counts)-1]),
			Columns: []string{"tenant", "ok", "timeouts", "faults", "shed", "rejected", "p50", "p99"},
		}
		for _, ts := range lastTenants {
			ttb.AddRow(
				ts.Tenant,
				strconv.FormatUint(ts.OK, 10),
				strconv.FormatUint(ts.Timeouts, 10),
				strconv.FormatUint(ts.Faults, 10),
				strconv.FormatUint(ts.Shed, 10),
				strconv.FormatUint(ts.Rejected, 10),
				stats.Ns(ts.P50Ns), stats.Ns(ts.P99Ns),
			)
		}
		fmt.Println(ttb)
	}
}

// parseWorkers parses the -workers list, appends GOMAXPROCS, and
// deduplicates in ascending order.
func parseWorkers(list string) ([]int, error) {
	seen := map[int]bool{runtime.GOMAXPROCS(0): true}
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		seen[n] = true
	}
	counts := make([]int, 0, len(seen))
	for n := range seen {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	return counts, nil
}

// parseTenantWeights parses "name=weight,..." into per-tenant policies.
func parseTenantWeights(list string) (map[string]host.TenantPolicy, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	m := make(map[string]host.TenantPolicy)
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad tenant weight %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight in %q (want a positive integer)", part)
		}
		m[strings.TrimSpace(name)] = host.TenantPolicy{Weight: w}
	}
	return m, nil
}
