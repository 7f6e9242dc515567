// Command hfihttpd serves the multi-tenant sandbox host (internal/host)
// over HTTP via internal/httpfront: per-tenant invoke routes, drain-aware
// health, and JSON stats — the front door real load generators (vegeta,
// hey, wrk) point at. Its flags are a cluster.ShardSpec (cluster.NewShard).
//
// Usage:
//
//	hfihttpd -addr :8080                 # serve the default tenant registry
//	hfihttpd -addr 127.0.0.1:0           # any free port; the bound address goes to stderr
//	hfihttpd -policy shed -queue 16      # real 429s under overload
//	hfihttpd -fuel-per-second 5e7        # client deadlines shrink fuel budgets
//	hfihttpd -selfdrive                  # built-in open-loop HTTP sweep, then exit
//	hfihttpd -selfdrive -rates 200,800 -requests 200 -json
//
// Routes:
//
//	POST /v1/tenants/{tenant}/invoke     # body = guest input (empty ⇒ synthetic)
//	GET  /healthz                        # 200, or 503 once draining
//	GET  /statsz                         # serve summary + per-tenant + counters
//
// On SIGINT/SIGTERM the server drains (httpfront.Serve): /healthz flips
// to 503 (load balancers stop routing), -drain-wait passes, queued and
// in-flight requests finish with real outcomes, then the listener shuts
// down. Requests arriving after the host closes get 503 + Retry-After.
//
// -selfdrive runs the load harness's open-loop sweep (internal/loadgen)
// against this server over loopback HTTP — the same schedule source and
// latency definition as `hfiserve -mode sweep`, plus wire cost and status
// mapping; one fresh server per offered rate.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hfi/internal/cluster"
	"hfi/internal/host"
	"hfi/internal/httpfront"
	"hfi/internal/loadgen"
)

func main() {
	// Shard role: when a router spawned this process, serve as its
	// backend (the spec rides the environment) instead of parsing flags.
	if cluster.IsShardProc() {
		os.Exit(cluster.ShardMain())
	}
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "admission queue depth per tenant (0 = 2x workers)")
		policy    = flag.String("policy", "shed", "backpressure policy: block | shed (shed ⇒ real 429s)")
		fuel      = flag.Uint64("fuel", 0, "per-request instruction budget (0 = unlimited)")
		fuelPerS  = flag.Float64("fuel-per-second", 0, "deadline→fuel conversion (instructions per second of client deadline; 0 = off)")
		dispatch  = flag.Duration("dispatch", 0, "wall-clock per-request dispatch overhead (selfdrive/test realism)")
		seed      = flag.Int64("seed", 1, "request schedule seed (selfdrive)")
		drainWait = flag.Duration("drain-wait", 500*time.Millisecond, "pause after flipping /healthz before closing the host")
		selfdrive = flag.Bool("selfdrive", false, "run the open-loop HTTP sweep against an in-process listener and exit")
		rates     = flag.String("rates", "200,400,800,1200,1600,2400", "offered rates for -selfdrive, req/s")
		requests  = flag.Int("requests", 200, "requests per rate in -selfdrive")
		jsonOut   = flag.Bool("json", false, "emit the -selfdrive result as JSON")
	)
	flag.Parse()

	spec := cluster.ShardSpec{
		Workers: *workers, QueueDepth: *queue, Policy: *policy,
		Fuel: *fuel, FuelPerSecond: uint64(*fuelPerS),
		DispatchWallUs: dispatch.Microseconds(),
		Seed:           *seed,
	}
	if *selfdrive {
		os.Exit(runSelfdrive(spec, *rates, *requests, *seed, *jsonOut))
	}
	os.Exit(serve(spec, *addr, *drainWait))
}

// serve runs the shard on addr until SIGINT/SIGTERM, then drains
// (httpfront.Serve), finishing by closing the host.
func serve(spec cluster.ShardSpec, addr string, drainWait time.Duration) int {
	front, err := cluster.NewShard(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfihttpd:", err)
		return 2
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfihttpd:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "hfihttpd: serving on %s (%d workers, policy %s)\n",
		ln.Addr(), front.Host().Workers(), cmp.Or(spec.Policy, "shed"))
	begin := func() {
		fmt.Fprintln(os.Stderr, "hfihttpd: draining (healthz → 503)")
		front.BeginDrain()
	}
	if err := httpfront.Serve(ctx, ln, front.Handler(), drainWait, begin, front.Host().Close); err != nil {
		fmt.Fprintln(os.Stderr, "hfihttpd:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "hfihttpd: drained")
	return 0
}

// runSelfdrive sweeps offered rates over real HTTP: an equal-weight mix of
// the registry's tenants against one fresh shard and loopback listener per
// rate.
func runSelfdrive(spec cluster.ShardSpec, rateList string, perRate int, seed int64, jsonOut bool) int {
	rates, err := loadgen.ParseRates(rateList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfihttpd:", err)
		return 2
	}
	if spec.Workers <= 0 {
		spec.Workers = runtime.GOMAXPROCS(0) // host.New's default, resolved here so the label states it
	}
	reqs := host.BuildSchedule(httpfront.RegistryMix(httpfront.DefaultRegistry(1)), perRate, seed)
	pts, err := loadgen.Sweep(context.Background(), func() (loadgen.Target, error) {
		return loadgen.Shard(spec)
	}, reqs, rates, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfihttpd:", err)
		return 1
	}
	leg := loadgen.Report{Target: "shard", Label: fmt.Sprintf("shard/%dw", spec.Workers), Seed: seed, Points: pts}
	return loadgen.Finish(os.Stdout, "hfihttpd", []loadgen.Report{leg}, jsonOut, "", 0)
}
