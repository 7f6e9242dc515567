// Command hfirouter is the cluster front door: it spawns N real hfihttpd
// shard backends as subprocesses over loopback HTTP and routes
// /v1/tenants/{tenant}/invoke across them by bounded-load consistent
// hashing — warm-image-aware (a tenant sticks to the shard already holding
// its verified image), health-gated via each shard's /healthz, with
// graceful drain migration and hedged retries against degraded shards
// (breaker state read from the typed StatszV1 payload).
//
// Usage:
//
//	hfirouter -shards 4                    # spawn 4 shards, serve on :8080
//	hfirouter -shards 4 -shard-bin ./hfihttpd   # spawn a real hfihttpd binary
//	hfirouter -selfdrive -shards 3         # cluster open-loop sweep, then exit
//	hfirouter -selfdrive -json -check scripts/loadtest_baseline.json
//
// Routes (the same wire surface as a shard, plus shard admin):
//
//	POST /v1/tenants/{tenant}/invoke       # proxied to the tenant's shard
//	GET  /healthz                          # 200, or 503 once draining
//	GET  /statsz                           # StatszV1, role=router (+ cluster section)
//	POST /drainz                           # flip the router into draining
//	POST /admin/shards/{shard}/drain       # drain one shard, migrating its tenants
//
// With no -shard-bin the router re-execs its own executable as the shard
// processes (the HFI_SHARD_CONFIG environment hook), so `hfirouter
// -shards 4` is fully self-contained.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hfi/internal/cluster"
	"hfi/internal/host"
	"hfi/internal/httpfront"
	"hfi/internal/loadgen"
)

func main() {
	// Shard role: when this binary was re-exec'd as its own backend,
	// serve as that shard instead of parsing flags.
	if cluster.IsShardProc() {
		os.Exit(cluster.ShardMain())
	}
	var (
		addr      = flag.String("addr", ":8080", "router listen address")
		shards    = flag.Int("shards", 3, "shard subprocesses to spawn")
		shardBin  = flag.String("shard-bin", "", "shard executable (default: re-exec this binary)")
		workers   = flag.Int("workers", 2, "worker goroutines per shard")
		queue     = flag.Int("queue", 16, "admission queue depth per shard")
		policy    = flag.String("policy", "shed", "shard backpressure policy: block | shed")
		dispatch  = flag.Duration("dispatch", 0, "per-request dispatch overhead on each shard")
		window    = flag.Int("breaker-window", 0, "per-tenant breaker window on each shard (0 = off)")
		seed      = flag.Int64("seed", 1, "base seed (shard i gets seed+i)")
		drainWait = flag.Duration("drain-wait", 500*time.Millisecond, "pause after flipping /healthz before draining shards")
		selfdrive = flag.Bool("selfdrive", false, "run the cluster open-loop sweep and exit")
		rates     = flag.String("rates", "400,1200,2400", "offered rates for -selfdrive, req/s")
		requests  = flag.Int("requests", 200, "requests per rate in -selfdrive")
		jsonOut   = flag.Bool("json", false, "emit the -selfdrive result as JSON")
		check     = flag.String("check", "", "baseline (prior -selfdrive -json output) to gate the sweep against")
		tol       = flag.Float64("tolerance", 5.0, "p99 multiplier allowed over the -check baseline")
	)
	flag.Parse()

	opts := cluster.LaunchOpts{
		Bin: *shardBin,
		N:   *shards,
		Shard: cluster.ShardSpec{
			Workers: *workers, QueueDepth: *queue, Policy: *policy,
			DispatchWallUs: dispatch.Microseconds(),
			BreakerWindow:  *window,
			Seed:           *seed, WorldSeed: 1,
		},
	}

	if *selfdrive {
		os.Exit(runSelfdrive(opts, *rates, *requests, *seed, *jsonOut, *check, *tol))
	}
	os.Exit(serve(opts, *addr, *drainWait))
}

func serve(opts cluster.LaunchOpts, addr string, drainWait time.Duration) int {
	cl, err := cluster.Launch(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfirouter:", err)
		return 1
	}
	hs := &http.Server{Addr: addr, Handler: cl.Router.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "hfirouter: serving on %s over %d shards\n", addr, opts.N)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "hfirouter:", err)
		cl.Close()
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "hfirouter: draining (healthz → 503)")
	cl.Router.BeginDrain()
	time.Sleep(drainWait)
	for _, p := range cl.Procs {
		dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		if err := cl.Router.Drain(dctx, p.Spec.Name); err != nil {
			fmt.Fprintf(os.Stderr, "hfirouter: drain %s: %v\n", p.Spec.Name, err)
		}
		cancel()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(shutCtx)
	cl.Close()
	fmt.Fprintln(os.Stderr, "hfirouter: drained")
	return 0
}

// runSelfdrive sweeps offered rates through the whole cluster: an
// equal-weight mix of the registry's tenants against a fresh fleet per
// rate, the fleet ledger settled at each (loadgen.Fleet).
func runSelfdrive(opts cluster.LaunchOpts, rateList string, perRate int, seed int64, jsonOut bool, check string, tol float64) int {
	rates, err := loadgen.ParseRates(rateList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfirouter:", err)
		return 2
	}
	reqs := host.BuildSchedule(httpfront.RegistryMix(httpfront.DefaultRegistry(1)), perRate, seed)
	pts, err := loadgen.Sweep(context.Background(), func() (loadgen.Target, error) {
		return loadgen.Fleet(opts)
	}, reqs, rates, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfirouter:", err)
		return 1
	}
	leg := loadgen.Report{Target: "cluster", Label: fmt.Sprintf("cluster/%ds", opts.N), Seed: seed, Points: pts}
	return loadgen.Finish(os.Stdout, "hfirouter", []loadgen.Report{leg}, jsonOut, check, tol)
}
