package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"hfi/internal/cluster"
	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/hostcall"
	"hfi/internal/httpfront"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/workloads"
)

// workloadSpec is one workload of the set; BENCHMARK.json and README.md
// say why each is in it.
type workloadSpec struct {
	name  string
	setup func(seed int64) (*bench, error)
}

var workloadSet = []workloadSpec{
	{"sim_corpus", setupSimCorpus},
	{"shard_mix", setupShardMix},
	{"cluster_small", setupClusterSmall},
	{"host_churn", setupHostChurn},
}

// schemes are the four isolation schemes under comparison, HFI first.
var schemes = []sfi.Scheme{sfi.HFI, sfi.GuardPages, sfi.BoundsCheck, sfi.Masking}

func schemeIso(s sfi.Scheme) faas.Config { return faas.Config{Name: s.String(), Scheme: s} }

// ---- sim_corpus ----

// goldenEntry is one (kernel, scheme) row of golden_sim.json: what the
// second invocation on a fresh instance returns, retires and costs. A
// change that only makes the simulator faster must leave all three alone.
type goldenEntry struct {
	Ret     uint64 `json:"ret"`
	Instret uint64 `json:"instret"`
	Cycles  uint64 `json:"cycles"`
}

//go:embed golden_sim.json
var goldenRaw []byte

// updateGolden, when non-empty, is the file set-up writes the observed
// simulated statistics to instead of checking them.
var updateGolden string

func setupSimCorpus(seed int64) (*bench, error) {
	golden := map[string]goldenEntry{}
	if updateGolden == "" {
		if err := json.Unmarshal(goldenRaw, &golden); err != nil {
			return nil, fmt.Errorf("golden_sim.json: %w", err)
		}
	}
	cache := sandbox.NewCodeCache()
	b := &bench{name: "sim_corpus", seed: seed, clients: 1, pids: []int{os.Getpid()}, images: cache}
	for _, w := range workloads.Sightglass() {
		te := workloads.Tenant{Name: w.Name, Mod: w.Build(1)}
		for _, s := range schemes {
			k := host.Class{Weight: 1, Tenant: te, Iso: schemeIso(s)}
			// The instance the serving stack would run: shared code
			// cache, tiered engine over the cached lowering.
			ti, err := faas.ProvisionShared(k.Tenant, k.Iso, cache)
			if err != nil {
				return nil, err
			}
			b.keys = append(b.keys, k)
			b.insts = append(b.insts, ti)
		}
	}

	// Two warm passes: the first promotes the hot blocks, the second is
	// the steady state the golden file pins.
	instret := make([]uint64, len(b.keys))
	for pass := 0; pass < 2; pass++ {
		for i, ti := range b.insts {
			m := ti.RT.M
			i0, c0 := m.Instret, m.Cycles
			res, ret := ti.Inst.Invoke(ti.Eng, 0)
			if res.Reason != cpu.StopHalt {
				return nil, fmt.Errorf("sim_corpus: %s stopped with %v", keyName(b.keys[i]), res.Reason)
			}
			if pass == 0 {
				continue
			}
			got := goldenEntry{Ret: ret, Instret: m.Instret - i0, Cycles: m.Cycles - c0}
			name := keyName(b.keys[i])
			if updateGolden != "" {
				golden[name] = got
			} else if want, ok := golden[name]; !ok || got != want {
				return nil, fmt.Errorf("sim_corpus: %s: simulated statistics %+v differ from golden %+v", name, got, want)
			}
			instret[i] = got.Instret
			b.ops = append(b.ops, op{key: i, want: ret, verify: true})
		}
	}
	if updateGolden != "" {
		raw, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(updateGolden, append(raw, '\n'), 0o644); err != nil {
			return nil, err
		}
	}

	// Every pass runs every (kernel, scheme) once, in a seeded order.
	rng := rand.New(rand.NewSource(seed))
	for len(b.sched) < schedLen {
		for _, i := range rng.Perm(len(b.ops)) {
			b.sched = append(b.sched, int32(i))
		}
	}
	b.legs = []leg{invokeLeg(b, instret)}
	b.guestInstrs = func() (uint64, error) {
		var n uint64
		for _, ti := range b.insts {
			n += ti.RT.M.Instret
		}
		return n, nil
	}
	b.layerCounts = func() (layerCounts, error) { return layerCounts{}, nil }
	return b, nil
}

func keyName(k host.Class) string { return k.Tenant.Name + "/" + k.Iso.Name }

// invokeOnce runs one operation on ti under eng and reports the host time
// and retired instructions of the sandbox.Instance.Invoke call alone. For
// a request-shaped operation it does around that call exactly what
// faas.ServeBody does: request into the heap or the hostcall stream,
// response out. limit is the engine's budget (0 = none).
func invokeOnce(ti *faas.TenantInstance, eng cpu.Engine, limit uint64, o *op) (d time.Duration, instrs uint64, res cpu.RunResult, ret uint64, body []byte) {
	m := ti.RT.M
	var args []uint64
	if o.body != nil {
		m.Kern.Clock.Advance(faas.DispatchOverheadNs)
		if ti.Env != nil {
			ti.Env.BeginRequest(o.body)
		}
		if !ti.Tenant.Stream {
			ti.Inst.WriteHeap(workloads.InputOffset, o.body)
		}
		args = []uint64{uint64(len(o.body))}
	}
	i0 := m.Instret
	t0 := time.Now()
	res, ret = ti.Inst.Invoke(eng, limit, args...)
	d = time.Since(t0)
	instrs = m.Instret - i0
	if o.body == nil || res.Reason != cpu.StopHalt {
		return
	}
	if ti.Tenant.Stream {
		return d, instrs, res, ret, ti.Env.ResponseBody()
	}
	return d, instrs, res, ret, ti.Inst.ReadHeap(workloads.OutputOffset, int(ret))
}

// invokeLeg is the deepest leg: sandbox.Instance.Invoke on the tiered
// engine, on b.insts. instret, when given, pins each key's
// retired-instruction count per invocation.
func invokeLeg(b *bench, instret []uint64) leg {
	b.byScheme = map[string]*schemeCost{}
	for _, s := range schemes {
		b.byScheme[s.String()] = &schemeCost{}
	}
	return leg{name: "invoke", run: func(o *op) (time.Duration, error) {
		ti := b.insts[o.key]
		d, n, res, ret, body := invokeOnce(ti, ti.Eng, 0, o)
		sc := b.byScheme[ti.Cfg.Scheme.String()]
		sc.ns += d
		sc.instrs += n
		if res.Reason != cpu.StopHalt {
			return d, fmt.Errorf("%s stopped with %v", keyName(b.keys[o.key]), res.Reason)
		}
		if o.body != nil {
			return d, o.check(body)
		}
		if ret != o.want || (instret != nil && n != instret[o.key]) {
			return d, fmt.Errorf("wrong output: %s returned %#x after %d instrs, golden %#x after %d",
				keyName(b.keys[o.key]), ret, n, o.want, instret[o.key])
		}
		return d, nil
	}}
}

// ---- shard_mix ----

// shardSpec is the shard configuration both HTTP workloads spawn with;
// DispatchWall stays 0 (a sleep on the worker path would set every number)
// and chaos is off.
func shardSpec(workers int) cluster.ShardSpec {
	return cluster.ShardSpec{Workers: workers, Seed: 1, WorldSeed: 1}
}

// shardHostConfig mirrors what a shard spawned with shardSpec(workers)
// serves with, for the in-process replicas the traced legs run on.
func shardHostConfig(workers int) *host.Config {
	return &host.Config{Workers: workers, Policy: host.PolicyShed, Retry: host.RetryConfig{Max: 2}, Seed: 1}
}

// httpLeg sends one operation to a shard or the router over loopback HTTP
// through the typed wire client.
func httpLeg(b *bench, name string, pick func(o *op) *httpfront.Client) leg {
	ctx := context.Background()
	return leg{name: name, run: func(o *op) (time.Duration, error) {
		var res httpfront.InvokeResult
		d, err := timed(func() (err error) {
			res, err = pick(o).Invoke(ctx, b.keys[o.key].Tenant.Name, o.body, "")
			return err
		})
		if err != nil {
			return d, err
		}
		if res.Code != http.StatusOK {
			return d, fmt.Errorf("%s: HTTP %d", b.keys[o.key].Tenant.Name, res.Code)
		}
		return d, o.check(res.Body)
	}}
}

// shardCounts sums the shards' own counters, read over /statsz, and times
// the scrape.
func shardCounts(shards []*httpfront.Client) (layerCounts, uint64, error) {
	var lc layerCounts
	var instrs uint64
	for _, c := range shards {
		t0 := time.Now()
		doc, err := c.Statsz(context.Background())
		if err != nil {
			return lc, 0, err
		}
		lc.statszMs += msOf(time.Since(t0)) / float64(len(shards))
		lc.admitted += doc.Counters.Admitted
		lc.coldStarts += doc.Counters.ColdStarts
		lc.evictions += doc.Counters.Evictions
		lc.shed += doc.Counters.Shed
		lc.hostcalls += doc.Serve.Hostcalls.Calls
		lc.served += doc.Serve.OK
		instrs += doc.Counters.TierInstrs + doc.Counters.TierInterpInstrs
	}
	return lc, instrs, nil
}

// warm sends every distinct operation once through the workload's own
// entry with its own concurrency, so every worker's pool holds every key.
func (b *bench) warm() error {
	n := max(b.clients, 1)
	errs := make(chan error, n)
	for c := 0; c < n; c++ {
		go func(c int) {
			for i := c; i < len(b.ops); i += n {
				if err := b.send(&b.ops[i]); err != nil {
					errs <- fmt.Errorf("%s warm-up: %w", b.name, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < n; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func setupShardMix(seed int64) (*bench, error) {
	b := &bench{name: "shard_mix", seed: seed, clients: 2, keys: host.DefaultMix(), hostCfg: shardHostConfig(2), images: faas.Images}
	var err error
	if b.ops, err = makeOps(b.keys, seed, func(host.Class) bool { return true }); err != nil {
		return nil, err
	}
	b.sched = drawSchedule(b.keys, seed)

	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec := shardSpec(2)
	spec.Name = "shard-0"
	proc, err := cluster.Spawn(bin, spec)
	if err != nil {
		return nil, err
	}
	b.closers = append(b.closers, proc.Stop)
	client := httpfront.NewClient("http://" + proc.Addr)
	b.closers = append(b.closers, client.CloseIdle)
	if err := b.finishHTTP([]*httpfront.Client{client}, nil); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// finishHTTP wires what the two HTTP workloads share once their
// subprocesses run: the legs, the counters read over /statsz, the child
// pids, and the warm-up.
func (b *bench) finishHTTP(shards []*httpfront.Client, rt *cluster.Cluster) error {
	b.legs = append(b.legs, httpLeg(b, "shard", func(o *op) *httpfront.Client { return shards[o.key%len(shards)] }))
	b.guestInstrs = func() (uint64, error) {
		_, n, err := shardCounts(shards)
		return n, err
	}
	b.layerCounts = func() (layerCounts, error) {
		lc, _, err := shardCounts(shards)
		if err != nil || rt == nil {
			return lc, err
		}
		doc := rt.Router.StatszDoc().Cluster
		lc.routingHitShare = doc.RoutingHitRate
		lc.hedges, lc.retries, lc.transportErrors = doc.Hedges, doc.Retries, doc.TransportErrors
		return lc, nil
	}
	kids, err := childPids()
	if err != nil {
		return err
	}
	b.pids = append([]int{os.Getpid()}, kids...)
	return b.warm()
}

// ---- cluster_small ----

func setupClusterSmall(seed int64) (*bench, error) {
	b := &bench{name: "cluster_small", seed: seed, clients: 2, hostCfg: shardHostConfig(1), images: faas.Images}
	// The world here backs only the in-process reference and replicas;
	// each shard subprocess builds its own from the same seed.
	iso := faas.Config{Name: "HFI", Scheme: sfi.HFI, World: hostcall.NewWorld(1)}
	for _, te := range workloads.HostcallTenants() {
		b.keys = append(b.keys, host.Class{Weight: 1, Tenant: te, Iso: iso})
	}
	var err error
	// Only the stream transformer is a pure function of its request; the
	// other three answer from shared KV state and clocks.
	if b.ops, err = makeOps(b.keys, seed, func(k host.Class) bool { return k.Tenant.Stream }); err != nil {
		return nil, err
	}
	b.sched = drawSchedule(b.keys, seed)

	cl, err := cluster.Launch(cluster.LaunchOpts{N: 2, Shard: shardSpec(1)})
	if err != nil {
		return nil, err
	}
	b.closers = append(b.closers, cl.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	hs := &http.Server{Handler: cl.Router.Handler()}
	go hs.Serve(ln)
	b.closers = append(b.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	})
	router := httpfront.NewClient("http://" + ln.Addr().String())
	b.closers = append(b.closers, router.CloseIdle)
	var shards []*httpfront.Client
	for _, p := range cl.Procs {
		c := httpfront.NewClient("http://" + p.Addr)
		b.closers = append(b.closers, c.CloseIdle)
		shards = append(shards, c)
	}
	b.legs = []leg{httpLeg(b, "router", func(*op) *httpfront.Client { return router })}
	if err := b.finishHTTP(shards, cl); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// ---- host_churn ----

// churnRate is the open loop's arrival rate. Two workers that pay a ~4 ms
// provision on most requests saturate near 450 req/s on the 2-core box;
// 300 req/s forms a queue in bursts without ever filling one to the shed
// threshold, so no operation fails.
const churnRate = 300

func setupHostChurn(seed int64) (*bench, error) {
	b := &bench{name: "host_churn", seed: seed, rate: churnRate, pids: []int{os.Getpid()}, images: faas.Images}
	light := workloads.FaaSTenantsLight()
	for _, te := range []workloads.Tenant{light[0], light[2], light[3]} { // xml-to-json, check-sha256, templated-html
		for _, s := range schemes {
			b.keys = append(b.keys, host.Class{Weight: 1, Tenant: te, Iso: schemeIso(s)})
		}
		b.closers = append(b.closers, func() { faas.Images.Evict(te.Mod) })
	}
	var err error
	if b.ops, err = makeOps(b.keys, seed, func(host.Class) bool { return true }); err != nil {
		return nil, err
	}
	b.sched = drawSchedule(b.keys, seed)

	b.hostCfg = &host.Config{Workers: 2, QueueDepth: 64, Policy: host.PolicyShed, Pool: host.PoolConfig{Cap: 2}}
	srv := host.New(*b.hostCfg)
	b.closers = append(b.closers, srv.Close)
	b.legs = []leg{hostLeg(b, srv)}
	b.guestInstrs = func() (uint64, error) {
		c := srv.Counters()
		return c.TierInstrs + c.TierInterpInstrs, nil
	}
	b.layerCounts = func() (layerCounts, error) {
		c, sum := srv.Counters(), srv.Snapshot(0)
		return layerCounts{admitted: c.Admitted, coldStarts: c.ColdStarts, evictions: c.Evictions, shed: c.Shed,
			hostcalls: sum.Hostcalls.Calls, served: sum.OK}, nil
	}
	if err := b.warm(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// hostLeg submits one operation to an in-process host.Server and waits.
func hostLeg(b *bench, srv *host.Server) leg {
	var seq atomic.Uint64
	ctx := context.Background()
	return leg{name: "host", run: func(o *op) (time.Duration, error) {
		k := b.keys[o.key]
		req := host.NewRequest(k.Tenant.Name, seq.Add(1), host.WithWorkload(k.Tenant), host.WithIso(k.Iso), host.WithBody(o.body))
		var resp host.Response
		d, _ := timed(func() error { resp = srv.Do(ctx, req); return nil })
		if resp.Status != host.StatusOK {
			return d, fmt.Errorf("%s: status %v: %v", keyName(k), resp.Status, resp.Err)
		}
		return d, o.check(resp.Body)
	}}
}
