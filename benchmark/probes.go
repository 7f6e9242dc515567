package main

import (
	"fmt"
	"time"

	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/isa"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/stats"
	"hfi/internal/tier"
	"hfi/internal/verifier"
	"hfi/internal/wasm"
)

// probes times each layer's public functions directly, over the workload's
// own keys and operations, and returns the per-layer metrics that the leg
// replay cannot see: what set-up is made of (compile, verify, lower,
// instantiate), the sandbox lifecycle a pool miss pays, the reference
// engines, and the paper's simulated-overhead comparison.
func (b *bench) probes() (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range []func(map[string]float64) error{
		b.probeToolchain, b.probeLifecycle, b.probeSchemes, b.probeEngines, b.probeHostcalls, b.probeScaling, probeStats,
	} {
		if err := p(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// firstOp is the first operation of key k.
func (b *bench) firstOp(k int) *op {
	for i := range b.ops {
		if b.ops[i].key == k {
			return &b.ops[i]
		}
	}
	panic("key without operations")
}

// probeToolchain recompiles, re-verifies and re-lowers every key's image
// at the layout its instance actually got.
func (b *bench) probeToolchain(out map[string]float64) error {
	var compile, analyze, audit, lower time.Duration
	var instrs, heapOps, covered, blocks, fusable int
	for i := range b.keys {
		img := b.insts[i].Inst.C
		opts := img.Opts
		opts.NoVerify = true
		var c *wasm.Compiled
		d, err := timed(func() (err error) { c, err = wasm.Compile(img.Module, img.Scheme, img.Layout, opts); return })
		if err != nil {
			return err
		}
		compile += d
		instrs += len(c.Prog.Instrs)

		cfg := wasm.VerifyConfig(c)
		var facts *verifier.Facts
		d, err = timed(func() (err error) { facts, err = verifier.Analyze(c.Prog, cfg); return })
		if err != nil {
			return err
		}
		analyze += d
		heapOps += facts.HeapOps
		covered += facts.Covered
		d, err = timed(func() error { return verifier.AuditFacts(c.Prog, cfg, facts) })
		if err != nil {
			return err
		}
		audit += d

		var low *tier.Lowered
		d, _ = timed(func() error { low = tier.Lower(c.Prog, facts, cpu.DefaultCostModel()); return nil })
		lower += d
		nb, nf, _, _ := low.Summary()
		blocks += nb
		fusable += nf
	}
	out["wasm.compile_ms"] = msOf(compile)
	out["wasm.code_instrs"] = float64(instrs)
	out["verifier.analyze_ms"] = msOf(analyze)
	out["verifier.audit_ms"] = msOf(audit)
	out["verifier.fact_coverage"] = ratio(float64(covered), float64(heapOps))
	out["tier.lower_ms"] = msOf(lower)
	out["tier.fused_block_share"] = ratio(float64(fusable), float64(blocks))
	return nil
}

// probeLifecycle walks every key through the sandbox lifecycle a pool miss
// pays: instantiate (image cache cold, then warm), serve, hash the heap,
// reset, tear down — host time per step, and the simulated kernel's charge
// for mapping and unmapping.
func (b *bench) probeLifecycle(out map[string]float64) error {
	var instCold, instWarm, provCold, provWarm, hash, reset, teardown time.Duration
	var simProv, simTear uint64
	instCache, provCache := sandbox.NewCodeCache(), sandbox.NewCodeCache()
	for i, k := range b.keys {
		for _, dst := range []*time.Duration{&instCold, &instWarm} {
			rt := sandbox.NewRuntime()
			rt.Serialized, rt.WrapNative, rt.Images = k.Iso.HFINative, k.Iso.HFINative, instCache
			d, err := timed(func() error {
				_, err := rt.Instantiate(k.Tenant.Mod, k.Iso.Scheme, wasm.Options{Swivel: k.Iso.Swivel})
				return err
			})
			if err != nil {
				return err
			}
			*dst += d
			simProv = rt.M.Kern.Clock.Now() // a fresh machine's clock starts at 0
		}
		out["kernel.sim_ns_per_provision"] += float64(simProv) / float64(len(b.keys))

		var ti *faas.TenantInstance
		for _, dst := range []*time.Duration{&provCold, &provWarm} {
			d, err := timed(func() (err error) { ti, err = faas.ProvisionShared(k.Tenant, k.Iso, provCache); return })
			if err != nil {
				return err
			}
			*dst += d
		}
		if _, _, res, _, _ := invokeOnce(ti, ti.Eng, 0, b.firstOp(i)); res.Reason != cpu.StopHalt {
			return fmt.Errorf("lifecycle: %s stopped with %v", keyName(k), res.Reason)
		}
		d, _ := timed(func() error { ti.Inst.HeapHash(); return nil })
		hash += d
		d, _ = timed(func() error { ti.Inst.Reset(); return nil })
		reset += d
		c0 := ti.RT.M.Kern.Clock.Now()
		d, _ = timed(func() error { ti.Inst.Teardown(); return nil })
		teardown += d
		simTear += ti.RT.M.Kern.Clock.Now() - c0
	}
	n := float64(len(b.keys))
	out["sandbox.instantiate_cold_ms"] = msOf(instCold) / n
	out["sandbox.instantiate_warm_us"] = usOf(instWarm) / n
	out["faas.provision_cold_ms"] = msOf(provCold) / n
	out["faas.provision_warm_us"] = usOf(provWarm) / n
	out["sandbox.heap_hash_us"] = usOf(hash) / n
	out["sandbox.reset_us"] = usOf(reset) / n
	out["sandbox.teardown_us"] = usOf(teardown) / n
	out["kernel.sim_ns_per_teardown"] = float64(simTear) / n
	hits, misses := b.images.Stats()
	out["sandbox.codecache_hit_share"] = ratio(float64(hits), float64(hits+misses))
	return nil
}

// probeSchemes runs every distinct module of the workload under each of the
// four schemes and compares simulated cycles with guard pages — the shape
// of the paper's headline comparison. The numbers are exact and repeat;
// the model is not validated against hardware, so no error is given.
func (b *bench) probeSchemes(out map[string]float64) error {
	cache := sandbox.NewCodeCache()
	vsGuard := map[sfi.Scheme][]float64{}
	seen := map[string]bool{}
	for i, k := range b.keys {
		if seen[k.Tenant.Name] {
			continue
		}
		seen[k.Tenant.Name] = true
		cycles := map[sfi.Scheme]float64{}
		for _, s := range schemes {
			iso := schemeIso(s)
			iso.World = k.Iso.World
			ti, err := faas.ProvisionShared(k.Tenant, iso, cache)
			if err != nil {
				return err
			}
			var c0 uint64
			for warm := 0; warm < 2; warm++ {
				c0 = ti.RT.M.Cycles
				if _, _, res, _, _ := invokeOnce(ti, ti.Eng, 0, b.firstOp(i)); res.Reason != cpu.StopHalt {
					return fmt.Errorf("schemes: %s under %v stopped with %v", k.Tenant.Name, s, res.Reason)
				}
			}
			cycles[s] = float64(ti.RT.M.Cycles - c0)
		}
		for _, s := range schemes {
			vsGuard[s] = append(vsGuard[s], cycles[s]/cycles[sfi.GuardPages])
		}
	}
	pct := func(s sfi.Scheme) float64 { return 100 * (stats.GeoMean(vsGuard[s]) - 1) }
	out["hfi.vs_guard_pct"] = pct(sfi.HFI)
	out["hfi.bounds_vs_guard_pct"] = pct(sfi.BoundsCheck)
	out["hfi.masking_vs_guard_pct"] = pct(sfi.Masking)
	return nil
}

// coreCycleBudget bounds each run on the cycle-level core, which retires
// well under a million instructions per host second.
const coreCycleBudget = 1_000_000

// probeEngines runs the workload's operations on the two reference
// engines: every key once on the plain interpreter, and the first four on
// the out-of-order core for a fixed cycle budget.
func (b *bench) probeEngines(out map[string]float64) error {
	var interp, core schemeCost
	for i, k := range b.keys {
		ti, err := faas.ProvisionShared(k.Tenant, k.Iso, b.images)
		if err != nil {
			return err
		}
		d, n, res, _, _ := invokeOnce(ti, cpu.NewInterp(ti.RT.M), 0, b.firstOp(i))
		if res.Reason != cpu.StopHalt {
			return fmt.Errorf("interp: %s stopped with %v", keyName(k), res.Reason)
		}
		interp.ns += d
		interp.instrs += n
		if i >= 4 {
			continue
		}
		d, n, _, _, _ = invokeOnce(ti, cpu.NewCore(ti.RT.M), coreCycleBudget, b.firstOp(i))
		core.ns += d
		core.instrs += n
	}
	out["cpu.interp_host_ns_per_instr"] = ratio(float64(interp.ns.Nanoseconds()), float64(interp.instrs))
	out["cpu.core_kinstr_per_s"] = ratio(float64(core.instrs)/1e3, core.ns.Seconds())
	return nil
}

// probeHostcalls wraps the machine's hostcall dispatcher of one fresh
// instance per hostcall-using key and times every crossing, on the host
// clock and the simulated one.
func (b *bench) probeHostcalls(out map[string]float64) error {
	var calls, simNs uint64
	var hostNs time.Duration
	for i, k := range b.keys {
		if !k.Tenant.Mod.UsesHostcalls() {
			continue
		}
		ti, err := faas.ProvisionShared(k.Tenant, k.Iso, b.images)
		if err != nil {
			return err
		}
		m := ti.RT.M
		dispatch := m.HostcallFn
		m.HostcallFn = func(regs *[isa.NumRegs]uint64) {
			c0, t0 := m.Kern.Clock.Now(), time.Now()
			dispatch(regs)
			hostNs += time.Since(t0)
			simNs += m.Kern.Clock.Now() - c0
			calls++
		}
		for j := range b.ops {
			if b.ops[j].key != i {
				continue
			}
			if body, res := ti.ServeBody(b.ops[j].body, 0); res.Reason != cpu.StopHalt {
				return fmt.Errorf("hostcalls: %s stopped with %v", keyName(k), res.Reason)
			} else if err := b.ops[j].check(body); err != nil {
				return err
			}
		}
	}
	out["hostcall.host_ns_per_call"] = ratio(float64(hostNs.Nanoseconds()), float64(calls))
	out["hostcall.sim_ns_per_call"] = ratio(float64(simNs), float64(calls))
	return nil
}

// probeScaling measures what the second worker buys: the workload's
// operations through an in-process host, 2 closed-loop clients, with 2
// workers and then 1. Every instance gets a private hostcall world here:
// hostcall.KV is not safe for concurrent use, so two workers of one
// process must not share one (the shards that do share one run 1 worker).
func (b *bench) probeScaling(out map[string]float64) error {
	out["host.scaling_2_over_1"] = 0
	if b.hostCfg == nil {
		return nil
	}
	keys := append([]host.Class(nil), b.keys...)
	for i := range keys {
		keys[i].Iso.World = nil
	}
	var rate [2]float64
	for i, workers := range []int{2, 1} {
		cfg := *b.hostCfg
		cfg.Workers = workers
		srv := host.New(cfg)
		tb := &bench{name: b.name + " scaling", keys: keys, ops: b.ops, sched: b.sched, clients: 2}
		tb.legs = []leg{hostLeg(tb, srv)}
		err := tb.warm()
		var ss []sample
		if err == nil {
			ss = tb.closedLoop(time.Second, nil)
		}
		srv.Close()
		if err == nil {
			err = tb.firstErr
		}
		if err != nil {
			return err
		}
		rate[i] = float64(countOK(ss))
	}
	out["host.scaling_2_over_1"] = ratio(rate[0], rate[1])
	return nil
}

// probeStats times the shard's latency recorder by itself: 1e5 records,
// then one snapshot of them (what every /statsz scrape costs by then).
func probeStats(out map[string]float64) error {
	const n = 100_000
	rec := stats.NewRecorder()
	d, _ := timed(func() error {
		for i := 0; i < n; i++ {
			rec.RecordTenant("tenant", stats.OutcomeOK, float64(i))
		}
		return nil
	})
	out["stats.record_ns"] = float64(d.Nanoseconds()) / n
	d, _ = timed(func() error { rec.Snapshot(1e9); return nil })
	out["stats.snapshot_ms_at_100k"] = msOf(d)
	return nil
}
