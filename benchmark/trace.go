package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/httpfront"
	"hfi/internal/stats"
	"hfi/internal/tier"
)

// deepen appends, below the workload's own entry, the in-process legs a
// request passes through inside a shard: the HTTP front's handler, the
// host scheduler, faas.ServeBody and sandbox.Instance.Invoke. Each runs on
// a replica built from the same public constructors and configuration the
// shard uses, so the traced run can time every layer boundary from the
// benchmark's own files. sim_corpus has no serving layers and is left as
// it is.
func (b *bench) deepen() error {
	if b.hostCfg == nil {
		return nil
	}
	if b.legs[0].name != "host" {
		reg := make(map[string]httpfront.Tenant, len(b.keys))
		for _, k := range b.keys {
			reg[k.Tenant.Name] = httpfront.Tenant{Workload: k.Tenant, Iso: k.Iso}
		}
		srv := host.New(*b.hostCfg)
		b.closers = append(b.closers, srv.Close)
		b.legs = append(b.legs, frontLeg(b, httpfront.New(srv, reg)), hostLeg(b, srv))
	}
	var served []*faas.TenantInstance
	for _, k := range b.keys {
		for _, dst := range []*[]*faas.TenantInstance{&served, &b.insts} {
			ti, err := faas.Provision(k.Tenant, k.Iso)
			if err != nil {
				return err
			}
			*dst = append(*dst, ti)
		}
	}
	b.served = served
	b.legs = append(b.legs, leg{name: "faas", run: func(o *op) (time.Duration, error) {
		var body []byte
		var res cpu.RunResult
		d, _ := timed(func() error { body, res = served[o.key].ServeBody(o.body, 0); return nil })
		if res.Reason != cpu.StopHalt {
			return d, fmt.Errorf("%s stopped with %v", keyName(b.keys[o.key]), res.Reason)
		}
		return d, o.check(body)
	}}, invokeLeg(b, nil))
	return nil
}

// frontLeg calls the HTTP front's handler directly, with no socket.
func frontLeg(b *bench, f *httpfront.Front) leg {
	h := f.Handler()
	return leg{name: "front", run: func(o *op) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/tenants/"+b.keys[o.key].Tenant.Name+"/invoke", bytes.NewReader(o.body))
		rec := httptest.NewRecorder()
		d, _ := timed(func() error { h.ServeHTTP(rec, req); return nil })
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("%s: HTTP %d", b.keys[o.key].Tenant.Name, rec.Code)
		}
		return d, o.check(rec.Body.Bytes())
	}}
}

// simCounts are the simulator's own exact counters, summed over a set of
// instances: retirement, simulated cycles and time, the modelled memory
// hierarchy, HFI's checks, and the tiered engine's split.
type simCounts struct {
	instrs, cycles, simNs, elisions  uint64
	l1dAcc, l1dMiss, l2Miss, dtbMiss uint64
	checks                           uint64
	tiered, interp, promoted         uint64
}

func readSim(tis []*faas.TenantInstance) simCounts {
	var c simCounts
	for _, ti := range tis {
		m := ti.RT.M
		c.instrs += m.Instret
		c.cycles += m.Cycles
		c.simNs += m.Kern.Clock.Now()
		c.elisions += m.FactElisions
		h, ms := m.Hier.L1D.Stats()
		c.l1dAcc += h + ms
		c.l1dMiss += ms
		_, ms = m.Hier.L2.Stats()
		c.l2Miss += ms
		_, ms, _ = m.Hier.DTB.Stats()
		c.dtbMiss += ms
		c.checks += m.HFI.ChecksData + m.HFI.ChecksCode + m.HFI.ChecksExpl
		if te, ok := ti.Eng.(*tier.Engine); ok {
			p, t, i := te.Counters()
			c.promoted += p
			c.tiered += t
			c.interp += i
		}
	}
	return c
}

func (c simCounts) sub(o simCounts) simCounts {
	return simCounts{
		instrs: c.instrs - o.instrs, cycles: c.cycles - o.cycles, simNs: c.simNs - o.simNs, elisions: c.elisions - o.elisions,
		l1dAcc: c.l1dAcc - o.l1dAcc, l1dMiss: c.l1dMiss - o.l1dMiss, l2Miss: c.l2Miss - o.l2Miss, dtbMiss: c.dtbMiss - o.dtbMiss,
		checks: c.checks - o.checks, tiered: c.tiered - o.tiered, interp: c.interp - o.interp, promoted: c.promoted,
	}
}

// replayResult is what the leg replay measured.
type replayResult struct {
	spans   []span
	medians map[string]float64 // leg → median µs
	failed  int
	sim     simCounts // invoke-leg instances, over the replay
	served  simCounts // faas-leg instances, over the replay
	// serveUntraced is the median ServeBody time of the same operations
	// timed in a plain loop that records no spans.
	serveUntraced float64
	allocsPerReq  float64
	ops           int
}

// replay sends the first n operations of the seeded schedule through every
// leg in turn, one client, and records one span per (operation, leg). The
// legs of one operation run back to back, so drift in the machine's speed
// reaches all of them alike.
func (b *bench) replay(n int) replayResult {
	rr := replayResult{medians: map[string]float64{}, ops: n}
	// Warm every replica: two rounds, so both workers of an in-process
	// host have seen every key.
	for round := 0; round < 2; round++ {
		for i := range b.ops {
			for _, lg := range b.legs[1:] {
				if _, err := lg.run(&b.ops[i]); err != nil {
					b.noteErr(err)
					rr.failed++
				}
			}
		}
	}
	for _, sc := range b.byScheme {
		*sc = schemeCost{}
	}
	sim0, served0 := readSim(b.insts), readSim(b.served)
	durs := make([][]float64, len(b.legs))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		o := &b.ops[b.sched[i%len(b.sched)]]
		parent := ""
		for li, lg := range b.legs {
			start := time.Since(t0)
			d, err := lg.run(o)
			if err != nil {
				b.noteErr(err)
				rr.failed++
			}
			rr.spans = append(rr.spans, span{Op: i, Leg: lg.name, Parent: parent, StartNs: int64(start), EndNs: int64(start + d)})
			durs[li] = append(durs[li], usOf(d))
			parent = lg.name
		}
	}
	rr.sim, rr.served = readSim(b.insts).sub(sim0), readSim(b.served).sub(served0)
	for li, lg := range b.legs {
		rr.medians[lg.name] = stats.Median(durs[li])
	}

	if b.served != nil {
		var plain []float64
		for i := 0; i < n; i++ {
			o := &b.ops[b.sched[i%len(b.sched)]]
			d, _ := timed(func() error { b.served[o.key].ServeBody(o.body, 0); return nil })
			plain = append(plain, usOf(d))
		}
		rr.serveUntraced = stats.Median(plain)
	}
	if hl := b.legNamed("host"); hl != nil {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			hl.run(&b.ops[b.sched[i%len(b.sched)]])
		}
		runtime.ReadMemStats(&m1)
		rr.allocsPerReq = ratio(float64(m1.Mallocs-m0.Mallocs), float64(n))
	}
	return rr
}

func (b *bench) legNamed(name string) *leg {
	for i := range b.legs {
		if b.legs[i].name == name {
			return &b.legs[i]
		}
	}
	return nil
}

// self is a leg's self time: its median minus the next-deeper leg's; the
// deepest leg's is its whole median, and a leg the workload does not pass
// through has none.
func (rr replayResult) self(b *bench, name string) float64 {
	for i, lg := range b.legs {
		if lg.name != name {
			continue
		}
		if i+1 < len(b.legs) {
			return rr.medians[name] - rr.medians[b.legs[i+1].name]
		}
		return rr.medians[name]
	}
	return 0
}
