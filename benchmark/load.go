package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/sandbox"
)

// bodiesPerKey is how many distinct request bodies each (tenant, isolation)
// key is driven with. Nothing in the stack caches by body, so a small set
// loses no coverage and keeps the single-threaded reference pass that
// set-up runs short.
const bodiesPerKey = 16

// op is one distinct operation: a request body for one key, and what a
// correct response hashes to. sim_corpus operations carry no body; their
// want is the kernel's return value.
type op struct {
	key    int
	body   []byte
	want   uint64
	verify bool // false: the response depends on shared KV state or clocks; only the status is checked
}

// leg is one public entry point of the serving stack, outermost first. run
// sends one operation through it, checks the response, and returns the
// host time the call took.
type leg struct {
	name string
	run  func(o *op) (time.Duration, error)
}

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// bench is one workload, set up and warm. legs[0] is the entry the
// workload's own load goes through; trace mode appends the deeper ones.
type bench struct {
	name string
	seed int64

	// keys are the (tenant, isolation) pairs in play; ops the distinct
	// operations over them; sched the seeded order they are sent in,
	// wrapping when the run outlasts it.
	keys  []host.Class
	ops   []op
	sched []int32

	clients int     // closed-loop clients; 0 selects the open loop
	rate    float64 // open-loop Poisson arrivals per second

	legs []leg

	// insts are the in-process instances the invoke leg runs on, one per
	// key: the workload's own on sim_corpus, trace-mode replicas elsewhere.
	insts []*faas.TenantInstance
	// served are the replicas the traced faas leg runs on, one per key.
	served []*faas.TenantInstance
	// images is the code cache the in-process instances share.
	images *sandbox.CodeCache
	// byScheme accumulates host time and retired instructions of the
	// invoke leg per isolation scheme.
	byScheme map[string]*schemeCost

	// guestInstrs reports guest instructions retired so far across every
	// process serving the workload.
	guestInstrs func() (uint64, error)
	// layerCounts reports the serving layers' own counters after a load.
	layerCounts func() (layerCounts, error)
	// hostCfg is the host configuration requests are served under (nil on
	// sim_corpus, which has no host).
	hostCfg *host.Config
	pids    []int
	closers []func()

	errMu    sync.Mutex
	firstErr error
}

type schemeCost struct {
	ns     time.Duration
	instrs uint64
}

// layerCounts are the counters the serving layers keep about themselves,
// read from outside after a load: the host's from Counters()/statsz, the
// router's from StatszDoc.
type layerCounts struct {
	admitted, coldStarts, evictions, shed uint64
	hostcalls, served                     uint64
	statszMs                              float64
	routingHitShare                       float64
	hedges, retries, transportErrors      uint64
}

func (b *bench) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	b.closers = nil
}

func (b *bench) noteErr(err error) {
	b.errMu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.errMu.Unlock()
}

// send is the workload's own entry: one operation through the outermost leg.
func (b *bench) send(o *op) error {
	_, err := b.legs[0].run(o)
	return err
}

// check compares a response body with the operation's reference.
func (o *op) check(body []byte) error {
	if o.verify && faas.HashResponse(0, body) != o.want {
		return fmt.Errorf("wrong output: response hash %#x, reference %#x", faas.HashResponse(0, body), o.want)
	}
	return nil
}

// makeOps builds bodiesPerKey operations per key, bodies drawn from the
// tenant's generator at a seed-chosen offset, and computes each verified
// operation's reference response single-threaded on a private instance
// (private code cache, so the host's own cold start is left cold).
func makeOps(keys []host.Class, seed int64, verify func(k host.Class) bool) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	base := rng.Intn(1 << 16)
	cache := sandbox.NewCodeCache()
	ops := make([]op, 0, len(keys)*bodiesPerKey)
	for ki, k := range keys {
		var ref *faas.TenantInstance
		if verify(k) {
			var err error
			if ref, err = faas.ProvisionShared(k.Tenant, k.Iso, cache); err != nil {
				return nil, fmt.Errorf("reference: %w", err)
			}
		}
		for j := 0; j < bodiesPerKey; j++ {
			o := op{key: ki, body: k.Tenant.MakeRequest(base + j), verify: ref != nil}
			if ref != nil {
				body, res := ref.ServeBody(o.body, 0)
				if res.Reason != cpu.StopHalt {
					return nil, fmt.Errorf("reference: %s/%s stopped with %v", k.Tenant.Name, k.Iso.Name, res.Reason)
				}
				o.want = faas.HashResponse(0, body)
			}
			ops = append(ops, o)
		}
	}
	return ops, nil
}

// schedLen bounds the seeded schedule; a run that outlasts it wraps.
const schedLen = 1 << 16

// mixRounds is how many copies of the exact mix one shuffled block of the
// schedule holds. One copy would never repeat a key within a round, which
// starves a warm pool far more than independent draws do; eight let a key
// recur at short distances while every block still holds the exact mix.
const mixRounds = 8

// drawSchedule orders the operations: blocks of mixRounds × (each key as
// many times as its weight), each block in a fresh seeded shuffle, each
// key's bodies cycled in turn. Two seeds differ in order and not in how
// much work they ask for.
func drawSchedule(keys []host.Class, seed int64) []int32 {
	var block []int
	for r := 0; r < mixRounds; r++ {
		for i, k := range keys {
			for w := 0; w < k.Weight; w++ {
				block = append(block, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, len(keys))
	sched := make([]int32, 0, schedLen+len(block))
	for len(sched) < schedLen {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			sched = append(sched, int32(k*bodiesPerKey+seq[k]%bodiesPerKey))
			seq[k]++
		}
	}
	return sched
}

// tracer collects spans in memory; on decides per start time whether the
// load generator records one, so traced and untraced stretches interleave
// within one run and see the same server state.
type tracer struct {
	mu    sync.Mutex
	spans []span
	on    func(at time.Duration) bool
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// load drives the workload for dur and returns every operation's sample.
// The open loop also returns how late each arrival was actually sent.
func (b *bench) load(dur time.Duration, tr *tracer) (samples []sample, late []time.Duration) {
	if b.clients > 0 {
		return b.closedLoop(dur, tr), nil
	}
	return b.openLoop(dur, tr)
}

// closedLoop runs b.clients clients, each sending its next operation as
// soon as the previous one is answered, until dur has passed.
func (b *bench) closedLoop(dur time.Duration, tr *tracer) []sample {
	var next atomic.Int64
	per := make([][]sample, b.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				at := time.Since(t0)
				if at >= dur {
					return
				}
				i := next.Add(1) - 1
				o := b.sched[i%int64(len(b.sched))]
				err := b.send(&b.ops[o])
				lat := time.Since(t0) - at
				if err != nil {
					b.noteErr(err)
				}
				per[c] = append(per[c], sample{at: at, lat: lat, op: o, ok: err == nil})
				if tr != nil && tr.on(at) {
					tr.add(span{Op: int(i), Leg: b.legs[0].name, StartNs: int64(at), EndNs: int64(at + lat)})
				}
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// openLoop sends operations at seeded random arrival times regardless of
// completions, and times each from when it was due, so a stall's cost to
// the arrivals behind it is counted. The arrivals are a Poisson process of
// rate b.rate conditioned on its count: rate × dur times drawn uniformly
// over the run, so every seed offers the same number of operations.
func (b *bench) openLoop(dur time.Duration, tr *tracer) (samples []sample, late []time.Duration) {
	rng := rand.New(rand.NewSource(b.seed ^ 0x5deece66d))
	dues := make([]time.Duration, int(b.rate*dur.Seconds()))
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	slices.Sort(dues)
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, due := range dues {
		if d := time.Until(t0.Add(due)); d > 0 {
			time.Sleep(d)
		}
		late = append(late, time.Since(t0)-due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := b.sched[i%len(b.sched)]
			err := b.send(&b.ops[o])
			lat := time.Since(t0) - due
			if err != nil {
				b.noteErr(err)
			}
			mu.Lock()
			samples = append(samples, sample{at: due, lat: lat, op: o, ok: err == nil})
			mu.Unlock()
			if tr != nil && tr.on(due) {
				tr.add(span{Op: i, Leg: b.legs[0].name, StartNs: int64(due), EndNs: int64(due + lat)})
			}
		}()
	}
	wg.Wait()
	return samples, late
}
