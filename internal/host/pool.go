package host

import (
	"time"

	"hfi/internal/faas"
)

// PoolConfig bounds each worker's warm-instance pool — the §6.3.1 story:
// warm reuse is the throughput win, but pools must not grow monotonically
// with the (tenant, config) set, and instances must be recycled with
// batched teardown rather than one madvise per instance.
type PoolConfig struct {
	// Cap is the maximum warm instances per worker; beyond it the
	// least-recently-used instance is evicted (0 = unbounded, the old
	// behaviour).
	Cap int
	// TTL evicts instances idle longer than this (0 = no TTL).
	TTL time.Duration
	// TeardownBatch defers evicted instances and tears them down in sweeps
	// of this size (default 8), amortizing the recycle cost the way
	// faas.TeardownBatched does on one machine. (Each instance here owns a
	// private simulated machine, so the batch is a deferred sweep rather
	// than one spanning madvise.)
	TeardownBatch int
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.TeardownBatch <= 0 {
		c.TeardownBatch = 8
	}
	return c
}

// poolEntry is one warm instance plus the state quarantine needs: the
// verified-reset baseline — sandbox.Instance.HeapHash of the fresh
// instance, a digest of the resident pages of all its linear memories taken
// at every cold provision (it costs microseconds, so nothing caches it) —
// and the last-use time (for TTL eviction).
type poolEntry struct {
	key      poolKey
	ti       *faas.TenantInstance
	baseline uint64
	lastUsed time.Time
	// dead marks an entry already evicted or discarded. Discard and evict
	// are idempotent through it: a substrate spot-check discard followed by
	// the quarantine path's discard (or an LRU eviction racing a discard in
	// the same worker) must tear the instance down exactly once — a double
	// teardown would double-count teardowns and batch the same instance
	// twice.
	dead bool
}

// instPool is a worker-private warm-instance pool with LRU/TTL eviction
// and deferred batched teardown. Nothing in it ever crosses goroutines;
// the server only sees its aggregate size through atomic counters.
type instPool struct {
	srv     *Server
	cfg     PoolConfig
	entries map[poolKey]*poolEntry
	order   []*poolEntry // LRU order: index 0 is the oldest
	pending []*faas.TenantInstance
}

func newInstPool(srv *Server) *instPool {
	return &instPool{
		srv:     srv,
		cfg:     srv.cfg.Pool.withDefaults(),
		entries: make(map[poolKey]*poolEntry),
	}
}

// get returns the warm entry for key (touching its LRU position) or nil.
// TTL-stale entries — this key's or any other's — are evicted first.
func (p *instPool) get(key poolKey, now time.Time) *poolEntry {
	p.sweepTTL(now)
	e := p.entries[key]
	if e == nil {
		return nil
	}
	e.lastUsed = now
	p.touch(e)
	return e
}

// put inserts a freshly provisioned instance, evicting the LRU entry if
// the pool is over capacity.
func (p *instPool) put(key poolKey, ti *faas.TenantInstance, baseline uint64, now time.Time) *poolEntry {
	e := &poolEntry{key: key, ti: ti, baseline: baseline, lastUsed: now}
	p.entries[key] = e
	p.order = append(p.order, e)
	p.srv.poolGrew(1)
	for p.cfg.Cap > 0 && len(p.entries) > p.cfg.Cap {
		// Oldest first; never the entry we just inserted (it is newest).
		p.evict(p.order[0])
		p.srv.evictions.Add(1)
	}
	return e
}

// discard removes a quarantined entry that failed reset verification; the
// instance is never reused and joins the pending teardown batch.
func (p *instPool) discard(e *poolEntry) {
	if e.dead {
		return
	}
	p.evict(e)
	p.srv.discarded.Add(1)
}

func (p *instPool) evict(e *poolEntry) {
	if e.dead {
		return
	}
	e.dead = true
	delete(p.entries, e.key)
	p.remove(e)
	p.pending = append(p.pending, e.ti)
	p.srv.poolGrew(-1)
	if len(p.pending) >= p.cfg.TeardownBatch {
		p.flush()
	}
}

// sweepTTL evicts entries idle past the TTL.
func (p *instPool) sweepTTL(now time.Time) {
	if p.cfg.TTL <= 0 {
		return
	}
	for len(p.order) > 0 && now.Sub(p.order[0].lastUsed) > p.cfg.TTL {
		p.evict(p.order[0])
		p.srv.evictions.Add(1)
	}
}

// flush tears down every pending evicted instance in one sweep.
func (p *instPool) flush() {
	for _, ti := range p.pending {
		ti.Inst.Teardown()
		p.srv.teardowns.Add(1)
	}
	p.pending = p.pending[:0]
}

// drain empties the pool at worker exit.
func (p *instPool) drain() {
	for len(p.order) > 0 {
		p.evict(p.order[0])
	}
	p.flush()
}

// touch moves e to the most-recently-used end.
func (p *instPool) touch(e *poolEntry) {
	p.remove(e)
	p.order = append(p.order, e)
}

func (p *instPool) remove(e *poolEntry) {
	for i, x := range p.order {
		if x == e {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}
