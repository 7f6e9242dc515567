package sandbox

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hfi/internal/cpu"
	"hfi/internal/sfi"
	"hfi/internal/tier"
	"hfi/internal/wasm"
)

// CodeCache shares compiled, verified code images across runtimes. A FaaS
// host provisions the same tenant module many times — once per pooled
// instance per worker — and every provision repeats two compilations: a
// throwaway layout probe to learn the code size, then the real compile
// against the instance's addresses. Both are deterministic functions of
// their inputs, and a fresh Runtime allocates identical layouts for
// identical (module, scheme, options), so provisions after the first can
// reuse the first's work.
//
// Sharing is sound because a Compiled image is immutable once built: the
// engines only read Program.Instrs, and instance state (heap, globals,
// region tables) lives in per-machine memory, never in the image. The real
// compile runs the static safety verifier before the image enters the
// cache, so every runtime that shares it shares a *verified* image keyed by
// the exact layout and options it was verified against; a runtime whose
// allocator produced different addresses misses and compiles (and
// verifies) its own. Each image is stored with the tiered engine's lowering
// of it, built right after the compile: the lowering is a pure function of
// (Prog, Facts, cost model), all frozen at compile time, and all mutable
// tier state lives in the per-instance Engine.
//
// CodeCache is safe for concurrent use. Each key is built exactly once, by
// its first caller, and never under the map lock: later callers of the
// same key wait for that build, callers of other keys do not wait at all.
// A failed build is not cached: its entry leaves the map and every caller
// waiting on it gets the error.
type CodeCache struct {
	mu     sync.Mutex
	sizes  map[sizeKey]*entry[uint64]
	images map[imageKey]*entry[image]

	hits, misses atomic.Uint64 // image lookups (probe lookups excluded)
}

// image is one cache entry's payload: a verified compilation and its
// lowering (nil when the image carries no facts).
type image struct {
	c   *wasm.Compiled
	low *tier.Lowered
}

// entry is one key's build. The caller that inserts it fills val and err
// and then closes done; every other caller of the key waits on done.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// compile is the compiler the cache builds through; a variable so a test
// can hold one key's build open.
var compile = wasm.Compile

// sizeKey identifies a layout probe: code size depends on the module, the
// scheme, and the compile options, but not on the layout addresses.
type sizeKey struct {
	mod    *wasm.Module
	scheme sfi.Scheme
	opts   wasm.Options
}

// imageKey identifies a full compilation: the probe inputs plus the layout
// geometry the immediates were linked against. Layout holds a slice
// (ExtraMemBases) so it cannot be a map key directly; lay is its rendered
// fingerprint.
type imageKey struct {
	sizeKey
	lay string
}

func layoutFingerprint(lay wasm.Layout) string {
	var b strings.Builder
	fmt.Fprintf(&b, "c%x h%x s%x+%x g%x", lay.CodeBase, lay.HeapBase, lay.StackBase, lay.StackSize, lay.GlobalBase)
	for _, base := range lay.ExtraMemBases {
		fmt.Fprintf(&b, " e%x", base)
	}
	return b.String()
}

// NewCodeCache returns an empty cache.
func NewCodeCache() *CodeCache {
	return &CodeCache{
		sizes:  make(map[sizeKey]*entry[uint64]),
		images: make(map[imageKey]*entry[image]),
	}
}

// once returns the value of key k in m, building it on the first request.
// The map lock covers only the lookup and the insert; hit reports whether
// the key already had an entry.
func once[K comparable, V any](cc *CodeCache, m map[K]*entry[V], k K, build func() (V, error)) (v V, hit bool, err error) {
	cc.mu.Lock()
	e, hit := m[k]
	if !hit {
		e = &entry[V]{done: make(chan struct{})}
		m[k] = e
	}
	cc.mu.Unlock()
	if hit {
		<-e.done
		return e.val, true, e.err
	}
	e.val, e.err = build()
	if e.err != nil {
		cc.mu.Lock()
		if m[k] == e { // Evict may already have dropped it
			delete(m, k)
		}
		cc.mu.Unlock()
	}
	close(e.done)
	return e.val, false, e.err
}

// probeSize returns the code size (in bytes, excluding springboard slots)
// of mod compiled under scheme/opts, running the throwaway layout probe on
// the first request for a key and answering later ones from the cache. The
// probe is never executed, so it is never verified: NoVerify is part of
// neither its work nor its key.
func (cc *CodeCache) probeSize(mod *wasm.Module, scheme sfi.Scheme, opts wasm.Options) (uint64, error) {
	opts.NoVerify = true
	size, _, err := once(cc, cc.sizes, sizeKey{mod, scheme, opts}, func() (uint64, error) {
		probe, err := compile(mod, scheme, probeLayout, opts)
		if err != nil {
			return 0, err
		}
		return probe.Prog.Size(), nil
	})
	return size, err
}

// load returns the image and lowering for (mod, scheme, lay, opts),
// sharing one compilation across every caller with the same key. opts is
// keyed whole: an image compiled with NoVerify is never handed to a caller
// that asked for verification.
func (cc *CodeCache) load(mod *wasm.Module, scheme sfi.Scheme, lay wasm.Layout, opts wasm.Options) (image, error) {
	k := imageKey{sizeKey{mod, scheme, opts}, layoutFingerprint(lay)}
	img, hit, err := once(cc, cc.images, k, func() (image, error) {
		c, err := compile(mod, scheme, lay, opts)
		if err != nil {
			return image{}, err
		}
		return image{c, tier.Lower(c.Prog, c.Facts, cpu.DefaultCostModel())}, nil
	})
	if hit {
		cc.hits.Add(1)
	} else {
		cc.misses.Add(1)
	}
	return img, err
}

// Evict drops every cache entry derived from mod: probe sizes, and images
// together with the lowering built for each.
func (cc *CodeCache) Evict(mod *wasm.Module) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for k := range cc.sizes {
		if k.mod == mod {
			delete(cc.sizes, k)
		}
	}
	for k := range cc.images {
		if k.mod == mod {
			delete(cc.images, k)
		}
	}
}

// Entries reports the live image-cache entry count.
func (cc *CodeCache) Entries() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.images)
}

// Stats reports image-cache hits and misses (probe lookups excluded). A
// lowering is built exactly when its image is, so these are the lowering
// counts too.
func (cc *CodeCache) Stats() (hits, misses uint64) {
	return cc.hits.Load(), cc.misses.Load()
}
