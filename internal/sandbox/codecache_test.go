package sandbox

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfi/internal/sfi"
	"hfi/internal/wasm"
)

// instantiateVia instantiates mod under HFI on a fresh runtime that
// compiles through cc.
func instantiateVia(cc *CodeCache, mod *wasm.Module, opts wasm.Options) (*Instance, error) {
	rt := NewRuntime()
	rt.Images = cc
	return rt.Instantiate(mod, sfi.HFI, opts)
}

type instResult struct {
	inst *Instance
	err  error
}

// within instantiates mod through cc on its own goroutine and fails the
// test if that does not return in time.
func within(t *testing.T, what string, cc *CodeCache, mod *wasm.Module) {
	t.Helper()
	ch := make(chan error, 1)
	go func() {
		_, err := instantiateVia(cc, mod, wasm.Options{})
		ch <- err
	}()
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked behind another key's build", what)
	}
}

// TestCodeCacheBuildsOutsideLock holds one key's compile open and checks
// that the cache keeps serving every other key meanwhile — a warm lookup
// returns, a cold build completes — and that further callers of the held
// key wait for its one build instead of starting their own.
func TestCodeCacheBuildsOutsideLock(t *testing.T) {
	held, warm, cold := checksumModule(100), checksumModule(200), checksumModule(300)
	started, release := make(chan struct{}), make(chan struct{})
	var heldBuilds atomic.Int32
	compile = func(mod *wasm.Module, scheme sfi.Scheme, lay wasm.Layout, opts wasm.Options) (*wasm.Compiled, error) {
		if mod == held && lay.CodeBase != probeLayout.CodeBase {
			if heldBuilds.Add(1) == 1 {
				close(started)
			}
			<-release
		}
		return wasm.Compile(mod, scheme, lay, opts)
	}
	var wg sync.WaitGroup
	var releaseOnce sync.Once
	t.Cleanup(func() {
		releaseOnce.Do(func() { close(release) })
		wg.Wait()
		compile = wasm.Compile
	})

	cc := NewCodeCache()
	if _, err := instantiateVia(cc, warm, wasm.Options{}); err != nil {
		t.Fatal(err)
	}

	const callers = 5 // the held build's owner plus four waiters
	results := make(chan instResult, callers)
	call := func() {
		defer wg.Done()
		inst, err := instantiateVia(cc, held, wasm.Options{})
		results <- instResult{inst, err}
	}
	wg.Add(1)
	go call()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the held key's build never started")
	}

	within(t, "warm lookup of another key", cc, warm)
	within(t, "cold build of another key", cc, cold)

	for i := 1; i < callers; i++ {
		wg.Add(1)
		go call()
	}
	select {
	case <-results:
		t.Fatal("a caller of the held key returned before its build finished")
	case <-time.After(50 * time.Millisecond):
	}
	releaseOnce.Do(func() { close(release) })
	wg.Wait()
	close(results)

	var first *Instance
	for r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if first == nil {
			first = r.inst
		} else if r.inst.C != first.C || r.inst.Lowered != first.Lowered {
			t.Fatal("callers of the held key got different images")
		}
	}
	if n := heldBuilds.Load(); n != 1 {
		t.Fatalf("held key compiled %d times, want 1", n)
	}
	// Misses: warm's first instantiation, cold, held. Hits: warm's second
	// instantiation and the four callers that waited on held's build.
	if hits, misses := cc.Stats(); hits != 1+callers-1 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want %d/3", hits, misses, callers)
	}
}

// TestCodeCacheDropsFailedBuilds: a failed build is not cached. The caller
// that built it and every caller waiting on it get the error, the entry
// leaves the map, and the next caller builds afresh.
func TestCodeCacheDropsFailedBuilds(t *testing.T) {
	mod := checksumModule(100)
	errBuild := errors.New("build failed")
	release := make(chan struct{})
	var failing atomic.Bool
	failing.Store(true)
	compile = func(m *wasm.Module, scheme sfi.Scheme, lay wasm.Layout, opts wasm.Options) (*wasm.Compiled, error) {
		if failing.Load() && lay.CodeBase != probeLayout.CodeBase {
			<-release
			return nil, errBuild
		}
		return wasm.Compile(m, scheme, lay, opts)
	}
	t.Cleanup(func() { compile = wasm.Compile })

	cc := NewCodeCache()
	const callers = 3
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := instantiateVia(cc, mod, wasm.Options{})
			errs <- err
		}()
	}
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, errBuild) {
			t.Fatalf("caller got %v, want the build's error", err)
		}
	}
	if n := cc.Entries(); n != 0 {
		t.Fatalf("%d image entries after a failed build, want 0", n)
	}

	failing.Store(false)
	inst, err := instantiateVia(cc, mod, wasm.Options{})
	if err != nil {
		t.Fatalf("rebuild after a failure: %v", err)
	}
	if inst.C.Facts == nil {
		t.Fatal("rebuilt image carries no facts")
	}
}

// TestCodeCacheKeysNoVerify: an image compiled with NoVerify carries no
// proof and must never be served to a later caller that asked for
// verification, though both may share the layout probe.
func TestCodeCacheKeysNoVerify(t *testing.T) {
	cc := NewCodeCache()
	mod := checksumModule(100)
	unverified, err := instantiateVia(cc, mod, wasm.Options{NoVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if unverified.C.Facts != nil {
		t.Fatal("NoVerify image carries facts")
	}
	verified, err := instantiateVia(cc, mod, wasm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if verified.C.Facts == nil {
		t.Fatal("a verifying caller was served the unverified image")
	}
	if hits, misses := cc.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", hits, misses)
	}
	if n := len(cc.sizes); n != 1 {
		t.Fatalf("%d probe entries, want 1 shared", n)
	}
}
