package faas

import (
	"sync"
	"testing"

	"hfi/internal/cpu"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/workloads"
)

// TestSharedImageAcrossWorkers provisions the same tenant on 8 concurrent
// workers through one CodeCache and asserts (a) every worker received the
// *same* immutable program image — pointer identity, not just equality —
// and (b) hammering that shared image from all workers at once produces the
// single-threaded request checksums. Run under -race this doubles as the
// proof that sharing verified images is data-race free: engines only read
// the image, instance state lives per machine.
func TestSharedImageAcrossWorkers(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[0]
	cfg := Config{Name: "HFI", Scheme: sfi.HFI}
	images := sandbox.NewCodeCache()

	const workers = 8
	const reqsPerWorker = 4

	tis := make([]*TenantInstance, workers)
	for i := range tis {
		ti, err := ProvisionShared(tenant, cfg, images)
		if err != nil {
			t.Fatal(err)
		}
		tis[i] = ti
	}
	for i := 1; i < workers; i++ {
		if tis[i].Inst.C.Prog != tis[0].Inst.C.Prog {
			t.Fatalf("worker %d compiled a private image; want the shared one", i)
		}
	}
	if hits, misses := images.Stats(); misses != 1 || hits != workers-1 {
		t.Fatalf("image cache hits=%d misses=%d, want %d/1", hits, misses, workers-1)
	}

	// Single-threaded reference checksums.
	refTI, err := ProvisionShared(tenant, cfg, images)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, reqsPerWorker)
	for i := range want {
		body, res := refTI.ServeRequest(i, 0)
		if res.Reason != cpu.StopHalt {
			t.Fatalf("reference request %d: stop = %v", i, res.Reason)
		}
		want[i] = HashResponse(i, body)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ti *TenantInstance) {
			defer wg.Done()
			for i := 0; i < reqsPerWorker; i++ {
				body, res := ti.ServeRequest(i, 0)
				if res.Reason != cpu.StopHalt {
					errs <- &mismatchError{i, 0, uint64(res.Reason)}
					return
				}
				if got := HashResponse(i, body); got != want[i] {
					errs <- &mismatchError{i, got, want[i]}
					return
				}
			}
		}(tis[w])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentColdProvisionBuildsOnce: 8 workers provision one cold key
// at the same moment. Exactly one compiles, verifies and lowers; the other
// seven wait for that build and share its image and lowering. Under -race
// this is the proof that the per-key wait publishes the entry safely.
func TestConcurrentColdProvisionBuildsOnce(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[0]
	cfg := Config{Name: "HFI", Scheme: sfi.HFI}
	images := sandbox.NewCodeCache()

	const workers = 8
	tis := make([]*TenantInstance, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range tis {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			tis[i], errs[i] = ProvisionShared(tenant, cfg, images)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := 1; i < workers; i++ {
		if tis[i].Inst.C != tis[0].Inst.C || tis[i].Inst.Lowered != tis[0].Inst.Lowered {
			t.Fatalf("worker %d built a private image or lowering; want the shared one", i)
		}
	}
	if tis[0].Inst.Lowered == nil {
		t.Fatal("verified image carries no lowering")
	}
	if hits, misses := images.Stats(); misses != 1 || hits != workers-1 {
		t.Fatalf("image cache hits=%d misses=%d, want %d/1", hits, misses, workers-1)
	}
}

type mismatchError struct {
	seq       int
	got, want uint64
}

func (e *mismatchError) Error() string {
	if e.got == 0 {
		return "request aborted"
	}
	return "shared-image worker diverged from single-threaded reference"
}

// TestProvisionCachedCompilesOnce: after one provision warms the cache,
// further provisions of the same (tenant, config) perform zero compiles.
func TestProvisionCachedCompilesOnce(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[0]
	cfg := StockLucet()
	images := sandbox.NewCodeCache()

	if _, err := ProvisionShared(tenant, cfg, images); err != nil {
		t.Fatal(err)
	}
	_, misses0 := images.Stats()
	if misses0 != 1 {
		t.Fatalf("cold provision misses = %d, want 1", misses0)
	}
	for i := 0; i < 3; i++ {
		if _, err := ProvisionShared(tenant, cfg, images); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := images.Stats()
	if misses != 1 {
		t.Fatalf("warm provisions recompiled: misses = %d, want 1", misses)
	}
	if hits != 3 {
		t.Fatalf("warm provision hits = %d, want 3", hits)
	}
}
