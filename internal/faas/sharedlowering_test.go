package faas

import (
	"sync"
	"testing"

	"hfi/internal/cpu"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/tier"
	"hfi/internal/workloads"
)

// TestSharedLoweringAcrossWorkers mirrors TestSharedImageAcrossWorkers one
// layer up: 8 workers provisioned through one CodeCache must share the
// *same* tiered lowering — pointer identity — and hammering it concurrently
// must reproduce the single-threaded checksums. Under -race this proves
// the lowering is read-only in steady state: all mutable tier state (gate
// verdicts, counters) lives in the per-instance Engine.
func TestSharedLoweringAcrossWorkers(t *testing.T) {
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
		if ti.Inst.Lowered == nil {
			t.Fatal("verified image carries no lowering")
		}
		tis[i] = ti
	}
	for i := 1; i < workers; i++ {
		if tis[i].Inst.Lowered != tis[0].Inst.Lowered {
			t.Fatalf("worker %d built a private lowering; want the shared one", i)
		}
	}
	if hits, misses := images.Stats(); misses != 1 || hits != workers-1 {
		t.Fatalf("lowering cache hits=%d misses=%d, want %d/1", hits, misses, workers-1)
	}

	// Single-threaded reference checksums on a private cache, so the shared
	// one's stats stay pinned above.
	refTI, err := ProvisionShared(tenant, cfg, sandbox.NewCodeCache())
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

	// Non-vacuity: the concurrent phase must actually have run fused.
	var tiered uint64
	for _, ti := range tis {
		_, td, _ := ti.Eng.(*tier.Engine).Counters()
		tiered += td
	}
	if tiered == 0 {
		t.Fatal("no worker retired fused instructions; the race coverage is vacuous")
	}
}

// TestLoweringEvictedWithImage: evicting a module drops each image's
// lowering together with the image — an orphaned lowering would pin the
// dead image — and a later provision rebuilds both.
func TestLoweringEvictedWithImage(t *testing.T) {
	tenant := workloads.FaaSTenantsLight()[0]
	cfg := Config{Name: "HFI", Scheme: sfi.HFI}
	images := sandbox.NewCodeCache()

	if _, err := ProvisionShared(tenant, cfg, images); err != nil {
		t.Fatal(err)
	}
	if n := images.Entries(); n == 0 {
		t.Fatalf("warm cache entries = %d, want > 0", n)
	}

	images.Evict(tenant.Mod)
	if n := images.Entries(); n != 0 {
		t.Fatalf("post-evict entries = %d, want 0", n)
	}

	ti, err := ProvisionShared(tenant, cfg, images)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Inst.Lowered == nil {
		t.Fatal("re-provision after eviction lost the lowering")
	}
	if _, misses := images.Stats(); misses != 2 {
		t.Fatalf("lowering misses = %d, want 2 (cold + post-evict rebuild)", misses)
	}
}
