package sandbox

import (
	"fmt"
	"testing"

	"hfi/internal/mem"
	"hfi/internal/sfi"
	"hfi/internal/wasm"
)

// isolatingSchemes are the four schemes a verified reset has to hold under.
var isolatingSchemes = []sfi.Scheme{sfi.GuardPages, sfi.BoundsCheck, sfi.Masking, sfi.HFI}

// digestModule declares pages initial heap pages (growable to twice that)
// with two data segments, plus one extra linear memory. run() does nothing: the tests dirty memory from
// the host side, the way the chaos seams do.
func digestModule(pages int) *wasm.Module {
	m := wasm.NewModule("digest", pages, 2*pages)
	m.AddData(0, []byte{10, 20, 30, 40})
	m.AddData(3*mem.PageSize+100, []byte("second segment"))
	m.AddMemory(1)
	f := m.Func("run", 0)
	f.Ret(wasm.VNone)
	return m
}

func instantiateDigest(t testing.TB, scheme sfi.Scheme, pages int) *Instance {
	t.Helper()
	inst, err := NewRuntime().Instantiate(digestModule(pages), scheme, wasm.Options{})
	if err != nil {
		t.Fatalf("%v: %v", scheme, err)
	}
	return inst
}

// TestHeapHashCoversEveryMemory: a residue anywhere Reset is responsible
// for — the initial pages, pages grown past them, an extra linear memory —
// changes the hash when it survives (a reset that was buggy or bypassed),
// and a fresh instance and a correctly reset one agree, under every scheme.
func TestHeapHashCoversEveryMemory(t *testing.T) {
	for _, scheme := range isolatingSchemes {
		inst := instantiateDigest(t, scheme, 16)
		baseline := inst.HeapHash()
		residues := []struct {
			name  string
			write func()
		}{
			{"initial heap", func() { inst.WriteHeap(1500, []byte{0xDE, 0xAD}) }},
			{"first byte past the initial heap", func() { inst.WriteMem(0, uint32(inst.InitialHeapBytes()), []byte{1}) }},
			{"last initial byte of the extra memory", func() { inst.WriteMem(1, wasm.PageSize-1, []byte{1}) }},
		}
		for _, r := range residues {
			inst.Reset()
			r.write()
			if inst.HeapHash() == baseline {
				t.Errorf("%v: residue in %s left after Reset is invisible to HeapHash", scheme, r.name)
			}
			inst.Reset()
			if got := inst.HeapHash(); got != baseline {
				t.Errorf("%v: hash %#x != baseline %#x after resetting a residue in %s", scheme, got, baseline, r.name)
			}
		}
	}
}

// TestHeapHashLayoutIndependent: the baseline is a function of the module
// alone — the same under every scheme (whose reservations run from the
// memory itself to 8 GiB) and for a second instance mapped elsewhere in
// the same address space.
func TestHeapHashLayoutIndependent(t *testing.T) {
	want := instantiateDigest(t, sfi.GuardPages, 16).HeapHash()
	for _, scheme := range isolatingSchemes {
		rt := NewRuntime()
		for i := 0; i < 2; i++ {
			inst, err := rt.Instantiate(digestModule(16), scheme, wasm.Options{})
			if err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
			if got := inst.HeapHash(); got != want {
				t.Errorf("%v instance %d (heap at %#x, %d bytes reserved): baseline %#x != %#x",
					scheme, i, inst.HeapBase, inst.HeapReserved, got, want)
			}
		}
	}
	// An unreserved placeholder memory (checked schemes) and a reserved
	// empty one (guard schemes) are the same nothing.
	hashWithPlaceholder := func(scheme sfi.Scheme) uint64 {
		mod := digestModule(16)
		mod.AddMemory(0)
		inst, err := NewRuntime().Instantiate(mod, scheme, wasm.Options{})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		return inst.HeapHash()
	}
	if g, h := hashWithPlaceholder(sfi.GuardPages), hashWithPlaceholder(sfi.HFI); g != h {
		t.Errorf("placeholder memory: guard-pages baseline %#x != HFI baseline %#x", g, h)
	}
}

// TestHeapHashSeesUpsetsAnywhere: a single-bit upset at sampled offsets
// across the whole initial heap — data pages and pages nothing ever wrote
// alike — changes the hash, which is why the substrate audit needs no
// per-page sampling; an upset that reverts, or zeros written over a page
// that was never resident, leave it unchanged.
func TestHeapHashSeesUpsetsAnywhere(t *testing.T) {
	inst := instantiateDigest(t, sfi.HFI, 16)
	baseline := inst.HeapHash()
	total := inst.InitialHeapBytes()
	// 65543 is prime: 16 samples, one per 64 KiB page, at drifting offsets.
	offs := []uint64{0, total - 1}
	for off := uint64(5000); off < total; off += 65543 {
		offs = append(offs, off)
	}
	for _, off := range offs {
		for bit := 0; bit < 8; bit++ {
			mask := byte(1) << bit
			inst.FlipHeapBit(off, mask)
			if inst.HeapHash() == baseline {
				t.Fatalf("bit %d at heap offset %#x flipped, hash unchanged", bit, off)
			}
			inst.FlipHeapBit(off, mask)
			if got := inst.HeapHash(); got != baseline {
				t.Fatalf("hash %#x != baseline %#x after the flip at %#x reverted", got, baseline, off)
			}
		}
	}
	inst.WriteHeap(9*wasm.PageSize, make([]byte, 3*mem.PageSize))
	if got := inst.HeapHash(); got != baseline {
		t.Fatalf("hash %#x != baseline %#x after writing zeros over untouched pages", got, baseline)
	}
}

// TestHeapHashCostFollowsResidentPages: what HeapHash walks on a
// guard-scheme instance — 8 GiB reserved per memory — is the resident
// backing pages of its memories, which are its data-segment pages whether
// the module declares 16 heap pages or 1024 (mem's
// TestDigestCostFollowsResidentPages pins that the walk visits those and
// no more).
func TestHeapHashCostFollowsResidentPages(t *testing.T) {
	for _, pages := range []int{16, 1024} {
		inst := instantiateDigest(t, sfi.GuardPages, pages)
		m := inst.RT.M.Mem()
		resident := m.ResidentIn(inst.HeapBase, inst.HeapReserved)
		for i, base := range inst.ExtraMemBases {
			resident += m.ResidentIn(base, inst.ExtraMemReserved[i])
		}
		if inst.HeapReserved != GuardReservation || resident != 2*mem.PageSize {
			t.Errorf("%d declared pages: %d bytes resident in %d reserved, want the 2 data-segment backing pages in 8 GiB",
				pages, resident, inst.HeapReserved)
		}
	}
}

// TestHeapHashZeroAllocs is the allocation gate for the verified-reset
// check, which runs on every cold start, quarantine and sampled audit: on a
// provisioned instance of every scheme it must not allocate.
func TestHeapHashZeroAllocs(t *testing.T) {
	for _, scheme := range isolatingSchemes {
		inst := instantiateDigest(t, scheme, 16)
		if allocs := testing.AllocsPerRun(20, func() { inst.HeapHash() }); allocs != 0 {
			t.Errorf("%v: HeapHash allocates %.1f times per call, want 0", scheme, allocs)
		}
	}
}

// BenchmarkHeapHash documents that the check's cost does not follow the
// declared heap size (16 pages = 1 MiB, 1024 pages = 64 MiB): both
// instances have the same two resident data pages.
func BenchmarkHeapHash(b *testing.B) {
	for _, pages := range []int{16, 1024} {
		b.Run(fmt.Sprintf("%dpages", pages), func(b *testing.B) {
			inst := instantiateDigest(b, sfi.HFI, pages)
			b.ReportAllocs()
			for b.Loop() {
				inst.HeapHash()
			}
		})
	}
}
