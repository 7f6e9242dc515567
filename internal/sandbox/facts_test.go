package sandbox

import (
	"testing"

	"hfi/internal/sfi"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// TestFactsTravelWithImages checks that instantiation attaches the
// compile-time proof artifact and that it covers the heap traffic the
// acceptance bar requires: across the Sightglass corpus, at least half of
// all heap memory operations carry an elidable fact, per scheme.
func TestFactsTravelWithImages(t *testing.T) {
	for _, scheme := range []sfi.Scheme{sfi.HFI, sfi.GuardPages, sfi.BoundsCheck} {
		heapOps, covered := 0, 0
		for _, w := range workloads.Sightglass() {
			rt := NewRuntime()
			inst, err := rt.Instantiate(w.Build(1), scheme, wasm.Options{})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, scheme, err)
			}
			f := inst.C.Facts
			if f == nil {
				t.Fatalf("%s/%v: no facts attached to the compiled image", w.Name, scheme)
			}
			if len(f.Bits) != len(inst.C.Prog.Instrs) {
				t.Fatalf("%s/%v: facts shape %d != program %d", w.Name, scheme, len(f.Bits), len(inst.C.Prog.Instrs))
			}
			heapOps += f.HeapOps
			covered += f.Covered
		}
		if heapOps == 0 {
			t.Fatalf("%v: corpus has no heap memory operations", scheme)
		}
		if 2*covered < heapOps {
			t.Errorf("%v: elision coverage %d/%d heap ops is below the 50%% bar", scheme, covered, heapOps)
		}
		t.Logf("%v: %d/%d heap ops covered (%.0f%%)", scheme, covered, heapOps, 100*float64(covered)/float64(heapOps))
	}
}
