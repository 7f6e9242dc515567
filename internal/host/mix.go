package host

import (
	"fmt"
	"math/rand"

	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/sfi"
	"hfi/internal/workloads"
)

// Class is one traffic class of a synthetic mix: a tenant under an
// isolation configuration, drawn with probability Weight / sum(Weights).
type Class struct {
	Weight int
	Tenant workloads.Tenant
	Iso    faas.Config
}

// DefaultMix is the standard mixed-tenant traffic: the four scaled-down
// Table 1 tenants spread across isolation configurations (so pool keying by
// (tenant, config) is actually exercised), weighted so the deliberately
// heavy image-classification tenant stays rare, as tail-heavy tenants are
// in production mixes.
func DefaultMix() []Class {
	light := workloads.FaaSTenantsLight()
	return []Class{
		{Weight: 8, Tenant: light[3], Iso: faas.StockLucet()},                                    // templated-html
		{Weight: 4, Tenant: light[0], Iso: faas.LucetHFI()},                                      // xml-to-json
		{Weight: 3, Tenant: light[2], Iso: faas.Config{Name: "HFI", Scheme: sfi.HFI}},            // check-sha256
		{Weight: 1, Tenant: light[1], Iso: faas.Config{Name: "Bounds", Scheme: sfi.BoundsCheck}}, // image-classification
	}
}

// BuildSchedule deterministically expands a mix into `total` requests:
// classes are drawn weight-proportionally from a seeded PRNG and each class
// keeps its own request sequence numbers. The same (mix, total, seed)
// always yields the same request set, which is what makes concurrent-run
// checksums comparable against single-threaded reference runs.
func BuildSchedule(mix []Class, total int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	wsum := 0
	for _, c := range mix {
		wsum += c.Weight
	}
	seqs := make([]uint64, len(mix))
	reqs := make([]Request, total)
	for i := range reqs {
		w := rng.Intn(wsum)
		k := 0
		for w >= mix[k].Weight {
			w -= mix[k].Weight
			k++
		}
		reqs[i] = NewRequest(mix[k].Tenant.Name, seqs[k],
			WithWorkload(mix[k].Tenant), WithIso(mix[k].Iso))
		seqs[k]++
	}
	return reqs
}

// ReferenceChecksum serves the exact request set of BuildSchedule(mix,
// total, seed) single-threaded through the faas warm-instance path and
// returns the aggregate response checksum — the ground truth the concurrent
// host must match (engine-equivalence invariant). A reference run that does
// not halt normally is no ground truth: it is returned as an error.
func ReferenceChecksum(mix []Class, total int, seed int64) (uint64, error) {
	reqs := BuildSchedule(mix, total, seed)
	instances := make(map[poolKey]*faas.TenantInstance)
	var sum uint64
	for _, r := range reqs {
		key := poolKey{r.Tenant.Name, r.Iso}
		ti := instances[key]
		if ti == nil {
			var err error
			ti, err = faas.Provision(r.Tenant, r.Iso)
			if err != nil {
				return 0, err
			}
			instances[key] = ti
		}
		body, res := ti.ServeRequest(int(r.Seq), 0)
		if res.Reason != cpu.StopHalt {
			return 0, fmt.Errorf("reference run: %s seq %d stopped with %v", r.Tenant.Name, r.Seq, res.Reason)
		}
		sum ^= faas.HashResponse(int(r.Seq), body)
	}
	return sum, nil
}
