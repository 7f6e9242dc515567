package httpfront

import (
	"sort"

	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/hostcall"
	"hfi/internal/sfi"
	"hfi/internal/workloads"
)

// DefaultRegistry builds the routable tenant set every serving tier
// (hfihttpd standalone, a cluster shard) exposes: the standard DefaultMix
// classes (each keeping its isolation configuration, so /v1/tenants/...
// names exercise the same (tenant, config) pool keying as the benchmarks)
// plus the hostcall guests — kv-session, stream-xform, fan-in-agg,
// hostcall-micro — under HFI with one shared world seeded by worldSeed,
// so KV state written by one tenant is visible to the others subject to
// per-tenant quotas. The "faulty" tenant traps on any non-empty body — the
// deterministic breaker-trip lever cluster hedging tests lean on.
func DefaultRegistry(worldSeed int64) map[string]Tenant {
	reg := make(map[string]Tenant)
	for _, c := range host.DefaultMix() {
		reg[c.Tenant.Name] = Tenant{Workload: c.Tenant, Iso: c.Iso}
	}
	iso := faas.Config{Name: "HFI", Scheme: sfi.HFI, World: hostcall.NewWorld(uint64(worldSeed))}
	for _, te := range workloads.HostcallTenants() {
		reg[te.Name] = Tenant{Workload: te, Iso: iso}
	}
	reg["faulty"] = Tenant{Workload: workloads.TrapTenant("faulty"), Iso: faas.StockLucet()}
	return reg
}

// RegistryMix is the traffic the load harness offers a front: one
// equal-weight class per registered tenant, in name order, so the schedule
// drawn over it is the same for every server built from the same registry.
// The "faulty" trap tenant is excluded: sweeps and baselines measure the
// healthy serving path, and faults there are driven explicitly by tests.
func RegistryMix(reg map[string]Tenant) []host.Class {
	mix := make([]host.Class, 0, len(reg))
	for name, te := range reg {
		if name == "faulty" {
			continue
		}
		w := te.Workload
		w.Name = name
		mix = append(mix, host.Class{Weight: 1, Tenant: w, Iso: te.Iso})
	}
	sort.Slice(mix, func(i, j int) bool { return mix[i].Tenant.Name < mix[j].Tenant.Name })
	return mix
}
