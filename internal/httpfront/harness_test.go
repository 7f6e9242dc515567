package httpfront_test

// In the external test package because internal/loadgen imports
// internal/httpfront.

import (
	"context"
	"testing"

	"hfi/internal/host"
	"hfi/internal/httpfront"
	"hfi/internal/loadgen"
)

// TestOpenLoopHTTPGenerator: the load harness's open loop produces a
// conserving point against a live front through the typed client, over an
// equal-weight mix of every registered tenant but the trap one.
func TestOpenLoopHTTPGenerator(t *testing.T) {
	reg := httpfront.DefaultRegistry(1)
	mix := httpfront.RegistryMix(reg)
	if len(mix) != len(reg)-1 {
		t.Fatalf("registry mix has %d classes, want all %d tenants but \"faulty\"", len(mix), len(reg))
	}
	tgt, err := loadgen.Shard(host.Config{Workers: 2, QueueDepth: 4, Policy: host.PolicyShed}, reg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := loadgen.Run(context.Background(), tgt, host.BuildSchedule(mix, 50, 42), loadgen.Pacing{Rate: 500, Seed: 42})
	if cerr := tgt.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err) // a transport failure, an unmapped status code, or a ledger that does not conserve
	}
	if pt.OK == 0 || pt.Faults != 0 {
		t.Fatalf("moderate load over healthy tenants: %+v", pt)
	}
	for _, c := range mix {
		if pt.OfferedByTenant[c.Tenant.Name] == 0 {
			t.Errorf("tenant %s was never offered a request", c.Tenant.Name)
		}
	}
}
