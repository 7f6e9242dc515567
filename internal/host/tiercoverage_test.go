package host

import (
	"testing"

	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/sandbox"
)

// TestTierCoverageDefaultMix is the coverage gate for the tiered engine:
// every class of the default serving mix, provisioned the way a host worker
// provisions it, must retire at least 99 % of its guest instructions fused.
// Under guard pages and HFI implicit regions most heap accesses carry no
// verifier window; they run as checked ops over the page-decision cache,
// and a lowering that ended its fused prefix at each of them would leave
// half or more of every request to the interpreter.
func TestTierCoverageDefaultMix(t *testing.T) {
	const requests = 4
	images := sandbox.NewCodeCache()
	for _, c := range DefaultMix() {
		ti, err := faas.ProvisionShared(c.Tenant, c.Iso, images)
		if err != nil {
			t.Fatal(err)
		}
		ti.TierCountersDelta() // provisioning runs no guest code; start clean
		for seq := 0; seq < requests; seq++ {
			if _, res := ti.ServeRequest(seq, 0); res.Reason != cpu.StopHalt {
				t.Fatalf("%s/%s request %d: stop %v", c.Tenant.Name, c.Iso.Name, seq, res.Reason)
			}
		}
		tc := ti.TierCountersDelta()
		total := tc.TieredInstrs + tc.InterpInstrs
		if total == 0 {
			t.Fatalf("%s/%s retired nothing", c.Tenant.Name, c.Iso.Name)
		}
		share := float64(tc.InterpInstrs) / float64(total)
		t.Logf("%s/%s: %d instrs, interpreted share %.4f", c.Tenant.Name, c.Iso.Name, total, share)
		if share > 0.01 {
			t.Errorf("%s/%s: %.1f %% of %d instructions interpreted, want <= 1 %%",
				c.Tenant.Name, c.Iso.Name, 100*share, total)
		}
	}
}
