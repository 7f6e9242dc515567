// Package chaos is a deterministic, seeded fault injector for the serving
// layer (internal/host). It exists to answer the question the happy-path
// demo never asks: what happens when provisioning fails transiently, a
// guest traps mid-request, a worker stalls, or a faulted instance comes
// back with state its Reset failed to clear?
//
// Every decision is a pure function of (seed, fault class, tenant, seq) —
// an FNV-1a hash, not a sequential PRNG draw — so the fault schedule is
// identical no matter how goroutines interleave. That is what makes
// chaos soaks reproducible: the same seed yields the same set of trapped,
// starved, and rejected requests on every run, on every machine, under any
// worker count (the reproducibility discipline the gem5 refresh argues
// robustness experiments need). Decision methods are nil-safe: a nil
// *Injector injects nothing, so the host's hot path carries no
// chaos-enabled branch.
//
// The injector covers the seams the host already has:
//
//   - Provision/ProvisionShared errors — ProvisionError fails the first
//     k(tenant) attempts of every provisioning call with a transient error
//     (retryable; see faas.IsTransient), exercising the host's
//     backoff-and-retry path.
//   - Admission-time verifier rejections — RejectAtAdmission refuses a
//     deterministic subset of requests before they touch a sandbox,
//     exercising the StatusRejected taxonomy.
//   - Guest traps — Trap marks requests that abort mid-run with a fault
//     and mid-request garbage in the heap, exercising quarantine + Reset.
//   - Fuel exhaustion — StarveFuel shrinks the instruction budget so the
//     request genuinely stops with cpu.StopLimit (the timeout path).
//   - Worker slowdowns — SlowDown adds wall latency to a request's
//     dispatch, exercising queueing, backpressure, and fairness.
//   - Poisoned instances — Poison marks faults whose instance keeps
//     corrupted state even after Reset, exercising the host's verified
//     reset (heap-hash check) and quarantine discard.
//   - Hostcall-layer faults — Hostcall arms one of the hostcall
//     environment's fault modes for a request (a transient resource
//     error, quota exhaustion, or a slow host call), exercising guests'
//     errno handling without ever breaching the isolation boundary.
//
// Below the serving seams, the substrate classes inject faults into the
// simulator layers themselves — the state the serving stack trusts without
// looking (see DESIGN.md "Fault model and recovery" for the taxonomy):
//
//   - Bit flips — BitFlip strikes guest heap pages during the request's
//     idle window; the host's sampled end-of-request heap-hash spot check
//     (SpotCheck) either catches the corruption or the strike lands in
//     cold reservation pages and stays benign.
//   - Stale translations — TLBStale suppresses a page-decision-cache
//     invalidation, leaving a cached translation tagged for a generation
//     its source never issued; the generation cross-audit detects the
//     impossible tag.
//   - Clock skew — ClockSkew drifts a worker's simulated clock against
//     the kernel's audit rail; differential drift is caught at the next
//     segment boundary, common-mode drift is invisible and benign.
//   - Lowering rot — LoweringRot corrupts a tiered engine's cached gate
//     verdicts (the hoisted per-block safety decisions); the gate audit
//     re-derives freshness from the generation tags and invalidates.
//
// Substrate decisions are drawn exactly like the serving-seam ones —
// pure functions of (seed, class, tenant, seq) with sub-parameters
// (placement, bit, mode, magnitude) drawn from suffixed-tenant keys — so
// a reference predictor can compute the exact detection schedule without
// running the host.
package chaos

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"hfi/internal/hostcall"
)

// Fault enumerates the injectable fault classes.
type Fault uint8

// Fault classes.
const (
	FaultProvision Fault = iota // transient provisioning failure
	FaultReject                 // transient verifier rejection at admission
	FaultTrap                   // guest trap mid-request
	FaultFuel                   // fuel starvation (timeout path)
	FaultSlow                   // worker slowdown
	FaultPoison                 // post-Reset instance corruption
	FaultHostcall               // hostcall-layer fault (error/quota/slow)

	// Substrate classes: faults below the serving seams, in the state the
	// simulator layers trust (PR 9).
	FaultBitFlip     // bit flip in guest heap pages
	FaultTLBStale    // suppressed page-decision-cache invalidation
	FaultClockSkew   // worker clock drift against the kernel audit rail
	FaultLoweringRot // corrupted tier-gate verdict cache

	// Cluster classes: faults between the router tier and its shards
	// (queried by internal/cluster, inert at the single-host tier).
	FaultShardKill // SIGKILL a shard subprocess mid-load
	FaultPartition // sever the router↔shard link for a window of attempts
	numFaults
)

var faultNames = [...]string{
	"provision", "reject", "trap", "fuel", "slow", "poison", "hostcall",
	"bitflip", "tlbstale", "clockskew", "loweringrot",
	"shardkill", "partition",
}

// Classes returns every fault class in declaration order.
func Classes() []Fault {
	all := make([]Fault, numFaults)
	for i := range all {
		all[i] = Fault(i)
	}
	return all
}

// FaultByName resolves a class name as printed by String().
func FaultByName(name string) (Fault, bool) {
	for i, n := range faultNames {
		if n == name {
			return Fault(i), true
		}
	}
	return 0, false
}

// ParseClasses parses a comma-separated list of class names (as printed by
// String()) into fault classes. Empty elements are ignored.
func ParseClasses(s string) ([]Fault, error) {
	var out []Fault
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ',' {
			continue
		}
		name := strings.TrimSpace(s[start:i])
		start = i + 1
		if name == "" {
			continue
		}
		f, ok := FaultByName(name)
		if !ok {
			return nil, fmt.Errorf("chaos: unknown fault class %q (have %s)", name, strings.Join(faultNames[:], ", "))
		}
		out = append(out, f)
	}
	return out, nil
}

func (f Fault) String() string {
	if int(f) < len(faultNames) {
		return faultNames[f]
	}
	return fmt.Sprintf("fault(%d)", uint8(f))
}

// Config sets the per-class injection rates. All rates are probabilities
// in [0, 1] evaluated per (tenant, seq) — or per tenant for provisioning.
type Config struct {
	Seed int64

	// Provision is the fraction of tenants whose provisioning calls fail
	// transiently; an affected tenant's calls fail the first k attempts
	// (1 ≤ k ≤ MaxProvisionFails) and then succeed, so a host retrying at
	// least MaxProvisionFails times always provisions eventually.
	Provision         float64
	MaxProvisionFails int // default 2

	// Reject is the per-request probability of a transient verifier
	// rejection at admission.
	Reject float64

	// Trap is the per-request probability of an injected guest trap.
	Trap float64

	// Fuel is the per-request probability of fuel starvation; a starved
	// request runs with StarvedFuel instead of its configured budget.
	Fuel        float64
	StarvedFuel uint64 // default 64 instructions

	// Slow is the per-request probability of a worker slowdown of SlowFor.
	Slow    float64
	SlowFor time.Duration // default 2ms

	// Poison is the probability that a faulted request leaves its instance
	// corrupted even after Reset (the incomplete-reset bug the quarantine
	// hash check must catch).
	Poison float64

	// Hostcall is the per-request probability of an injected
	// hostcall-layer fault. Affected requests draw a submode uniformly:
	// a one-shot transient resource error (EIO), quota exhaustion on
	// kv_put (EDQUOT), or a slow host call (extra simulated latency).
	// Only the first two can change a guest's observable output; a slow
	// call shifts simulated time alone.
	Hostcall float64

	// BitFlip is the per-request probability of a bit flip striking the
	// instance's guest heap during the request's idle window. A flip is
	// caught exactly when the request is spot-checked (SpotCheck below):
	// the strike then lands in a live initial-heap page the verified
	// reset hashes. Unchecked flips land in cold reservation pages beyond
	// the initial heap (or self-correct as transient upsets when no such
	// tail exists) and stay undetected-benign.
	BitFlip float64

	// SpotCheck is the detection-side sampling rate of end-of-request
	// heap-hash spot checks (a verified reset plus a cost-modeled hash of
	// the initial heap pages). It is not a fault class: with BitFlip = 0
	// a spot check only re-verifies a clean instance. Zero disables spot
	// checks entirely — injected flips are then all undetected-benign.
	SpotCheck float64

	// TLBStale is the per-request probability of a suppressed
	// page-decision-cache invalidation: the instance's data-translation
	// cache is left holding a generation tag its sources never issued. A
	// live plant (valid entry) is caught by the end-of-request generation
	// cross-audit; a dead plant (the entry was already invalid) is benign.
	TLBStale float64

	// ClockSkew is the per-request probability of skewing the instance's
	// simulated clock. Differential skew (worker rail only) is caught by
	// the drift audit at the next segment boundary; common-mode skew
	// (both rails) is invisible and benign. The magnitude is drawn
	// deterministically in (0, SkewNs].
	ClockSkew float64
	SkewNs    uint64 // default 40µs

	// LoweringRot is the per-request probability of corrupting the
	// instance's tiered-engine gate cache (a flipped block verdict plus
	// forged gate generation tags). Live rot claims verdicts for
	// generations that have not happened and is caught by the gate audit;
	// dead rot strikes a dead gate whose verdicts are recomputed
	// before any fused block trusts them, and is benign. Drawn only for
	// instances that actually carry a lowering.
	LoweringRot float64

	// ShardKill is the per-(shard, tick) probability that the cluster
	// soak driver SIGKILLs the shard subprocess at that tick. The router
	// must absorb the loss: eject the member, migrate its placements, and
	// re-route in-flight failures — conservation is judged fleet-wide.
	ShardKill float64

	// Partition is the per-(shard, window) probability that the
	// router↔shard link is severed for PartitionTicks consecutive
	// attempts. Severing happens in the router's transport *before* a
	// connection is dialed, so a partitioned attempt never reaches shard
	// admission — which keeps the delivered==admitted ledger exact.
	Partition      float64
	PartitionTicks int // attempts per partition decision window, default 4
}

// Restrict returns a copy of cfg with the injection rate of every fault
// class not in keep zeroed. Detection-side knobs (SpotCheck) and
// sub-parameters are preserved.
func (cfg Config) Restrict(keep []Fault) Config {
	on := [numFaults]bool{}
	for _, f := range keep {
		if int(f) < int(numFaults) {
			on[f] = true
		}
	}
	out := cfg
	if !on[FaultProvision] {
		out.Provision = 0
	}
	if !on[FaultReject] {
		out.Reject = 0
	}
	if !on[FaultTrap] {
		out.Trap = 0
	}
	if !on[FaultFuel] {
		out.Fuel = 0
	}
	if !on[FaultSlow] {
		out.Slow = 0
	}
	if !on[FaultPoison] {
		out.Poison = 0
	}
	if !on[FaultHostcall] {
		out.Hostcall = 0
	}
	if !on[FaultBitFlip] {
		out.BitFlip = 0
	}
	if !on[FaultTLBStale] {
		out.TLBStale = 0
	}
	if !on[FaultClockSkew] {
		out.ClockSkew = 0
	}
	if !on[FaultLoweringRot] {
		out.LoweringRot = 0
	}
	if !on[FaultShardKill] {
		out.ShardKill = 0
	}
	if !on[FaultPartition] {
		out.Partition = 0
	}
	return out
}

// Injector makes deterministic fault decisions and counts what it injected.
// All methods are safe for concurrent use and nil-safe (a nil injector
// never injects).
type Injector struct {
	cfg    Config
	counts [numFaults]atomic.Uint64
}

// New builds an injector from cfg, applying defaults for zero knobs.
func New(cfg Config) *Injector {
	if cfg.MaxProvisionFails <= 0 {
		cfg.MaxProvisionFails = 2
	}
	if cfg.StarvedFuel == 0 {
		cfg.StarvedFuel = 64
	}
	if cfg.SlowFor == 0 {
		cfg.SlowFor = 2 * time.Millisecond
	}
	if cfg.SkewNs == 0 {
		cfg.SkewNs = 40_000
	}
	if cfg.PartitionTicks <= 0 {
		cfg.PartitionTicks = 4
	}
	return &Injector{cfg: cfg}
}

// DefaultConfig is the standard moderate-rate chaos configuration: every
// fault class active, none dominant. Callers that want a subset of the
// classes compose it with Restrict (the hfiserve -chaos-classes path).
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:      seed,
		Provision: 0.5, MaxProvisionFails: 2,
		Reject: 0.02,
		Trap:   0.05,
		Fuel:   0.05,
		Slow:   0.05, SlowFor: time.Millisecond,
		Poison:   0.5,
		Hostcall: 0.05,
		BitFlip:  0.05, SpotCheck: 0.5,
		TLBStale:  0.04,
		ClockSkew: 0.04, SkewNs: 40_000,
		LoweringRot: 0.04,
	}
}

// Default is the standard moderate-rate injector the hfiserve -chaos flag
// and the soak tests use: New over DefaultConfig.
func Default(seed int64) *Injector { return New(DefaultConfig(seed)) }

// Seed echoes the injector's seed (for reproducibility records).
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.cfg.Seed
}

// FaultError is the typed error of injected provisioning failures and
// admission rejections. It implements Transient() so faas.IsTransient
// classifies it as retryable.
type FaultError struct {
	Class   Fault
	Tenant  string
	Attempt int
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("chaos: injected %s fault (tenant %s, attempt %d)", e.Class, e.Tenant, e.Attempt)
}

// Transient marks injected faults as retryable (see faas.IsTransient).
func (e *FaultError) Transient() bool { return true }

// roll returns the deterministic uniform [0,1) draw for one decision.
// FNV-1a over (seed, class, tenant, seq): pure, order-independent,
// goroutine-independent.
func (in *Injector) roll(class Fault, tenant string, seq int) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for sh := 0; sh < 64; sh += 8 {
		mix(byte(uint64(in.cfg.Seed) >> sh))
	}
	mix(byte(class))
	for i := 0; i < len(tenant); i++ {
		mix(tenant[i])
	}
	for sh := 0; sh < 64; sh += 8 {
		mix(byte(uint64(seq) >> sh))
	}
	return float64(h>>11) / float64(uint64(1)<<53)
}

// provisionFails returns how many consecutive attempts of tenant's
// provisioning calls fail before one succeeds (0 for unaffected tenants).
func (in *Injector) provisionFails(tenant string) int {
	if in.roll(FaultProvision, tenant, 0) >= in.cfg.Provision {
		return 0
	}
	// 1..MaxProvisionFails, drawn from an independent decision.
	k := int(in.roll(FaultProvision, tenant, 1) * float64(in.cfg.MaxProvisionFails))
	return k + 1
}

// ProvisionError fails the attempt'th try (0-based) of a provisioning call
// for tenant, or returns nil. Affected tenants fail a fixed prefix of
// attempts, so a host retrying ≥ MaxProvisionFails times always succeeds —
// which keeps chaos-soak outcome counts deterministic.
func (in *Injector) ProvisionError(tenant string, attempt int) error {
	if in == nil || attempt >= in.provisionFails(tenant) {
		return nil
	}
	in.counts[FaultProvision].Add(1)
	return &FaultError{Class: FaultProvision, Tenant: tenant, Attempt: attempt}
}

// RejectAtAdmission returns a transient verifier-rejection error for the
// chosen requests, nil otherwise. The host surfaces it as StatusRejected
// without provisioning anything.
func (in *Injector) RejectAtAdmission(tenant string, seq int) error {
	if in == nil || in.roll(FaultReject, tenant, seq) >= in.cfg.Reject {
		return nil
	}
	in.counts[FaultReject].Add(1)
	return &FaultError{Class: FaultReject, Tenant: tenant, Attempt: seq}
}

// Trap reports whether the request aborts with an injected guest trap.
func (in *Injector) Trap(tenant string, seq int) bool {
	if in == nil || in.roll(FaultTrap, tenant, seq) >= in.cfg.Trap {
		return false
	}
	in.counts[FaultTrap].Add(1)
	return true
}

// StarveFuel returns the starved instruction budget for the chosen
// requests (ok=true), forcing a genuine cpu.StopLimit timeout.
func (in *Injector) StarveFuel(tenant string, seq int) (uint64, bool) {
	if in == nil || in.roll(FaultFuel, tenant, seq) >= in.cfg.Fuel {
		return 0, false
	}
	in.counts[FaultFuel].Add(1)
	return in.cfg.StarvedFuel, true
}

// SlowDown returns the extra dispatch wall time injected into the request
// (0 for most).
func (in *Injector) SlowDown(tenant string, seq int) time.Duration {
	if in == nil || in.roll(FaultSlow, tenant, seq) >= in.cfg.Slow {
		return 0
	}
	in.counts[FaultSlow].Add(1)
	return in.cfg.SlowFor
}

// Poison reports whether the faulted request leaves its instance corrupted
// after Reset. Only meaningful on requests that faulted or timed out.
func (in *Injector) Poison(tenant string, seq int) bool {
	if in == nil || in.roll(FaultPoison, tenant, seq) >= in.cfg.Poison {
		return false
	}
	in.counts[FaultPoison].Add(1)
	return true
}

// Hostcall returns the hostcall-layer fault armed for the request
// (hostcall.FaultNone for most). An affected request draws its submode —
// transient error, quota exhaustion, slow call — from an independent
// deterministic decision, so the full fault schedule is still a pure
// function of (seed, tenant, seq).
func (in *Injector) Hostcall(tenant string, seq int) hostcall.Fault {
	if in == nil || in.roll(FaultHostcall, tenant, seq) >= in.cfg.Hostcall {
		return hostcall.FaultNone
	}
	in.counts[FaultHostcall].Add(1)
	switch m := in.roll(FaultHostcall, tenant+"/mode", seq); {
	case m < 1.0/3:
		return hostcall.FaultErr
	case m < 2.0/3:
		return hostcall.FaultQuota
	default:
		return hostcall.FaultSlow
	}
}

// BitFlip reports whether a bit flip strikes the instance's guest heap
// during this request's idle window.
func (in *Injector) BitFlip(tenant string, seq int) bool {
	if in == nil || in.roll(FaultBitFlip, tenant, seq) >= in.cfg.BitFlip {
		return false
	}
	in.counts[FaultBitFlip].Add(1)
	return true
}

// BitFlipSpec returns the deterministic placement of an injected flip: a
// uniform [0,1) draw the host scales to a heap offset, and a single-bit
// mask. Pure sub-draws on suffixed keys, so the flip's landing site is as
// interleaving-independent as the decision to flip.
func (in *Injector) BitFlipSpec(tenant string, seq int) (place float64, mask byte) {
	if in == nil {
		return 0, 1
	}
	place = in.roll(FaultBitFlip, tenant+"/at", seq)
	mask = 1 << uint(in.roll(FaultBitFlip, tenant+"/bit", seq)*8)
	return place, mask
}

// SpotCheck reports whether this request draws an end-of-request heap-hash
// spot check. Detection-side sampling, not a fault class: it is never
// counted in the fault summary.
func (in *Injector) SpotCheck(tenant string, seq int) bool {
	if in == nil {
		return false
	}
	return in.roll(FaultBitFlip, tenant+"/spot", seq) < in.cfg.SpotCheck
}

// TLBStale reports whether to plant a suppressed page-decision-cache
// invalidation on this request's instance, and whether the plant is live
// (a valid stale entry the generation cross-audit must catch) or dead (the
// entry was already invalid — undetectable and benign).
func (in *Injector) TLBStale(tenant string, seq int) (live, ok bool) {
	if in == nil || in.roll(FaultTLBStale, tenant, seq) >= in.cfg.TLBStale {
		return false, false
	}
	in.counts[FaultTLBStale].Add(1)
	return in.roll(FaultTLBStale, tenant+"/mode", seq) < 0.5, true
}

// ClockSkew returns the simulated-clock skew injected after this request
// (ok=true), its deterministic magnitude in (0, SkewNs], and whether it is
// differential (live=true: only the worker rail drifts, so the segment-
// boundary drift audit catches it) or common-mode (both rails drift
// together — invisible, benign).
func (in *Injector) ClockSkew(tenant string, seq int) (ns uint64, live, ok bool) {
	if in == nil || in.roll(FaultClockSkew, tenant, seq) >= in.cfg.ClockSkew {
		return 0, false, false
	}
	in.counts[FaultClockSkew].Add(1)
	ns = 1 + uint64(in.roll(FaultClockSkew, tenant+"/ns", seq)*float64(in.cfg.SkewNs))
	return ns, in.roll(FaultClockSkew, tenant+"/mode", seq) < 0.5, true
}

// LoweringRot reports whether to corrupt the instance's tier-gate cache
// (ok=true), which cached block verdict to flip (pick, reduced modulo the
// block count by the engine), and whether the rot is live (forged gate
// tags claiming future generations — the gate audit must catch it) or
// dead (rot in a dead gate whose verdicts are recomputed before use —
// benign). Callers must only draw this for instances that carry a
// lowering, so the injected count equals the applied count.
func (in *Injector) LoweringRot(tenant string, seq int) (pick uint64, live, ok bool) {
	if in == nil || in.roll(FaultLoweringRot, tenant, seq) >= in.cfg.LoweringRot {
		return 0, false, false
	}
	in.counts[FaultLoweringRot].Add(1)
	pick = uint64(in.roll(FaultLoweringRot, tenant+"/block", seq) * (1 << 30))
	return pick, in.roll(FaultLoweringRot, tenant+"/mode", seq) < 0.5, true
}

// Clean reports whether the request runs to normal completion under this
// injector AND produces its fault-free output: no trap, no fuel
// starvation, no admission rejection, no hostcall fault that can change
// what the guest computes (an error or quota submode; a slow call only
// shifts time), and no substrate fault drawn for the request (a detected
// substrate fault replaces the response with a typed fault; an undetected
// one is excluded conservatively). Slowdowns, provisioning retries, and
// poisoning change timing and pool churn but not the request's outcome.
// Reference checksum computations use this to know which response bodies
// a chaos run must still produce bit-identically.
func (in *Injector) Clean(tenant string, seq int) bool {
	if in == nil {
		return true
	}
	if in.roll(FaultHostcall, tenant, seq) < in.cfg.Hostcall &&
		in.roll(FaultHostcall, tenant+"/mode", seq) < 2.0/3 {
		return false
	}
	if in.roll(FaultBitFlip, tenant, seq) < in.cfg.BitFlip ||
		in.roll(FaultTLBStale, tenant, seq) < in.cfg.TLBStale ||
		in.roll(FaultClockSkew, tenant, seq) < in.cfg.ClockSkew ||
		in.roll(FaultLoweringRot, tenant, seq) < in.cfg.LoweringRot {
		return false
	}
	return in.roll(FaultTrap, tenant, seq) >= in.cfg.Trap &&
		in.roll(FaultFuel, tenant, seq) >= in.cfg.Fuel &&
		in.roll(FaultReject, tenant, seq) >= in.cfg.Reject
}

// ShardKill reports whether the cluster soak driver kills shard at tick —
// one pure draw per (shard, tick), same FNV scheme as every other class,
// so two same-seed runs kill the same shards at the same points.
func (in *Injector) ShardKill(shard string, tick int) bool {
	if in == nil || in.roll(FaultShardKill, shard, tick) >= in.cfg.ShardKill {
		return false
	}
	in.counts[FaultShardKill].Add(1)
	return true
}

// Partition reports whether the router↔shard link is severed for the
// attempt numbered tick. Decisions are blocked into windows of
// PartitionTicks consecutive attempts sharing one draw, so a partition
// presents as a burst of transport failures (a network event), not
// independent single-packet drops. Counted per severed attempt, which
// makes the summary directly comparable to the router's transport-error
// ledger.
func (in *Injector) Partition(shard string, tick int) bool {
	if in == nil || in.cfg.Partition <= 0 {
		return false
	}
	if in.roll(FaultPartition, shard, tick/in.cfg.PartitionTicks) >= in.cfg.Partition {
		return false
	}
	in.counts[FaultPartition].Add(1)
	return true
}

// Summary counts injected faults by class.
type Summary struct {
	Provision   uint64 `json:"provision"`
	Reject      uint64 `json:"reject"`
	Trap        uint64 `json:"trap"`
	Fuel        uint64 `json:"fuel"`
	Slow        uint64 `json:"slow"`
	Poison      uint64 `json:"poison"`
	Hostcall    uint64 `json:"hostcall"`
	BitFlip     uint64 `json:"bitflip"`
	TLBStale    uint64 `json:"tlbstale"`
	ClockSkew   uint64 `json:"clockskew"`
	LoweringRot uint64 `json:"loweringrot"`
	ShardKill   uint64 `json:"shardkill"`
	Partition   uint64 `json:"partition"`
}

// Total sums all injected faults.
func (s Summary) Total() uint64 {
	return s.Provision + s.Reject + s.Trap + s.Fuel + s.Slow + s.Poison + s.Hostcall +
		s.BitFlip + s.TLBStale + s.ClockSkew + s.LoweringRot +
		s.ShardKill + s.Partition
}

// Add accumulates o into s (for aggregating per-run snapshots).
func (s *Summary) Add(o Summary) {
	s.Provision += o.Provision
	s.Reject += o.Reject
	s.Trap += o.Trap
	s.Fuel += o.Fuel
	s.Slow += o.Slow
	s.Poison += o.Poison
	s.Hostcall += o.Hostcall
	s.BitFlip += o.BitFlip
	s.TLBStale += o.TLBStale
	s.ClockSkew += o.ClockSkew
	s.LoweringRot += o.LoweringRot
	s.ShardKill += o.ShardKill
	s.Partition += o.Partition
}

// Snapshot reports how many faults of each class were actually injected so
// far (decisions that returned "inject", counted once per query).
func (in *Injector) Snapshot() Summary {
	if in == nil {
		return Summary{}
	}
	return Summary{
		Provision:   in.counts[FaultProvision].Load(),
		Reject:      in.counts[FaultReject].Load(),
		Trap:        in.counts[FaultTrap].Load(),
		Fuel:        in.counts[FaultFuel].Load(),
		Slow:        in.counts[FaultSlow].Load(),
		Poison:      in.counts[FaultPoison].Load(),
		Hostcall:    in.counts[FaultHostcall].Load(),
		BitFlip:     in.counts[FaultBitFlip].Load(),
		TLBStale:    in.counts[FaultTLBStale].Load(),
		ClockSkew:   in.counts[FaultClockSkew].Load(),
		LoweringRot: in.counts[FaultLoweringRot].Load(),
		ShardKill:   in.counts[FaultShardKill].Load(),
		Partition:   in.counts[FaultPartition].Load(),
	}
}
