// Package faas simulates the Wasm function-as-a-service platform of §6.3
// and Table 1: a single-core server dispatching requests to per-tenant
// sandboxes, measuring request latency (average and tail), throughput, and
// the sandbox lifecycle costs (setup, teardown, batching).
package faas

import (
	"errors"
	"fmt"

	"hfi/internal/cpu"
	"hfi/internal/hostcall"
	"hfi/internal/isa"
	"hfi/internal/kernel"
	"hfi/internal/sandbox"
	"hfi/internal/sfi"
	"hfi/internal/stats"
	"hfi/internal/tier"
	"hfi/internal/wasm"
	"hfi/internal/workloads"
)

// Config selects the platform's isolation configuration — one Table 1 row.
type Config struct {
	Name   string
	Scheme sfi.Scheme
	// Swivel applies the software Spectre-hardening pass.
	Swivel bool
	// HFINative wraps instances in a serialized HFI native sandbox.
	HFINative bool
	// World is the shared hostcall resource universe (clock seeds, the
	// cross-instance KV store) tenants provisioned under this config talk
	// to. nil gives each instance a private default world, which keeps
	// pure-compute configs comparable as map keys and zero-config.
	World *hostcall.World
}

// StockLucet is the unprotected baseline (Table 1's Lucet(Unsafe)).
func StockLucet() Config { return Config{Name: "Lucet(Unsafe)", Scheme: sfi.GuardPages} }

// LucetHFI is guard-page Wasm wrapped in a serialized HFI native sandbox.
func LucetHFI() Config {
	return Config{Name: "Lucet+HFI", Scheme: sfi.GuardPages, HFINative: true}
}

// LucetSwivel is guard-page Wasm hardened with the Swivel-like pass.
func LucetSwivel() Config {
	return Config{Name: "Lucet+Swivel", Scheme: sfi.GuardPages, Swivel: true}
}

// Result summarizes one tenant's run under one configuration.
type Result struct {
	Tenant     string
	Config     string
	Requests   int
	AvgLatNs   float64
	TailLatNs  float64 // p99
	Throughput float64 // requests per simulated second
	BinBytes   uint64
	// Checksum is the order-independent digest of every response body
	// (see HashResponse); identical request sets must produce identical
	// checksums on any engine, scheme, or host, concurrent or not.
	Checksum uint64
}

// DispatchOverheadNs models the per-request platform work outside the
// sandbox (network receive, routing, response send).
const DispatchOverheadNs = 20_000

// TenantInstance is one provisioned warm instance: a private machine and
// runtime, the tenant's instantiated module, and an execution engine. It is
// the unit of pooling for the concurrent host (internal/host) and the unit
// ServeTenant drives single-threaded, so both paths share one construction
// and one per-request code path. A TenantInstance is not safe for
// concurrent use; confine it to one goroutine at a time.
type TenantInstance struct {
	Tenant workloads.Tenant
	Cfg    Config
	RT     *sandbox.Runtime
	Inst   *sandbox.Instance
	Eng    cpu.Engine
	// Env is the instance's hostcall environment, bound at provisioning
	// for modules that talk to the host; nil for pure-compute tenants.
	Env *hostcall.Env

	pendingFault hostcall.Fault
}

// Images is the process-wide code-image cache behind Provision. Every
// provision runs on a fresh machine, so the allocator hands identical
// layouts to identical (tenant, config) provisions; the first one compiles
// and verifies, the rest share the immutable image. No serving code uses
// it: each host.Server owns its own cache and passes it to
// ProvisionShared. It stays for the benchmark module and single-tenant
// experiment drivers.
var Images = sandbox.NewCodeCache()

// transienter is the opt-in interface for retryable provisioning errors.
type transienter interface{ Transient() bool }

// IsTransient reports whether a provisioning error is transient — worth
// retrying with backoff — as opposed to a deterministic compile or
// verification failure, which will fail identically forever. Errors opt in
// by implementing interface{ Transient() bool } anywhere in their chain;
// the chaos injector's provisioning faults do, real compile/verifier
// errors do not.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(transienter); ok {
			return t.Transient()
		}
		err = errors.Unwrap(err)
	}
	return false
}

// Provision instantiates tenant under cfg on a fresh machine and returns
// the warm instance ready to serve requests, sharing code images through
// the process-wide Images cache. No serving code uses it; see Images.
func Provision(tenant workloads.Tenant, cfg Config) (*TenantInstance, error) {
	return ProvisionShared(tenant, cfg, Images)
}

// ProvisionShared is Provision with an explicit image cache, the one every
// host.Server worker calls with its server's cache. A nil cache compiles
// privately: the instance's runtime gets a cache of its own.
func ProvisionShared(tenant workloads.Tenant, cfg Config, images *sandbox.CodeCache) (*TenantInstance, error) {
	rt := sandbox.NewRuntime()
	rt.Serialized = cfg.HFINative
	rt.WrapNative = cfg.HFINative
	rt.Images = images
	inst, err := rt.Instantiate(tenant.Mod, cfg.Scheme, wasm.Options{Swivel: cfg.Swivel})
	if err != nil {
		return nil, fmt.Errorf("faas: %s/%s: %w", tenant.Name, cfg.Name, err)
	}
	// The tiered engine over the shared lowering when the image carries
	// facts; it is cycle-exact with the plain interpreter (the sandbox
	// differential corpus gate proves it), so the engine choice is purely
	// a host-throughput decision. With no facts the engine delegates every
	// run to the interpreter anyway.
	ti := &TenantInstance{
		Tenant: tenant, Cfg: cfg,
		RT: rt, Inst: inst, Eng: tier.NewEngine(cpu.NewInterp(rt.M), inst.Lowered),
	}
	if tenant.Mod != nil && tenant.Mod.UsesHostcalls() {
		world := cfg.World
		if world == nil {
			world = hostcall.NewWorld(1)
		}
		ti.Env = world.NewEnv(tenant.Name)
		ti.Env.Bind(rt.M, inst.HeapBase, inst.C.MaxHeapBytes())
	}
	return ti, nil
}

// TierCountersDelta harvests the tiered engine's activity since the last
// harvest (gate-admitted blocks, tiered-vs-interpreted retirement). Zero for engines
// that are not tiered (differential tests hand-build interpreters).
func (ti *TenantInstance) TierCountersDelta() stats.TierCounters {
	te, ok := ti.Eng.(*tier.Engine)
	if !ok {
		return stats.TierCounters{}
	}
	p, t, i := te.TakeCounters()
	return stats.TierCounters{PromotedBlocks: p, TieredInstrs: t, InterpInstrs: i}
}

// ArmHostcallFault schedules a chaos fault for the next request served on
// this instance (the injector's hostcall seam). It is consumed by the next
// ServeBody/ServeRequest and is a no-op for pure-compute tenants.
func (ti *TenantInstance) ArmHostcallFault(f hostcall.Fault) {
	if ti.Env != nil {
		ti.pendingFault = f
	}
}

// ServeRequest runs the seq'th request of the tenant's stream on the warm
// instance with the given instruction budget (0 = unlimited). On a normal
// halt it returns the response body; otherwise the body is nil and the
// caller decides between surfacing a timeout (StopLimit) and a fault. The
// simulated clock advances by the dispatch overhead plus guest time.
func (ti *TenantInstance) ServeRequest(seq int, fuel uint64) ([]byte, cpu.RunResult) {
	return ti.ServeBody(ti.Tenant.MakeRequest(seq), fuel)
}

// ServeBody runs one request with an externally supplied request body —
// the HTTP front-end's path, where the payload arrives over the wire
// instead of from the tenant's synthetic request stream. The guest sees
// the body at workloads.InputOffset exactly as it would a generated one.
func (ti *TenantInstance) ServeBody(req []byte, fuel uint64) ([]byte, cpu.RunResult) {
	ti.RT.M.Kern.Clock.Advance(DispatchOverheadNs)
	if ti.Env != nil {
		ti.Env.BeginRequest(req)
		ti.Env.InjectFault(ti.pendingFault)
		ti.pendingFault = hostcall.FaultNone
	}
	if !ti.Tenant.Stream {
		ti.Inst.WriteHeap(workloads.InputOffset, req)
	}
	res, outLen := ti.Inst.Invoke(ti.Eng, fuel, uint64(len(req)))
	if res.Reason != cpu.StopHalt {
		return nil, res
	}
	if ti.Tenant.Stream {
		// The guest answered through fd 1; Env.ResponseBody aliases the
		// environment's buffer, so detach it before the instance is reused.
		return append([]byte(nil), ti.Env.ResponseBody()...), res
	}
	return ti.Inst.ReadHeap(workloads.OutputOffset, int(outLen)), res
}

// HashResponse digests one response for the engine-equivalence invariant:
// FNV-1a over the request sequence number and the response body. Combine
// per-request hashes with XOR so the aggregate is independent of completion
// order — a concurrent host finishing requests out of order must still match
// a single-threaded run over the same request set.
func HashResponse(seq int, body []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for sh := 0; sh < 64; sh += 8 {
		h ^= (uint64(seq) >> sh) & 0xff
		h *= prime64
	}
	for _, b := range body {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// ServeTenant runs n requests of one tenant under cfg, reusing a single
// warm instance per request as production FaaS platforms do, and returns
// latency statistics from the simulated clock.
func ServeTenant(tenant workloads.Tenant, cfg Config, n int) (Result, error) {
	ti, err := Provision(tenant, cfg)
	if err != nil {
		return Result{}, err
	}
	clock := ti.RT.M.Kern.Clock

	lats := make([]float64, 0, n)
	var sum uint64
	start := clock.Now()
	for i := 0; i < n; i++ {
		t0 := clock.Now()
		body, res := ti.ServeRequest(i, 0)
		if res.Reason != cpu.StopHalt {
			return Result{}, fmt.Errorf("faas: %s/%s request %d: stop %v", tenant.Name, cfg.Name, i, res.Reason)
		}
		sum ^= HashResponse(i, body)
		lats = append(lats, float64(clock.Now()-t0))
	}
	elapsed := float64(clock.Now() - start)

	return Result{
		Tenant:     tenant.Name,
		Config:     cfg.Name,
		Requests:   n,
		AvgLatNs:   stats.Mean(lats),
		TailLatNs:  stats.Percentile(lats, 99),
		Throughput: float64(n) / (elapsed / 1e9),
		BinBytes:   ti.Inst.C.BinaryBytes,
		Checksum:   sum,
	}, nil
}

// TeardownStyle selects the §6.3.1 teardown strategy.
type TeardownStyle uint8

// Teardown strategies under comparison.
const (
	TeardownStock      TeardownStyle = iota // one madvise per sandbox
	TeardownBatchedHFI                      // one madvise across adjacent heaps (guards elided)
	TeardownBatched                         // batched, but guard regions still interleave
)

// TeardownResult reports the per-sandbox teardown cost.
type TeardownResult struct {
	Style        TeardownStyle
	Sandboxes    int
	PerSandboxNs float64
}

// MeasureTeardown reproduces the §6.3.1 experiment: create n sandboxes,
// run a trivial workload in each (a constant store), then tear all of them
// down in the selected style, measuring the teardown phase only.
func MeasureTeardown(style TeardownStyle, n int, batch int) (TeardownResult, error) {
	scheme := sfi.GuardPages
	if style == TeardownBatchedHFI {
		scheme = sfi.HFI
	}
	rt := sandbox.NewRuntime()
	clock := rt.M.Kern.Clock
	rt.M.Kern.Multicore = true // FaaS servers run concurrent workers; TLB shootdowns are real

	mod := trivialModule()
	instances := make([]*sandbox.Instance, 0, n)
	eng := cpu.NewInterp(rt.M)
	for i := 0; i < n; i++ {
		inst, err := rt.Instantiate(mod, scheme, wasm.Options{})
		if err != nil {
			return TeardownResult{}, err
		}
		if res, _ := inst.Invoke(eng, 0); res.Reason != cpu.StopHalt {
			return TeardownResult{}, fmt.Errorf("faas: trivial workload stop %v", res.Reason)
		}
		instances = append(instances, inst)
	}

	t0 := clock.Now()
	switch style {
	case TeardownStock:
		for _, inst := range instances {
			inst.Teardown()
		}
	default:
		for i := 0; i < len(instances); i += batch {
			j := i + batch
			if j > len(instances) {
				j = len(instances)
			}
			if err := rt.TeardownBatch(instances[i:j]); err != nil {
				return TeardownResult{}, err
			}
		}
	}
	per := float64(clock.Now()-t0) / float64(n)
	return TeardownResult{Style: style, Sandboxes: n, PerSandboxNs: per}, nil
}

// trivialModule writes a constant into memory — the §6.3.1 short-lived
// workload.
func trivialModule() *wasm.Module {
	m := wasm.NewModule("trivial", 16, 16) // 1 MiB so teardown has pages to discard
	f := m.Func("run", 0)
	i, v := f.NewReg(), f.NewReg()
	f.MovImm(v, 0x42)
	f.MovImm(i, 0)
	f.Label("w")
	f.Store(8, i, 0, v)
	f.AddImm(i, i, 4096)
	f.BrImm(isa.CondLT, i, 1<<20, "w")
	f.Ret(v)
	return m
}

// ScalingResult reports how many sandboxes fit in the address space.
type ScalingResult struct {
	Scheme          sfi.Scheme
	SandboxGiB      uint64
	MeasuredCount   int  // real reservations performed
	CapacityCount   int  // total capacity (measured + arithmetic remainder)
	Extrapolated    bool // capacity beyond MeasuredCount was computed, not allocated
	ReservedPerSbox uint64
}

// MeasureScaling reproduces §6.3.2: how many sandboxes of the given heap
// size can coexist in one 47-bit address space. Guard-page sandboxes
// reserve 8 GiB regardless of heap size; HFI sandboxes reserve only the
// heap. Beyond measureLimit real reservations the remainder is computed
// arithmetically (the VMA list otherwise dominates host memory).
func MeasureScaling(scheme sfi.Scheme, heapGiB uint64, measureLimit int) (ScalingResult, error) {
	rt := sandbox.NewRuntime()
	as := rt.M.AS

	perSandbox := heapGiB << 30
	if scheme.NeedsGuardReservation() {
		perSandbox = sandbox.GuardReservation
	}
	res := ScalingResult{Scheme: scheme, SandboxGiB: heapGiB, ReservedPerSbox: perSandbox}
	count := 0
	for count < measureLimit {
		var err error
		if scheme.NeedsGuardReservation() {
			_, err = as.MapAligned(sandbox.GuardReservation, sandbox.GuardReservation, kernel.ProtNone)
		} else {
			_, err = as.MapAligned(heapGiB<<30, 1<<16, kernel.ProtRead|kernel.ProtWrite)
		}
		if err != nil {
			res.MeasuredCount = count
			res.CapacityCount = count
			return res, nil
		}
		count++
	}
	res.MeasuredCount = count
	// Arithmetic remainder: how many more reservations fit.
	remaining := (uint64(1) << 47) - as.ReservedBytes()
	res.CapacityCount = count + int(remaining/perSandbox)
	res.Extrapolated = true
	return res, nil
}
