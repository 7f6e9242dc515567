// Package sandbox implements the trusted runtime of §3.3: it instantiates
// Wasm modules (compiled by internal/wasm under any isolation scheme) and
// native programs into in-process sandboxes, manages their memory with the
// simulated OS, programs HFI regions, builds entry springboards, interposes
// on exits and system calls, and implements the lifecycle operations
// (teardown, batching, reuse) that the FaaS experiments measure.
package sandbox

import (
	"fmt"

	"hfi/internal/cpu"
	"hfi/internal/hfi"
	"hfi/internal/isa"
	"hfi/internal/kernel"
	"hfi/internal/sfi"
	"hfi/internal/tier"
	"hfi/internal/wasm"
)

// GuardReservation is the per-instance address-space reservation of the
// guard-page scheme: 4 GiB addressable + 4 GiB guard (§2). The number
// lives in sfi so the static verifier proves accesses into the identical
// window.
const GuardReservation = sfi.GuardReservation

// Runtime is the trusted runtime: it owns the machine and hands out
// sandboxed instances.
type Runtime struct {
	M *cpu.Machine

	// Serialized configures hfi_enter/hfi_exit serialization on HFI
	// instances (is-serialized flag, §3.4).
	Serialized bool
	// SwitchOnExit enables the §4.5 extension on HFI instances.
	SwitchOnExit bool
	// WrapNative wraps non-HFI instances in an HFI *native* sandbox:
	// the compiled code is unmodified (no hmov), isolation and Spectre
	// protection come from implicit regions around it. This is Table 1's
	// "Lucet+HFI using native sandbox" configuration.
	WrapNative bool

	// Images, when non-nil, shares compiled code images (and layout-probe
	// results) with other runtimes through a CodeCache: instantiating the
	// same module with the same scheme, options, and resulting layout
	// reuses one verified immutable image instead of recompiling.
	Images *CodeCache

	instances []*Instance
}

// NewRuntime creates a runtime over a fresh machine.
func NewRuntime() *Runtime {
	return &Runtime{M: cpu.NewMachine()}
}

// Instance is one sandboxed Wasm instance.
type Instance struct {
	RT *Runtime
	C  *wasm.Compiled

	// Memory geometry.
	CodeBase     uint64 // power-of-two block holding springboard + code
	CodeSize     uint64
	HeapBase     uint64
	HeapReserved uint64 // includes guard reservation where applicable
	AuxBase      uint64 // power-of-two block: globals + machine stack
	AuxSize      uint64
	// ExtraMemBases holds the bases of linear memories 1..N; each entry
	// reserves ExtraMemReserved[i] bytes (8 GiB under guard schemes).
	ExtraMemBases    []uint64
	ExtraMemReserved []uint64

	// EntryPC is where Invoke starts execution: the HFI springboard, or
	// the module's __start for software schemes.
	EntryPC uint64

	sandboxT    uint64 // guest address of the instance's sandbox_t
	regionTable uint64 // guest address of the region-descriptor table
	regionCount int
	springProg  *isa.Program
	wrapped     bool // native-wrap mode (see Runtime.WrapNative)

	// Lowered is the tiered-engine lowering of this instance's program:
	// shared from the runtime's CodeCache when one is installed (one
	// lowering per module × scheme × geometry), built privately otherwise,
	// and nil when the image carries no facts. Hosts that want tiered
	// execution construct a tier.Engine over it; Invoke works with any
	// cpu.Engine.
	Lowered *tier.Lowered

	// CurPages mirrors the guest-side page counter.
	CurPages int
}

const auxGlobals = 0 // globals at the base of the aux block

// probeLayout is the throwaway layout used by code-size probe compilations;
// the probe is never executed, only measured.
var probeLayout = wasm.Layout{CodeBase: 0x10000, StackBase: 0x20000, StackSize: 0x1000, GlobalBase: 0x30000, HeapBase: 0x40000}

// nextPow2 rounds up to a power of two.
func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// Instantiate compiles the module under the scheme and maps a new instance:
// code, heap (with or without guard reservation), and the aux block holding
// globals and the machine stack. For HFI instances it also programs the
// sandbox_t, region-descriptor table and entry springboard.
func (rt *Runtime) Instantiate(mod *wasm.Module, scheme sfi.Scheme, opts wasm.Options) (*Instance, error) {
	m := rt.M

	// First compilation with a throwaway layout to learn the code size
	// (code size is layout-independent; only immediates change). The probe
	// is never executed, so it skips verification; the real compilation
	// below is verified against the real layout. A shared CodeCache
	// answers repeat probes without compiling.
	var progSize uint64
	if rt.Images != nil {
		var err error
		if progSize, err = rt.Images.probeSize(mod, scheme, opts); err != nil {
			return nil, err
		}
	} else {
		popts := opts
		popts.NoVerify = true
		probe, err := wasm.Compile(mod, scheme, probeLayout, popts)
		if err != nil {
			return nil, err
		}
		progSize = probe.Prog.Size()
	}

	const springSlots = 16 // reserved instruction slots for the springboard
	codeSize := progSize + springSlots*isa.InstrBytes
	codeBlock := nextPow2(codeSize)
	if codeBlock < kernel.OSPageSize {
		codeBlock = kernel.OSPageSize
	}
	codeBase, err := m.AS.MapAligned(codeBlock, codeBlock, kernel.ProtRead|kernel.ProtExec)
	if err != nil {
		return nil, err
	}
	m.Kern.Clock.Advance(m.Kern.Costs.MmapReserve)

	// Aux block: globals page, a PROT_NONE stack guard, then the stack;
	// power-of-two sized for the implicit data region that must cover it
	// under HFI. The guard sits between the globals page and the stack
	// floor so a frame reaching below the deepest verified frame faults
	// instead of corrupting the trusted globals.
	const stackSize = 248 << 10
	auxSize := nextPow2(uint64(kernel.OSPageSize) + sfi.StackGuard + stackSize)
	auxBase, err := rt.mapAux(auxSize)
	if err != nil {
		return nil, err
	}
	if err := m.Kern.Mprotect(m.AS, auxBase+kernel.OSPageSize, sfi.StackGuard, kernel.ProtNone); err != nil {
		return nil, err
	}

	// Heap (memory 0).
	heapBase, heapReserved, err := rt.mapHeap(mod, scheme)
	if err != nil {
		return nil, err
	}

	// Secondary linear memories (multi-memory proposal). Guard schemes
	// reserve the full 8 GiB per memory — the address-space blowup §2
	// describes; the others reserve just the memory.
	var extraBases, extraReserved []uint64
	for _, pages := range mod.ExtraMemories {
		bytes := uint64(pages) * wasm.PageSize
		var base, reserved uint64
		if bytes == 0 {
			// Placeholder memory: nothing accessible until the runtime
			// re-points it (ShareBuffer). Guard schemes still pay the full
			// PROT_NONE reservation so a stray access faults inside sandbox-
			// owned address space instead of probing whatever the allocator
			// put below 4 GiB; the checked schemes fault on a zero bound.
			if scheme.NeedsGuardReservation() {
				base, err = m.AS.MapAligned(GuardReservation, GuardReservation, kernel.ProtNone)
				if err != nil {
					return nil, err
				}
				m.Kern.Clock.Advance(m.Kern.Costs.MmapReserve)
				extraBases = append(extraBases, base)
				extraReserved = append(extraReserved, GuardReservation)
			} else {
				extraBases = append(extraBases, 0)
				extraReserved = append(extraReserved, 0)
			}
			continue
		}
		reserved = wasm.HeapReservation(scheme, bytes, bytes)
		switch {
		case scheme.NeedsGuardReservation():
			base, err = m.AS.MapAligned(GuardReservation, GuardReservation, kernel.ProtNone)
			if err != nil {
				return nil, err
			}
			m.Kern.Clock.Advance(m.Kern.Costs.MmapReserve)
			if bytes > 0 {
				if err := m.Kern.Mprotect(m.AS, base, bytes, kernel.ProtRead|kernel.ProtWrite); err != nil {
					return nil, err
				}
			}
		case reserved > bytes:
			// Masking: the memory plus its PROT_NONE redzone (displacement
			// overhang lands there instead of in a neighbouring mapping).
			base, err = m.AS.MapAligned(reserved, wasm.PageSize, kernel.ProtNone)
			if err != nil {
				return nil, err
			}
			m.Kern.Clock.Advance(m.Kern.Costs.MmapReserve)
			if err := m.Kern.Mprotect(m.AS, base, bytes, kernel.ProtRead|kernel.ProtWrite); err != nil {
				return nil, err
			}
		default:
			base, err = m.AS.MapAligned(bytes, wasm.PageSize, kernel.ProtRead|kernel.ProtWrite)
			if err != nil {
				return nil, err
			}
			m.Kern.Clock.Advance(m.Kern.Costs.MmapReserve)
		}
		extraBases = append(extraBases, base)
		extraReserved = append(extraReserved, reserved)
	}

	lay := wasm.Layout{
		CodeBase:   codeBase + springSlots*isa.InstrBytes,
		HeapBase:   heapBase,
		GlobalBase: auxBase + auxGlobals,
		StackBase:  auxBase + kernel.OSPageSize + sfi.StackGuard,
		StackSize:  stackSize,
	}
	lay.ExtraMemBases = extraBases
	var c *wasm.Compiled
	if rt.Images != nil {
		c, err = rt.Images.compile(mod, scheme, lay, opts)
	} else {
		c, err = wasm.Compile(mod, scheme, lay, opts)
	}
	if err != nil {
		return nil, err
	}
	if err := m.LoadPrelinked(c.Prog); err != nil {
		return nil, err
	}
	var low *tier.Lowered
	if rt.Images != nil {
		low = rt.Images.Lowering(c)
	} else {
		low = tier.Lower(c.Prog, c.Facts, cpu.DefaultCostModel())
	}

	inst := &Instance{
		RT: rt, C: c,
		CodeBase: codeBase, CodeSize: codeBlock,
		HeapBase: heapBase, HeapReserved: heapReserved,
		AuxBase: auxBase, AuxSize: auxSize,
		ExtraMemBases: extraBases, ExtraMemReserved: extraReserved,
		CurPages: mod.MemPages,
		EntryPC:  c.Prog.Entry("__start"),
		Lowered:  low,
	}

	// Initialize runtime globals and data segments.
	m.Mem().Write(lay.GlobalBase+0, 8, uint64(mod.MemPages)) // gCurPages
	m.Mem().Write(lay.GlobalBase+8, 8, heapBase)             // gHeapBase
	for k, base := range extraBases {
		off := lay.GlobalBase + wasm.MemCtxOffset(k+1)
		m.Mem().Write(off, 8, base)
		bytes := uint64(mod.ExtraMemories[k]) * wasm.PageSize
		boundOrMask := bytes
		if scheme == sfi.Masking && bytes > 0 {
			boundOrMask = bytes - 1
		}
		m.Mem().Write(off+8, 8, boundOrMask)
	}
	for _, seg := range mod.Data {
		m.Mem().WriteBytes(heapBase+uint64(seg.Offset), seg.Bytes)
	}

	if scheme == sfi.HFI {
		if err := inst.setupHFI(); err != nil {
			return nil, err
		}
	} else if rt.WrapNative {
		if err := inst.setupNativeWrap(); err != nil {
			return nil, err
		}
	}
	rt.instances = append(rt.instances, inst)
	return inst, nil
}

// mapAux maps the power-of-two aligned globals+stack block.
func (rt *Runtime) mapAux(size uint64) (uint64, error) {
	base, err := rt.M.AS.MapAligned(size, size, kernel.ProtRead|kernel.ProtWrite)
	if err != nil {
		return 0, err
	}
	rt.M.Kern.Clock.Advance(rt.M.Kern.Costs.MmapReserve)
	return base, nil
}

// mapHeap reserves and commits the linear memory per the scheme's policy.
func (rt *Runtime) mapHeap(mod *wasm.Module, scheme sfi.Scheme) (base, reserved uint64, err error) {
	m := rt.M
	initBytes := uint64(mod.MemPages) * wasm.PageSize
	maxBytes := uint64(mod.MaxPages) * wasm.PageSize
	switch {
	case scheme.NeedsGuardReservation():
		// The classic Wasm layout: 8 GiB reserved without permissions,
		// then the initial pages made accessible with mprotect (§2).
		// The reservation is aligned to its own (power-of-two) size so a
		// native-wrap implicit region can cover it exactly.
		base, err = m.AS.MapAligned(GuardReservation, GuardReservation, kernel.ProtNone)
		if err != nil {
			return 0, 0, err
		}
		m.Kern.Clock.Advance(m.Kern.Costs.MmapReserve)
		if initBytes > 0 {
			if err := m.Kern.Mprotect(m.AS, base, initBytes, kernel.ProtRead|kernel.ProtWrite); err != nil {
				return 0, 0, err
			}
		}
		return base, GuardReservation, nil
	case scheme == sfi.Masking:
		// Masking memories are fixed power-of-two size, followed by a
		// PROT_NONE redzone absorbing the displacement overhang of masked
		// accesses (the mask covers the index, not the full EA).
		reserved = wasm.HeapReservation(scheme, initBytes, maxBytes)
		base, err = m.AS.MapAligned(reserved, wasm.PageSize, kernel.ProtNone)
		if err != nil {
			return 0, 0, err
		}
		m.Kern.Clock.Advance(m.Kern.Costs.MmapReserve)
		if initBytes > 0 {
			if err := m.Kern.Mprotect(m.AS, base, initBytes, kernel.ProtRead|kernel.ProtWrite); err != nil {
				return 0, 0, err
			}
		}
		return base, reserved, nil
	default:
		// BoundsCheck and HFI: reserve up to the maximum, all RW; the
		// bound (register or HFI region) enforces the accessible limit,
		// so no guard pages and no mprotect on growth.
		reserved = wasm.HeapReservation(scheme, initBytes, maxBytes)
		base, err = m.AS.MapAligned(reserved, wasm.PageSize, kernel.ProtRead|kernel.ProtWrite)
		if err != nil {
			return 0, 0, err
		}
		m.Kern.Clock.Advance(m.Kern.Costs.MmapReserve)
		return base, reserved, nil
	}
}

// setupHFI writes the instance's sandbox_t and region-descriptor table
// into the globals page and assembles the entry springboard.
func (inst *Instance) setupHFI() error {
	m := inst.RT.M
	g := inst.AuxBase + auxGlobals

	// Region descriptor table at g+256: code region, aux data region,
	// explicit heap region.
	const tableOff = 256
	table := g + tableOff
	type entry struct {
		num  int
		body [hfi.RegionTSize]byte
	}
	entries := []entry{
		{hfi.RegionCodeBase, hfi.EncodeImplicitRegion(hfi.ImplicitRegion{
			BasePrefix: inst.CodeBase, LSBMask: inst.CodeSize - 1, Exec: true,
		})},
		{hfi.RegionDataBase, hfi.EncodeImplicitRegion(hfi.ImplicitRegion{
			BasePrefix: inst.AuxBase, LSBMask: inst.AuxSize - 1, Read: true, Write: true,
		})},
		{hfi.RegionExplicitBase + sfi.HeapRegion, hfi.EncodeExplicitRegion(hfi.ExplicitRegion{
			Base: inst.HeapBase, Bound: uint64(inst.CurPages) * wasm.PageSize,
			Read: true, Write: true, Large: true,
		})},
	}
	// Secondary linear memories bind to explicit regions 1..3 — the
	// multi-memory support §3.3.1 sketches, with no per-access cost.
	// Zero-page placeholders get an empty region (every access faults)
	// until ShareBuffer re-points them.
	for k, base := range inst.ExtraMemBases {
		entries = append(entries, entry{
			hfi.RegionExplicitBase + sfi.HeapRegion + 1 + k,
			hfi.EncodeExplicitRegion(hfi.ExplicitRegion{
				Base: base, Bound: uint64(inst.C.Module.ExtraMemories[k]) * wasm.PageSize,
				Read: true, Write: true, Large: true,
			}),
		})
	}
	for i, e := range entries {
		off := table + uint64(i)*hfi.RegionEntrySize
		m.Mem().Write(off, 8, uint64(e.num))
		m.Mem().WriteBytes(off+8, e.body[:])
	}
	inst.regionTable = table
	inst.regionCount = len(entries)

	// sandbox_t at g+128.
	inst.sandboxT = g + 128
	cfg := hfi.Config{
		Hybrid:       true,
		Serialized:   inst.RT.Serialized,
		SwitchOnExit: inst.RT.SwitchOnExit,
		RegionsPtr:   table,
		RegionCount:  uint64(len(entries)),
	}
	sb := hfi.EncodeSandboxT(cfg)
	m.Mem().WriteBytes(inst.sandboxT, sb[:])

	// Springboard at the head of the code block: load the sandbox_t
	// pointer, enter, jump to the module entry.
	b := isa.NewBuilder(inst.CodeBase)
	b.MovImm(isa.R6, int64(inst.sandboxT))
	b.HfiEnter(isa.R6)
	b.JmpAddr(inst.C.Prog.Entry("__start"))
	inst.springProg = b.Build()
	if err := m.LoadPrelinked(inst.springProg); err != nil {
		return err
	}
	inst.EntryPC = inst.CodeBase
	return nil
}

// Invoke runs the instance's run function with up to six integer
// arguments, returning the engine result and the function result (R0).
func (inst *Instance) Invoke(eng cpu.Engine, limit uint64, args ...uint64) (cpu.RunResult, uint64) {
	m := inst.RT.M
	for i, a := range args {
		m.Regs[isa.Reg(i)] = a
	}
	m.PC = inst.EntryPC
	res := eng.Run(limit)
	if inst.wrapped && m.HFI.Enabled {
		// The trusted runtime leaves the native wrap after the guest
		// halts; a serialized exit pays the drain cost.
		exit := m.HFI.Exit()
		if exit.Serialize {
			m.Kern.Clock.AdvanceCycles(hfi.SerializeCycles, kernel.CoreGHz)
		}
	}
	return res, m.Regs[isa.R0]
}

// setupNativeWrap builds an HFI *native* springboard around an instance
// compiled under a software scheme: implicit regions cover the code block,
// the aux block, and the whole heap reservation; syscalls and exits
// redirect to the host.
func (inst *Instance) setupNativeWrap() error {
	m := inst.RT.M
	g := inst.AuxBase + auxGlobals
	const tableOff = 512
	table := g + tableOff
	entries := []struct {
		num  int
		body [hfi.RegionTSize]byte
	}{
		{hfi.RegionCodeBase, hfi.EncodeImplicitRegion(hfi.ImplicitRegion{
			BasePrefix: inst.CodeBase, LSBMask: inst.CodeSize - 1, Exec: true,
		})},
		{hfi.RegionDataBase, hfi.EncodeImplicitRegion(hfi.ImplicitRegion{
			BasePrefix: inst.AuxBase, LSBMask: inst.AuxSize - 1, Read: true, Write: true,
		})},
		{hfi.RegionDataBase + 1, hfi.EncodeImplicitRegion(hfi.ImplicitRegion{
			BasePrefix: inst.HeapBase, LSBMask: inst.HeapReserved - 1, Read: true, Write: true,
		})},
	}
	for i, e := range entries {
		off := table + uint64(i)*hfi.RegionEntrySize
		m.Mem().Write(off, 8, uint64(e.num))
		m.Mem().WriteBytes(off+8, e.body[:])
	}
	inst.sandboxT = g + 448
	cfg := hfi.Config{
		Hybrid:       false,
		Serialized:   inst.RT.Serialized,
		SwitchOnExit: inst.RT.SwitchOnExit,
		ExitHandler:  cpu.HostReturn,
		RegionsPtr:   table,
		RegionCount:  uint64(len(entries)),
	}
	sb := hfi.EncodeSandboxT(cfg)
	m.Mem().WriteBytes(inst.sandboxT, sb[:])

	b := isa.NewBuilder(inst.CodeBase)
	b.MovImm(isa.R6, int64(inst.sandboxT))
	b.HfiEnter(isa.R6)
	b.JmpAddr(inst.C.Prog.Entry("__start"))
	inst.springProg = b.Build()
	if err := m.LoadPrelinked(inst.springProg); err != nil {
		return err
	}
	inst.EntryPC = inst.CodeBase
	inst.wrapped = true
	return nil
}

// WriteHeap copies host data into the instance's linear memory.
func (inst *Instance) WriteHeap(off uint32, data []byte) {
	inst.RT.M.Mem().WriteBytes(inst.HeapBase+uint64(off), data)
}

// ReadHeap copies from linear memory into a host buffer.
func (inst *Instance) ReadHeap(off uint32, n int) []byte {
	buf := make([]byte, n)
	inst.RT.M.Mem().ReadBytes(inst.HeapBase+uint64(off), buf)
	return buf
}

// WriteMem and ReadMem are the multi-memory variants of WriteHeap/ReadHeap
// (mem 0 is the primary heap).
func (inst *Instance) WriteMem(mem int, off uint32, data []byte) {
	base := inst.HeapBase
	if mem > 0 {
		base = inst.ExtraMemBases[mem-1]
	}
	inst.RT.M.Mem().WriteBytes(base+uint64(off), data)
}

// ReadMem copies from linear memory mem into a host buffer.
func (inst *Instance) ReadMem(mem int, off uint32, n int) []byte {
	base := inst.HeapBase
	if mem > 0 {
		base = inst.ExtraMemBases[mem-1]
	}
	buf := make([]byte, n)
	inst.RT.M.Mem().ReadBytes(base+uint64(off), buf)
	return buf
}

// SyncPages refreshes the host-side page-count mirror after guest growth.
func (inst *Instance) SyncPages() {
	inst.CurPages = int(inst.RT.M.Mem().Read(inst.C.Layout.GlobalBase+0, 8))
}

// ShareBuffer grants the instance in-place, byte-granular access to an
// arbitrary host buffer through a small explicit region (§3.2: "existing
// buffers can be shared in-place without changing code or allocators").
// The module must have declared linear memory `mem` (1-3); its explicit
// region is re-pointed at [addr, addr+size), so the guest's
// LoadMem/StoreMem against that memory index operate on the shared object
// directly. Only the HFI scheme can do this: software schemes have no
// byte-granular mechanism (the paper's point), so sharing there means
// copying.
func (inst *Instance) ShareBuffer(mem int, addr, size uint64, writable bool) error {
	if inst.C.Scheme != sfi.HFI {
		return fmt.Errorf("sandbox: in-place sharing requires HFI (scheme %v shares by copying)", inst.C.Scheme)
	}
	if mem < 1 || mem > hfi.NumExplicitRegions-1 || mem > len(inst.C.Module.ExtraMemories) {
		return fmt.Errorf("sandbox: memory index %d not declared", mem)
	}
	r := hfi.ExplicitRegion{Base: addr, Bound: size, Read: true, Write: writable}
	if err := r.Validate(); err != nil {
		return err
	}
	// Rewrite the region-table entry for this memory's explicit region;
	// the springboard's hfi_enter reloads the table on the next entry.
	num := hfi.RegionExplicitBase + sfi.HeapRegion + mem
	m := inst.RT.M
	for i := 0; i < inst.regionCount; i++ {
		off := inst.regionTable + uint64(i)*hfi.RegionEntrySize
		if int(m.Mem().Read(off, 8)) != num {
			continue
		}
		body := hfi.EncodeExplicitRegion(r)
		m.Mem().WriteBytes(off+8, body[:])
		return nil
	}
	return fmt.Errorf("sandbox: no region-table entry for memory %d", mem)
}

// Reset returns a warm instance to its post-Instantiate state so a pool can
// safely hand it to the next request stream after an aborted run (fuel
// exhaustion, fault): any dangling HFI context is exited, the heap image is
// discarded and the module's data segments replayed, and the page-count
// global and host mirror are restored. Code, the aux block (globals page,
// region table, sandbox_t) and the HFI region programming are untouched —
// the springboard's hfi_enter reloads the region table on the next Invoke,
// which also undoes any in-sandbox hfi_set_region growth. After Reset the
// next Invoke behaves exactly like the first.
func (inst *Instance) Reset() {
	m := inst.RT.M
	if m.HFI.Enabled {
		// An aborted run can stop mid-sandbox; leave it before reuse so the
		// next springboard entry starts from a clean context.
		m.HFI.Exit()
	}
	m.Kern.Madvise(m.AS, inst.HeapBase, inst.HeapReserved)
	mod := inst.C.Module
	lay := inst.C.Layout
	m.Mem().Write(lay.GlobalBase+0, 8, uint64(mod.MemPages)) // gCurPages
	for _, seg := range mod.Data {
		m.Mem().WriteBytes(inst.HeapBase+uint64(seg.Offset), seg.Bytes)
	}
	for i, base := range inst.ExtraMemBases {
		if inst.ExtraMemReserved[i] > 0 {
			m.Kern.Madvise(m.AS, base, inst.ExtraMemReserved[i])
		}
	}
	inst.CurPages = mod.MemPages
}

// HeapHash digests the content of every linear memory the instance owns —
// memory 0's whole reservation and each extra memory's — with mem.Digest, so
// its cost follows the resident backing pages (the data segments, right
// after Instantiate or Reset), not the declared or reserved size. Right
// after Instantiate, and right after a correct Reset, it equals the
// cold-instance hash whatever the scheme or the addresses the memories
// landed at: data segments replayed, everything else zero or absent. A warm
// pool uses it as the verified-reset check before reusing a faulted
// instance: any state a buggy or bypassed Reset leaves behind — in the
// initial pages, in pages grown past them or in an extra memory — changes
// the hash, so a poisoned instance is detectable without reference to
// another instance.
func (inst *Instance) HeapHash() uint64 {
	mem := inst.RT.M.Mem()
	h := mem.Digest(inst.HeapBase, inst.HeapReserved)
	for i, base := range inst.ExtraMemBases {
		// Horner over the memory index: position-sensitive, a bijection of
		// each memory's digest, and an unreserved placeholder (length 0)
		// counts the same as a reserved empty one (both digest to 0).
		h = h*0x100000001b3 + mem.Digest(base, inst.ExtraMemReserved[i])
	}
	return h
}

// InitialHeapBytes returns the byte size of the initial heap pages — the
// live target region for substrate bit flips: a flip beyond it lands in
// reservation pages no un-grown guest reads (HeapHash would still see it).
func (inst *Instance) InitialHeapBytes() uint64 {
	return uint64(inst.C.Module.MemPages) * wasm.PageSize
}

// AuditHeapHash is the cost-modeled HeapHash used by the host's sampled
// end-of-request spot checks: identical hash, but the scrub pays simulated
// time per declared initial page on the instance's kernel clock — it models
// scrubbing the instance's DRAM, which the sparse backing store's host cost
// says nothing about — so detection coverage shows up on the simulated
// timeline instead of being free.
func (inst *Instance) AuditHeapHash() uint64 {
	pages := uint64(inst.C.Module.MemPages)
	k := inst.RT.M.Kern
	k.Clock.Advance(k.Costs.SyscallBase + pages*k.Costs.AuditHashPerPage)
	return inst.HeapHash()
}

// FlipHeapBit XORs a single-bit mask into the heap byte at off — the
// substrate bit-flip seam. It writes through mem.Memory directly, below
// the MMU and HFI checks, because the fault it models (a DRAM upset)
// does not consult them.
func (inst *Instance) FlipHeapBit(off uint64, mask byte) {
	inst.RT.M.Mem().FlipBits(inst.HeapBase+off, mask)
}

// Teardown discards the instance's memory image with one madvise call over
// its committed heap, the way stock Wasmtime recycles instance slots
// (§5.1). Guard reservations are not touched — the per-sandbox strategy
// never pays for them; only batching across sandboxes does (§6.3.1).
func (inst *Instance) Teardown() {
	m := inst.RT.M
	used := uint64(inst.CurPages) * wasm.PageSize
	if used == 0 || used > inst.HeapReserved {
		used = inst.HeapReserved
	}
	m.Kern.Madvise(m.AS, inst.HeapBase, used)
}

// TeardownBatch discards a set of instances' memory images with a single
// madvise spanning all of them — HFI-Wasmtime's optimization (§5.1). The
// span includes whatever lies between the heaps: nothing for HFI instances
// (heaps are adjacent), guard reservations for guard-page instances (which
// is why batching without HFI costs more, §6.3.1).
func (rt *Runtime) TeardownBatch(instances []*Instance) error {
	if len(instances) == 0 {
		return nil
	}
	lo, hi := ^uint64(0), uint64(0)
	for _, inst := range instances {
		if inst.HeapBase < lo {
			lo = inst.HeapBase
		}
		if end := inst.HeapBase + inst.HeapReserved; end > hi {
			hi = end
		}
	}
	rt.M.Kern.Madvise(rt.M.AS, lo, hi-lo)
	return nil
}

// Destroy unmaps all instance memory (full teardown, not slot reuse).
func (inst *Instance) Destroy() error {
	m := inst.RT.M
	if err := m.Kern.Munmap(m.AS, inst.HeapBase, inst.HeapReserved); err != nil {
		return fmt.Errorf("sandbox: heap unmap: %w", err)
	}
	if err := m.Kern.Munmap(m.AS, inst.AuxBase, inst.AuxSize); err != nil {
		return fmt.Errorf("sandbox: aux unmap: %w", err)
	}
	return nil
}
