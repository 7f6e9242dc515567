package cpu

import "hfi/internal/hfi"

// This file is the narrow surface the tiered execution engine
// (internal/tier) builds on. The tier engine executes fused
// superinstruction blocks itself but delegates everything that must stay
// bit-identical to the interpreter — cost accounting, clock folding, the
// fault path — to these wrappers, so there is exactly one implementation
// of each.

// SegmentRun executes at most maxInstrs loop iterations exactly like Run,
// as one slice of a larger logical run: the StopLimit return leaves
// accumulated cycles unfolded (the caller owns the final SyncClock). Stops other than StopLimit fold the clock at
// the same architectural points a monolithic Run would, so interleaving
// segments with fused blocks preserves the exact AdvanceCycles call
// sequence. maxInstrs must be non-zero.
func (ip *Interp) SegmentRun(maxInstrs uint64) RunResult {
	ip.segment = true
	res := ip.Run(maxInstrs)
	ip.segment = false
	return res
}

// ChargeMilli bills mc millicycles to the run, exactly as the dispatch
// loop's per-opcode charge does.
func (ip *Interp) ChargeMilli(mc uint64) { ip.charge(mc) }

// ChargeMemAt bills one memory access at addr: base load/store cost plus
// the scaled miss penalty from the (stateful) hierarchy. Callers must
// invoke it once per access in program order, as the dispatch loop does —
// the hierarchy's replacement state is part of the cost timeline.
func (ip *Interp) ChargeMemAt(addr uint64, store bool) { ip.chargeMem(addr, store) }

// SyncClock folds accumulated cycles into the machine and kernel clock.
// The tiered engine calls it at exactly the points a monolithic Run would
// (its own StopLimit return); extra calls would drift the truncating
// cycles-to-ns conversion.
func (ip *Interp) SyncClock() { ip.syncClock() }

// RaiseAt routes a fault through the interpreter's signal path — clock
// fold, kernel signal delivery, optional resume — identically to a fault
// raised from the dispatch loop. On resume (ok=true) the machine PC is the
// handler-chosen resume point; otherwise the returned RunResult is final.
func (ip *Interp) RaiseAt(pc, addr uint64, f *hfi.Fault, pageFault bool) (RunResult, bool) {
	return ip.fault(pc, addr, f, pageFault)
}

// SignExtend exposes the load result extension rule (sign- or zero-extend
// a size-byte value to 64 bits) shared by both engines' load paths.
func SignExtend(v uint64, size uint8, signExt bool) uint64 {
	if !signExt {
		return v
	}
	return signExtend(v, size)
}
