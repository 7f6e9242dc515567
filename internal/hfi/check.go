package hfi

import "math/bits"

// CheckData performs the implicit data-region check for an ordinary (non
// hmov) access of size bytes at addr. Permissions come from the first
// matching region (§3.2: first-match semantics). The whole access must lie
// inside that first matching region — an access straddling the region edge
// faults, as it would on hardware where the adjacent bytes fail the prefix
// match.
//
// The check is pure with respect to microarchitectural state: hardware runs
// it in parallel with the dtb lookup, and the caller must consult it BEFORE
// updating any cache metadata (§4.1). A nil return means the access is
// allowed. When HFI is disabled the check always passes.
func (s *State) CheckData(addr uint64, size uint8, write bool) *Fault {
	if !s.Enabled {
		return nil
	}
	s.ChecksData++
	last := addr + uint64(size) - 1
	for i := range s.Bank.Data {
		r := &s.Bank.Data[i]
		if !r.Contains(addr) {
			continue
		}
		// First match decides. The access must be fully contained.
		if !r.Contains(last) {
			return s.fault(FaultDataBounds, addr, write)
		}
		if write && !r.Write {
			return s.fault(FaultDataPerm, addr, true)
		}
		if !write && !r.Read {
			return s.fault(FaultDataPerm, addr, false)
		}
		return nil
	}
	return s.fault(FaultDataBounds, addr, write)
}

// DataPageDecision reports whether the implicit data-region decision is
// uniform across every access wholly contained in [page, page+size): the
// same first-matching region (or no region at all) applies to every byte.
// When uniform, read/write carry that region's permissions (both false if
// no region matches). Non-uniform pages — a region boundary crosses the
// window, or an earlier region shadows part of it — are not summarizable
// and must take the per-access CheckData path.
//
// The helper is non-mutating and exists for decision caches (the
// machine's data-translation cache, shared by the interpreter and the
// tiered engine's checked loads and stores): a cached positive decision
// derived from a uniform page stays valid until the State's Gen changes.
// Implicit regions are contiguous intervals [BasePrefix, BasePrefix+LSBMask]
// (power-of-two sized and aligned), so overlap tests are interval tests.
func (s *State) DataPageDecision(page, size uint64) (read, write, uniform bool) {
	if !s.Enabled {
		return true, true, true
	}
	last := page + size - 1
	for i := range s.Bank.Data {
		r := &s.Bank.Data[i]
		if !r.Valid {
			continue
		}
		lo, hi := r.BasePrefix, r.BasePrefix+r.LSBMask
		if hi < page || lo > last {
			continue // disjoint from the window
		}
		if lo <= page && hi >= last {
			// First region reached that intersects the window contains it
			// entirely: first-match semantics give it the whole window.
			return r.Read, r.Write, true
		}
		// Partial overlap: the first-match decision differs within the
		// window.
		return false, false, false
	}
	// No region intersects the window: uniformly out of bounds.
	return false, false, true
}

// PeekData reports whether an access would pass CheckData, without
// mutating MSR or sandbox state. The timing simulator uses this for
// speculative (not yet committed) accesses: a failing speculative access
// must not update the cache, but it must also not architecturally disable
// the sandbox until the instruction reaches commit.
func (s *State) PeekData(addr uint64, size uint8, write bool) bool {
	if !s.Enabled {
		return true
	}
	s.ChecksData++
	last := addr + uint64(size) - 1
	for i := range s.Bank.Data {
		r := &s.Bank.Data[i]
		if !r.Contains(addr) {
			continue
		}
		if !r.Contains(last) {
			return false
		}
		if write {
			return r.Write
		}
		return r.Read
	}
	return false
}

// CheckExec performs the implicit code-region check on an instruction
// fetch at pc. Hardware applies this in parallel with decode; a failing
// fetch is translated into a faulting NOP micro-op so out-of-bounds code
// never executes, speculatively or otherwise (§4.1).
func (s *State) CheckExec(pc uint64) *Fault {
	if !s.Enabled {
		return nil
	}
	s.ChecksCode++
	for i := range s.Bank.Code {
		r := &s.Bank.Code[i]
		if r.Contains(pc) {
			if r.Exec {
				return nil
			}
			return s.fault(FaultCodeBounds, pc, false)
		}
	}
	return s.fault(FaultCodeBounds, pc, false)
}

// ExecPageDecision is CheckExec's analogue of DataPageDecision: it reports
// whether the code-region decision is uniform across every pc in
// [page, page+size) — the same first-matching code region (or none) applies
// to every byte. When uniform, exec carries that region's permission (false
// if no region matches). Non-mutating; exists for the interpreter's
// exec-permission cache, whose entries stay valid until Gen changes.
func (s *State) ExecPageDecision(page, size uint64) (exec, uniform bool) {
	if !s.Enabled {
		return true, true
	}
	last := page + size - 1
	for i := range s.Bank.Code {
		r := &s.Bank.Code[i]
		if !r.Valid {
			continue
		}
		lo, hi := r.BasePrefix, r.BasePrefix+r.LSBMask
		if hi < page || lo > last {
			continue // disjoint from the window
		}
		if lo <= page && hi >= last {
			return r.Exec, true
		}
		// Partial overlap: first-match decisions differ within the window.
		return false, false
	}
	return false, true
}

// PeekExec reports whether a fetch at pc would pass, without mutating state.
func (s *State) PeekExec(pc uint64) bool {
	if !s.Enabled {
		return true
	}
	s.ChecksCode++
	for i := range s.Bank.Code {
		r := &s.Bank.Code[i]
		if r.Contains(pc) {
			return r.Exec
		}
	}
	return false
}

// ExplicitEA computes and checks the effective address of an hmov access
// against explicit region hreg (§4.2). Mirroring the hardware:
//
//  1. the base operand is ignored and replaced with the region base;
//  2. index and displacement must be non-negative (sign-bit checks);
//  3. offset = index*scale + disp must not overflow;
//  4. the access [offset, offset+size) must satisfy offset+size <= bound,
//     which hardware validates with a single 32-bit comparator thanks to
//     the large/small alignment constraints.
//
// On success it returns the absolute effective address. Failures record the
// MSR and disable the sandbox exactly like implicit-region faults. hmov
// outside HFI mode is architecturally undefined; we trap it as a privileged
// fault so misuse is caught loudly.
func (s *State) ExplicitEA(hreg int, index uint64, scale uint8, disp int64, size uint8, write bool) (uint64, *Fault) {
	if !s.Enabled {
		return 0, s.fault(FaultPrivileged, 0, write)
	}
	s.ChecksExpl++
	if hreg < 0 || hreg >= NumExplicitRegions {
		return 0, s.fault(FaultExplicitInvalid, 0, write)
	}
	r := &s.Bank.Expl[hreg]
	if !r.Valid {
		return 0, s.fault(FaultExplicitInvalid, 0, write)
	}
	if disp < 0 || int64(index) < 0 {
		return 0, s.fault(FaultExplicitNegative, r.Base, write)
	}
	hi, scaled := bits.Mul64(index, uint64(scale))
	if hi != 0 {
		return 0, s.fault(FaultExplicitOverflow, r.Base, write)
	}
	offset, c := bits.Add64(scaled, uint64(disp), 0)
	if c != 0 {
		return 0, s.fault(FaultExplicitOverflow, r.Base, write)
	}
	end, c := bits.Add64(offset, uint64(size), 0)
	if c != 0 || end > r.Bound {
		return 0, s.fault(FaultExplicitBounds, r.Base+offset, write)
	}
	if write && !r.Write {
		return 0, s.fault(FaultExplicitPerm, r.Base+offset, true)
	}
	if !write && !r.Read {
		return 0, s.fault(FaultExplicitPerm, r.Base+offset, false)
	}
	return r.Base + offset, nil
}

// PeekExplicitEA is the speculative (non-mutating) variant of ExplicitEA:
// it returns the effective address and whether the access would be allowed.
func (s *State) PeekExplicitEA(hreg int, index uint64, scale uint8, disp int64, size uint8, write bool) (uint64, bool) {
	if !s.Enabled || hreg < 0 || hreg >= NumExplicitRegions {
		return 0, false
	}
	s.ChecksExpl++
	r := &s.Bank.Expl[hreg]
	if !r.Valid || disp < 0 || int64(index) < 0 {
		return 0, false
	}
	hi, scaled := bits.Mul64(index, uint64(scale))
	if hi != 0 {
		return 0, false
	}
	offset, c := bits.Add64(scaled, uint64(disp), 0)
	if c != 0 {
		return 0, false
	}
	end, c := bits.Add64(offset, uint64(size), 0)
	if c != 0 || end > r.Bound {
		return 0, false
	}
	if write && !r.Write || !write && !r.Read {
		return 0, false
	}
	return r.Base + offset, true
}
