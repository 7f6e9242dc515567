package hfi

import (
	"testing"
	"testing/quick"
)

func TestImplicitRegionValidate(t *testing.T) {
	cases := []struct {
		r  ImplicitRegion
		ok bool
	}{
		{ImplicitRegion{BasePrefix: 0x10000, LSBMask: 0xffff}, true},
		{ImplicitRegion{BasePrefix: 0, LSBMask: 0}, true},             // 1-byte region
		{ImplicitRegion{BasePrefix: 0x10000, LSBMask: 0xfffe}, false}, // not 2^k-1
		{ImplicitRegion{BasePrefix: 0x18000, LSBMask: 0xffff}, false}, // misaligned
		{ImplicitRegion{BasePrefix: 1 << 40, LSBMask: (1 << 30) - 1}, true},
	}
	for i, c := range cases {
		if err := c.r.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestExplicitRegionValidate(t *testing.T) {
	cases := []struct {
		r  ExplicitRegion
		ok bool
	}{
		// Large regions: 64 KiB granular, up to 256 TiB.
		{ExplicitRegion{Base: 0x10000, Bound: 0x20000, Large: true}, true},
		{ExplicitRegion{Base: 0x10001, Bound: 0x10000, Large: true}, false}, // unaligned base
		{ExplicitRegion{Base: 0x10000, Bound: 0x10001, Large: true}, false}, // unaligned bound
		{ExplicitRegion{Base: 0, Bound: LargeRegionMaxBound, Large: true}, true},
		{ExplicitRegion{Base: 0, Bound: LargeRegionMaxBound + 0x10000, Large: true}, false},
		// Small regions: byte granular up to 4 GiB, no 4 GiB crossing.
		{ExplicitRegion{Base: 0x12345, Bound: 0x333}, true},
		{ExplicitRegion{Base: 0xffff0000, Bound: 0x20000}, false}, // crosses 4 GiB
		{ExplicitRegion{Base: 1<<32 - 1, Bound: 1}, true},         // last byte below the boundary
		{ExplicitRegion{Base: 0, Bound: SmallRegionMaxBound + 1}, false},
	}
	for i, c := range cases {
		if err := c.r.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

// TestImplicitContainsProperty: prefix matching is exactly range membership
// for power-of-two aligned regions.
func TestImplicitContainsProperty(t *testing.T) {
	prop := func(baseSeed uint64, sizeBits uint8, addr uint64) bool {
		bits := uint(sizeBits%32) + 4 // 16 B .. sizeable
		size := uint64(1) << bits
		base := (baseSeed << bits) & ((1 << 47) - 1) // aligned base within VA
		r := ImplicitRegion{BasePrefix: base, LSBMask: size - 1, Valid: true}
		inRange := addr >= base && addr < base+size
		return r.Contains(addr) == inRange
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func newTestState(t *testing.T) *State {
	t.Helper()
	s := NewState()
	if f := s.SetCodeRegion(0, ImplicitRegion{BasePrefix: 0x1000, LSBMask: 0xfff, Exec: true}); f != nil {
		t.Fatal(f)
	}
	if f := s.SetDataRegion(0, ImplicitRegion{BasePrefix: 0x100000, LSBMask: 0xffff, Read: true, Write: true}); f != nil {
		t.Fatal(f)
	}
	if f := s.SetDataRegion(1, ImplicitRegion{BasePrefix: 0x200000, LSBMask: 0xffff, Read: true}); f != nil {
		t.Fatal(f)
	}
	if f := s.SetExplicitRegion(0, ExplicitRegion{Base: 0x300000, Bound: 0x10000, Read: true, Write: true, Large: true}); f != nil {
		t.Fatal(f)
	}
	return s
}

func TestCheckDataFirstMatch(t *testing.T) {
	s := newTestState(t)
	s.Enter(Config{Hybrid: true})

	if f := s.CheckData(0x100010, 8, true); f != nil {
		t.Fatalf("rw region write: %v", f)
	}
	if f := s.CheckData(0x200010, 8, false); f != nil {
		t.Fatalf("ro region read: %v", f)
	}
	f := s.CheckData(0x200010, 8, true)
	if f == nil || f.Reason != FaultDataPerm {
		t.Fatalf("ro region write: fault = %v, want data-perm", f)
	}
	// Faults disable the sandbox.
	if s.Enabled {
		t.Fatal("sandbox still enabled after fault")
	}

	// Re-enter; out-of-all-regions access faults with data-bounds.
	if _, f := s.Reenter(); f != nil {
		t.Fatal(f)
	}
	f = s.CheckData(0x500000, 1, false)
	if f == nil || f.Reason != FaultDataBounds {
		t.Fatalf("unmatched access: fault = %v, want data-bounds", f)
	}

	// An access straddling the region edge faults.
	if _, f := s.Reenter(); f != nil {
		t.Fatal(f)
	}
	if f := s.CheckData(0x10fffc, 8, false); f == nil {
		t.Fatal("straddling access did not fault")
	}
}

func TestCheckDataDisabledPasses(t *testing.T) {
	s := NewState()
	if f := s.CheckData(0xdeadbeef, 8, true); f != nil {
		t.Fatalf("disabled HFI should not check: %v", f)
	}
	if f := s.CheckExec(0xdeadbeef); f != nil {
		t.Fatalf("disabled HFI should not check fetches: %v", f)
	}
}

func TestExplicitEASemantics(t *testing.T) {
	s := newTestState(t)
	s.Enter(Config{Hybrid: true})

	ea, f := s.ExplicitEA(0, 0x100, 4, 0x20, 8, true)
	if f != nil {
		t.Fatal(f)
	}
	if want := uint64(0x300000 + 0x100*4 + 0x20); ea != want {
		t.Fatalf("ea = %#x, want %#x", ea, want)
	}

	// Exactly at the bound: last byte must fit.
	if _, f := s.ExplicitEA(0, 0x10000-8, 1, 0, 8, false); f != nil {
		t.Fatalf("at-bound access: %v", f)
	}
	if _, f := s.ExplicitEA(0, 0x10000-7, 1, 0, 8, false); f == nil {
		t.Fatal("one-past-bound access did not fault")
	}

	// Negative index and displacement trap (the hmov sign checks).
	s.Reenter()
	if _, f := s.ExplicitEA(0, ^uint64(0), 1, 0, 1, false); f == nil || f.Reason != FaultExplicitNegative {
		t.Fatalf("negative index: %v", f)
	}
	s.Reenter()
	if _, f := s.ExplicitEA(0, 0, 1, -8, 1, false); f == nil || f.Reason != FaultExplicitNegative {
		t.Fatalf("negative displacement: %v", f)
	}

	// Overflowing effective-address computation traps.
	s.Reenter()
	if _, f := s.ExplicitEA(0, 1<<62, 8, 0, 1, false); f == nil || f.Reason != FaultExplicitOverflow {
		t.Fatalf("overflow: %v", f)
	}

	// Cleared region traps.
	s.Reenter()
	if f := s.ClearRegion(RegionExplicitBase + 0); f != nil {
		t.Fatal(f)
	}
	if _, f := s.ExplicitEA(0, 0, 1, 0, 1, false); f == nil || f.Reason != FaultExplicitInvalid {
		t.Fatalf("cleared region: %v", f)
	}
}

// TestExplicitEAProperty: every accepted access lies within [base,
// base+bound] and peek agrees with the mutating check.
func TestExplicitEAProperty(t *testing.T) {
	prop := func(index uint32, disp uint16, size8 bool) bool {
		s := NewState()
		s.SetExplicitRegion(0, ExplicitRegion{Base: 0x40000000, Bound: 0x100000, Read: true, Write: true})
		s.Enter(Config{Hybrid: true})
		size := uint8(1)
		if size8 {
			size = 8
		}
		peekEA, peekOK := s.PeekExplicitEA(0, uint64(index), 1, int64(disp), size, false)
		ea, f := s.ExplicitEA(0, uint64(index), 1, int64(disp), size, false)
		if (f == nil) != peekOK {
			return false
		}
		if f == nil {
			if ea != peekEA {
				return false
			}
			return ea >= 0x40000000 && ea+uint64(size) <= 0x40000000+0x100000
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestNativeSandboxLocksRegions(t *testing.T) {
	s := newTestState(t)
	if _, f := s.Enter(Config{Hybrid: false}); f != nil {
		t.Fatal(f)
	}
	// All region updates must fault while a native sandbox runs.
	if f := s.SetDataRegion(0, ImplicitRegion{BasePrefix: 0, LSBMask: 0xfff}); f == nil {
		t.Fatal("native sandbox could update a region register")
	}
	// The fault also tore down the sandbox; restore and check clears too.
	s.Reenter()
	if f := s.ClearAllRegions(); f == nil {
		t.Fatal("native sandbox could clear regions")
	}
	// Nested enter is privileged.
	s.Reenter()
	if _, f := s.Enter(Config{Hybrid: true}); f == nil {
		t.Fatal("native sandbox could re-enter")
	}
}

func TestHybridSandboxUpdatesAllowed(t *testing.T) {
	s := newTestState(t)
	if _, f := s.Enter(Config{Hybrid: true}); f != nil {
		t.Fatal(f)
	}
	if f := s.SetExplicitRegion(1, ExplicitRegion{Base: 0x400000, Bound: 0x1000, Read: true}); f != nil {
		t.Fatalf("hybrid sandbox region update: %v", f)
	}
	if !s.RegionUpdateSerializes() {
		t.Fatal("in-sandbox region updates must serialize (§4.3)")
	}
	if !s.SyscallAllowed() {
		t.Fatal("hybrid sandboxes make direct syscalls")
	}
}

func TestExitAndMSR(t *testing.T) {
	s := newTestState(t)
	s.Enter(Config{Hybrid: false, ExitHandler: 0xcafe0000})
	res := s.Exit()
	if res.Handler != 0xcafe0000 {
		t.Fatalf("handler = %#x", res.Handler)
	}
	if s.Enabled {
		t.Fatal("still enabled after exit")
	}
	if r, _ := s.ReadMSR(); r != ExitInstruction {
		t.Fatalf("MSR = %v", r)
	}

	// Syscall exit records the syscall number.
	s.Reenter()
	res = s.SyscallExit(42)
	if res.Handler != 0xcafe0000 {
		t.Fatal("syscall exit lost the handler")
	}
	if r, info := s.ReadMSR(); r != ExitSyscall || info != 42 {
		t.Fatalf("MSR = %v/%d", r, info)
	}
}

func TestSwitchOnExit(t *testing.T) {
	s := newTestState(t)
	// The trusted runtime enters its own hybrid sandbox.
	if _, f := s.Enter(Config{Hybrid: true, Serialized: true}); f != nil {
		t.Fatal(f)
	}
	runtimeBank := s.Bank

	// Enter a child with switch-on-exit and different regions.
	if f := s.SetDataRegion(0, ImplicitRegion{BasePrefix: 0x700000, LSBMask: 0xfff, Read: true}); f != nil {
		t.Fatal(f)
	}
	childRegion := s.Bank.Data[0]
	if _, f := s.Enter(Config{Hybrid: true, SwitchOnExit: true}); f != nil {
		t.Fatal(f)
	}
	if s.Bank.Data[0] != childRegion {
		t.Fatal("child bank lost its region")
	}

	// Exit switches back to the saved bank instead of disabling HFI.
	res := s.Exit()
	if !res.SwitchedBack {
		t.Fatal("exit did not switch back")
	}
	if !s.Enabled {
		t.Fatal("switch-on-exit exit disabled HFI")
	}
	if s.Bank.Cfg != runtimeBank.Cfg {
		t.Fatal("restored config differs")
	}
	// A second exit (the runtime's own) disables HFI.
	res = s.Exit()
	if res.SwitchedBack || s.Enabled {
		t.Fatal("runtime exit should disable HFI")
	}
}

func TestXsaveRoundtrip(t *testing.T) {
	s := newTestState(t)
	s.Enter(Config{Hybrid: true, Serialized: true, ExitHandler: 0x1234})
	s.MSR = ExitSyscall
	img := s.Xsave()

	var r State
	r.Xrstor(img[:])
	if r.Enabled != s.Enabled || r.MSR != s.MSR {
		t.Fatal("mode/MSR not restored")
	}
	if r.Bank.Cfg != s.Bank.Cfg {
		t.Fatalf("config not restored: %+v vs %+v", r.Bank.Cfg, s.Bank.Cfg)
	}
	if r.Bank.Data != s.Bank.Data || r.Bank.Code != s.Bank.Code || r.Bank.Expl != s.Bank.Expl {
		t.Fatal("regions not restored")
	}
}

// TestXsaveRoundtripProperty: arbitrary saved states restore exactly.
func TestXsaveRoundtripProperty(t *testing.T) {
	prop := func(base uint64, bits uint8, read, write, hybrid, enabled bool) bool {
		var s State
		size := uint64(1) << (4 + bits%28)
		s.Bank.Data[2] = ImplicitRegion{
			BasePrefix: base &^ (size - 1), LSBMask: size - 1,
			Read: read, Write: write, Valid: true,
		}
		s.Bank.Cfg = Config{Hybrid: hybrid, ExitHandler: base ^ 0x5555}
		s.Enabled = enabled
		img := s.Xsave()
		var r State
		r.Xrstor(img[:])
		return r.Bank.Data == s.Bank.Data && r.Bank.Cfg == s.Bank.Cfg && r.Enabled == s.Enabled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutRoundtrip(t *testing.T) {
	ir := ImplicitRegion{BasePrefix: 0xabc000, LSBMask: 0xfff, Read: true, Exec: true}
	buf := EncodeImplicitRegion(ir)
	got := DecodeImplicitRegion(buf[:])
	if got.BasePrefix != ir.BasePrefix || got.LSBMask != ir.LSBMask || got.Read != ir.Read || got.Exec != ir.Exec {
		t.Fatalf("implicit roundtrip: %+v vs %+v", got, ir)
	}

	er := ExplicitRegion{Base: 0x10000, Bound: 0x40000, Write: true, Large: true}
	ebuf := EncodeExplicitRegion(er)
	egot := DecodeExplicitRegion(ebuf[:])
	if egot.Base != er.Base || egot.Bound != er.Bound || egot.Write != er.Write || egot.Large != er.Large {
		t.Fatalf("explicit roundtrip: %+v vs %+v", egot, er)
	}

	cfg := Config{Hybrid: true, Serialized: true, SwitchOnExit: true, ExitHandler: 0xdead, RegionsPtr: 0xbeef, RegionCount: 3}
	sbuf := EncodeSandboxT(cfg)
	if got := DecodeSandboxT(sbuf[:]); got != cfg {
		t.Fatalf("sandbox_t roundtrip: %+v vs %+v", got, cfg)
	}
}

func TestRegionNumbering(t *testing.T) {
	s := NewState()
	// Program each region through the flat-number interface.
	ir := EncodeImplicitRegion(ImplicitRegion{BasePrefix: 0x1000, LSBMask: 0xfff, Exec: true})
	if f := s.SetRegionByNumber(0, ir[:]); f != nil {
		t.Fatal(f)
	}
	dr := EncodeImplicitRegion(ImplicitRegion{BasePrefix: 0x10000, LSBMask: 0xffff, Read: true})
	if f := s.SetRegionByNumber(RegionDataBase, dr[:]); f != nil {
		t.Fatal(f)
	}
	er := EncodeExplicitRegion(ExplicitRegion{Base: 0x20000, Bound: 0x10000, Read: true, Large: true})
	if f := s.SetRegionByNumber(RegionExplicitBase, er[:]); f != nil {
		t.Fatal(f)
	}
	if !s.Bank.Code[0].Valid || !s.Bank.Data[0].Valid || !s.Bank.Expl[0].Valid {
		t.Fatal("regions not set")
	}
	// Out-of-range number faults.
	if f := s.SetRegionByNumber(NumRegions, ir[:]); f == nil {
		t.Fatal("out-of-range region number accepted")
	}
	// Get round-trips.
	buf, ok := s.GetRegionByNumber(RegionExplicitBase)
	if !ok {
		t.Fatal("get failed")
	}
	if got := DecodeExplicitRegion(buf[:]); got.Base != 0x20000 {
		t.Fatalf("get returned %+v", got)
	}
}

func TestReenterWithoutExitFaults(t *testing.T) {
	s := NewState()
	if _, f := s.Reenter(); f == nil {
		t.Fatal("reenter with no prior sandbox should fault")
	}
}

func TestCodeRegionDropsDataPerms(t *testing.T) {
	s := NewState()
	if f := s.SetCodeRegion(0, ImplicitRegion{BasePrefix: 0x1000, LSBMask: 0xfff, Read: true, Write: true, Exec: true}); f != nil {
		t.Fatal(f)
	}
	if s.Bank.Code[0].Read || s.Bank.Code[0].Write {
		t.Fatal("code regions must carry only execute permission")
	}
	if f := s.SetDataRegion(0, ImplicitRegion{BasePrefix: 0x2000, LSBMask: 0xfff, Read: true, Exec: true}); f != nil {
		t.Fatal(f)
	}
	if s.Bank.Data[0].Exec {
		t.Fatal("data regions must not grant execute")
	}
}

// TestXsavePreservesSwitchOnExitBank: a context switch in the middle of a
// switch-on-exit nesting must preserve the saved trusted-runtime bank.
func TestXsavePreservesSwitchOnExitBank(t *testing.T) {
	s := newTestState(t)
	if _, f := s.Enter(Config{Hybrid: true, Serialized: true}); f != nil {
		t.Fatal(f)
	}
	runtimeCfg := s.Bank.Cfg
	if _, f := s.Enter(Config{Hybrid: true, SwitchOnExit: true}); f != nil {
		t.Fatal(f)
	}

	img := s.Xsave()
	var r State
	r.Xrstor(img[:])

	// The restored state must still switch back to the runtime bank.
	res := r.Exit()
	if !res.SwitchedBack || !r.Enabled {
		t.Fatal("restored state lost the shadow bank")
	}
	if r.Bank.Cfg != runtimeCfg {
		t.Fatalf("restored runtime config %+v, want %+v", r.Bank.Cfg, runtimeCfg)
	}
}

// TestXrstorRejectsMalformedRegion: an xsave image carrying a data region
// no setter would accept (base 0x1010 not aligned to its 4 KiB size) must
// not be installed. Installed, it splits the two definitions of the data
// check: the interval-based DataPageDecision grants [0x1100, 0x1200)
// uniformly while the prefix-based CheckData faults every access in it,
// and the decision caches both engines trust would grant what the check
// denies. Xrstor must fault bad-config and leave the banks as they were.
func TestXrstorRejectsMalformedRegion(t *testing.T) {
	var src State
	src.Bank.Data[0] = ImplicitRegion{BasePrefix: 0x1010, LSBMask: 0xfff, Read: true, Write: true, Valid: true}
	src.Bank.Cfg = Config{Hybrid: true}
	src.Enabled = true
	img := src.Xsave()

	s := newTestState(t)
	before := s.Bank
	f := s.Xrstor(img[:])
	if f == nil || f.Reason != FaultBadConfig {
		t.Fatalf("Xrstor of a misaligned region = %v, want a bad-config fault", f)
	}
	if s.Bank != before {
		t.Fatalf("a refused image changed the banks:\nbefore %+v\nafter  %+v", before, s.Bank)
	}
	// Whatever state the restore left, every access the page decision
	// grants uniformly over the window must pass the check.
	const page, size = 0x1100, 0x100
	r, w, uniform := s.DataPageDecision(page, size)
	for addr := uint64(page); addr+8 <= page+size; addr += 8 {
		for _, write := range []bool{false, true} {
			if !uniform || !(write && w || !write && r) {
				continue
			}
			if cf := s.CheckData(addr, 8, write); cf != nil {
				t.Fatalf("DataPageDecision grants %#x (write=%v) but CheckData faults %v", addr, write, cf.Reason)
			}
		}
	}
}

// TestXrstorMasksPermissions: a restored code region carries only Exec and
// a restored data region never Exec, as the setters enforce.
func TestXrstorMasksPermissions(t *testing.T) {
	var src State
	src.Bank.Code[0] = ImplicitRegion{BasePrefix: 0x1000, LSBMask: 0xfff, Read: true, Write: true, Exec: true, Valid: true}
	src.Bank.Data[0] = ImplicitRegion{BasePrefix: 0x100000, LSBMask: 0xffff, Read: true, Exec: true, Valid: true}
	img := src.Xsave()
	var s State
	if f := s.Xrstor(img[:]); f != nil {
		t.Fatal(f)
	}
	if c := s.Bank.Code[0]; c.Read || c.Write || !c.Exec || !c.Valid {
		t.Fatalf("restored code region %+v, want exec-only", c)
	}
	if d := s.Bank.Data[0]; d.Exec || !d.Read || !d.Valid {
		t.Fatalf("restored data region %+v, want read without exec", d)
	}
}
