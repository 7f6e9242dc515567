package hfi

import "encoding/binary"

// XsaveSize is the size in bytes of the HFI component of an xsave area:
// both register banks (active + shadow), the MSR pair, and the mode/valid
// flags. The paper's save-hfi-regs xsave flag (§3.3.3) makes the OS save
// and restore exactly this state across process context switches.
const XsaveSize = 2*bankEncodedSize + 8 /* msr */ + 8 /* flags */

const bankEncodedSize = (NumCodeRegions+NumDataRegions+NumExplicitRegions)*RegionTSize + SandboxTSize

func encodeBank(b *Bank, buf []byte) int {
	off := 0
	for i := range b.Code {
		r := EncodeImplicitRegion(b.Code[i])
		if b.Code[i].Valid {
			r[24] = 1 // reserved word doubles as valid flag in the save image
		}
		copy(buf[off:], r[:])
		off += RegionTSize
	}
	for i := range b.Data {
		r := EncodeImplicitRegion(b.Data[i])
		if b.Data[i].Valid {
			r[24] = 1
		}
		copy(buf[off:], r[:])
		off += RegionTSize
	}
	for i := range b.Expl {
		r := EncodeExplicitRegion(b.Expl[i])
		if b.Expl[i].Valid {
			r[24] = 1
		}
		copy(buf[off:], r[:])
		off += RegionTSize
	}
	sb := EncodeSandboxT(b.Cfg)
	copy(buf[off:], sb[:])
	off += SandboxTSize
	return off
}

func decodeBank(b *Bank, buf []byte) int {
	off := 0
	for i := range b.Code {
		b.Code[i] = DecodeImplicitRegion(buf[off:])
		b.Code[i].Valid = buf[off+24] == 1
		off += RegionTSize
	}
	for i := range b.Data {
		b.Data[i] = DecodeImplicitRegion(buf[off:])
		b.Data[i].Valid = buf[off+24] == 1
		off += RegionTSize
	}
	for i := range b.Expl {
		b.Expl[i] = DecodeExplicitRegion(buf[off:])
		b.Expl[i].Valid = buf[off+24] == 1
		off += RegionTSize
	}
	b.Cfg = DecodeSandboxT(buf[off:])
	off += SandboxTSize
	return off
}

// Xsave serializes the complete HFI state into an xsave area image. It is
// used by the simulated OS on context switch and by the guest xsave
// instruction (which traps in native sandboxes before reaching here).
func (s *State) Xsave() [XsaveSize]byte {
	var buf [XsaveSize]byte
	off := encodeBank(&s.Bank, buf[:])
	off += encodeBank(&s.saved, buf[off:])
	binary.LittleEndian.PutUint32(buf[off:], uint32(s.MSR))
	binary.LittleEndian.PutUint32(buf[off+4:], 0)
	off += 8
	var flags uint64
	if s.Enabled {
		flags |= 1
	}
	if s.savedValid {
		flags |= 2
	}
	binary.LittleEndian.PutUint64(buf[off:], flags)
	return buf
}

// Xrstor restores HFI state from an xsave image produced by Xsave.
// Restoring while a native sandbox is running breaks isolation, so the
// execution engines trap that case (via PrivilegedAllowed) before calling
// here.
//
// Every valid region in the image is programmed through the setters'
// validation and permission masking, so a restored bank can hold nothing
// SetCodeRegion/SetDataRegion/SetExplicitRegion would refuse — the page
// decisions the fast paths trust assume size-aligned regions. A malformed
// image raises FaultBadConfig (hardware's #GP on a bad xrstor area) and
// installs nothing.
func (s *State) Xrstor(buf []byte) *Fault {
	var bank, saved Bank
	off := decodeBank(&bank, buf)
	off += decodeBank(&saved, buf[off:])
	for _, b := range []*Bank{&bank, &saved} {
		if addr, err := b.sanitize(); err != nil {
			return s.fault(FaultBadConfig, addr, false)
		}
	}
	s.Bank, s.saved = bank, saved
	s.MSR = ExitReason(binary.LittleEndian.Uint32(buf[off:]))
	off += 8
	flags := binary.LittleEndian.Uint64(buf[off:])
	s.Enabled = flags&1 != 0
	s.savedValid = flags&2 != 0
	s.Gen++
	return nil
}

// sanitize applies the region setters' validation and permission masking
// to every valid region of a decoded bank. On a malformed region it
// returns the address the setter would have faulted with.
func (b *Bank) sanitize() (uint64, error) {
	for i := range b.Code {
		r := &b.Code[i]
		if !r.Valid {
			continue
		}
		if err := r.Validate(); err != nil {
			return r.BasePrefix, err
		}
		r.Read, r.Write = false, false // code regions carry only Exec
	}
	for i := range b.Data {
		r := &b.Data[i]
		if !r.Valid {
			continue
		}
		if err := r.Validate(); err != nil {
			return r.BasePrefix, err
		}
		r.Exec = false // data regions never grant execute
	}
	for i := range b.Expl {
		if r := &b.Expl[i]; r.Valid {
			if err := r.Validate(); err != nil {
				return r.Base, err
			}
		}
	}
	return 0, nil
}
