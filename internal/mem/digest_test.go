package mem

import (
	"fmt"
	"testing"
)

// sameContent is the test-side reference for Digest: a direct byte
// comparison of [addr, addr+length) in two memories, absent pages reading
// as zero. It walks the page maps itself so it shares nothing with
// residentPages.
func sameContent(a, b *Memory, addr, length uint64) bool {
	var zero [PageSize]byte
	pageOf := func(m *Memory, idx uint64) *[PageSize]byte {
		if p := m.pages[idx]; p != nil {
			return p
		}
		return &zero
	}
	for _, m := range []*Memory{a, b} {
		for idx := range m.pages {
			pa, pb := pageOf(a, idx), pageOf(b, idx)
			for i := range pa {
				// Unsigned compare: true exactly for addr <= x < addr+length.
				if x := idx<<PageBits + uint64(i); x-addr < length && pa[i] != pb[i] {
					return false
				}
			}
		}
	}
	return true
}

// digestFixture returns a memory holding two data pages inside the 16-page
// range at base, the rest of the range never written.
func digestFixture(base uint64) *Memory {
	m := NewMemory()
	m.WriteBytes(base+0x10, []byte("data segment one"))
	m.WriteBytes(base+5*PageSize+0x7f8, []byte("segment two, straddling nothing"))
	return m
}

// TestDigestZeroEqualsAbsent: a resident all-zero page must digest like an
// absent one — what writing zeros, a benign double bit flip or a partial
// Zero leave behind is content-identical to never having touched the page.
func TestDigestZeroEqualsAbsent(t *testing.T) {
	const base, length = uint64(0x40000), uint64(16 * PageSize)
	untouched := base + 9*PageSize + 123
	cases := []struct {
		name string
		op   func(m *Memory)
	}{
		{"store zero byte", func(m *Memory) { m.StoreByte(untouched, 0) }},
		{"write zero word", func(m *Memory) { m.Write(untouched, 8, 0) }},
		{"write zero bytes across two pages", func(m *Memory) { m.WriteBytes(base+10*PageSize-8, make([]byte, 16)) }},
		{"flip a bit twice", func(m *Memory) { m.FlipBits(untouched, 0x10); m.FlipBits(untouched, 0x10) }},
		{"write then partially zero", func(m *Memory) { m.Write(untouched, 8, ^uint64(0)); m.Zero(untouched-3, 64) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := digestFixture(base)
			want, resident := m.Digest(base, length), m.ResidentBytes()
			tc.op(m)
			if m.ResidentBytes() == resident {
				t.Fatal("op left no extra resident page; the case is vacuous")
			}
			if got := m.Digest(base, length); got != want {
				t.Fatalf("digest %#x != %#x after an op that left only zeros", got, want)
			}
		})
	}
	if got := NewMemory().Digest(base, length); got != 0 {
		t.Fatalf("digest of an empty range = %#x, want 0", got)
	}
}

// TestDigestSingleBitFlips: every single-bit upset changes the digest —
// in a data page, and in a page nothing ever wrote (where the flip itself
// creates the page) — and flipping it back restores the digest.
func TestDigestSingleBitFlips(t *testing.T) {
	const base, length = uint64(0x40000), uint64(16 * PageSize)
	m := digestFixture(base)
	want := m.Digest(base, length)
	// 4099 is prime to the page size: the samples sweep every page of the
	// range at varying in-page offsets, including both range edges.
	offs := []uint64{0, 0x10, length - 1}
	for off := uint64(7); off < length; off += 4099 {
		offs = append(offs, off)
	}
	for _, off := range offs {
		for bit := 0; bit < 8; bit++ {
			mask := byte(1) << bit
			m.FlipBits(base+off, mask)
			if m.Digest(base, length) == want {
				t.Fatalf("bit %d at +%#x flipped, digest unchanged", bit, off)
			}
			m.FlipBits(base+off, mask)
		}
		if got := m.Digest(base, length); got != want {
			t.Fatalf("digest %#x != %#x after flipping +%#x back", got, want, off)
		}
	}
}

// TestDigestPositionAndLayout: the digest depends on where content sits
// inside the range (page index and in-page offset) and on nothing else —
// not the range's base address, not its length beyond the content, not
// what is resident outside it or outside the covered span of an edge page.
func TestDigestPositionAndLayout(t *testing.T) {
	const length = uint64(16 * PageSize)
	blobA, blobB := []byte("content A"), []byte("content B")
	build := func(base uint64, pageA, offA, pageB, offB uint64) *Memory {
		m := NewMemory()
		m.WriteBytes(base+pageA*PageSize+offA, blobA)
		m.WriteBytes(base+pageB*PageSize+offB, blobB)
		return m
	}
	const base = uint64(0x40000)
	ref := build(base, 2, 0x40, 7, 0x80).Digest(base, length)

	differ := []struct {
		name string
		m    *Memory
	}{
		{"A moved to another page", build(base, 3, 0x40, 7, 0x80)},
		{"B moved to another page", build(base, 2, 0x40, 11, 0x80)},
		{"A moved inside its page", build(base, 2, 0x48, 7, 0x80)},
		{"the two pages swapped", build(base, 7, 0x40, 2, 0x80)},
	}
	for _, tc := range differ {
		if got := tc.m.Digest(base, length); got == ref {
			t.Errorf("%s: digest unchanged (%#x)", tc.name, got)
		}
	}

	same := []struct {
		name         string
		base, length uint64
		extra        func(m *Memory, base uint64)
	}{
		{"another base", 0x7f0000000000, length, nil},
		{"a base near the top of the 47-bit space", 1<<47 - length, length, nil},
		{"a longer range", base, 8 << 30, nil},
		{"a shorter range that still covers the content", base, 8 * PageSize, nil},
		{"residents outside the range", base, length, func(m *Memory, base uint64) {
			m.Write(base-8, 8, 1)
			m.Write(base+length, 8, 2)
		}},
	}
	for _, tc := range same {
		m := build(tc.base, 2, 0x40, 7, 0x80)
		if tc.extra != nil {
			tc.extra(m, tc.base)
		}
		if got := m.Digest(tc.base, tc.length); got != ref {
			t.Errorf("%s: digest %#x != %#x", tc.name, got, ref)
		}
	}

	// Edge pages: bytes outside the range do not count, bytes inside do.
	m := NewMemory()
	m.WriteBytes(base+100, blobA)
	inside := m.Digest(base+100, PageSize)
	m.StoreByte(base+99, 0xff)           // before the range, same page
	m.StoreByte(base+100+PageSize, 0xff) // after the range, same page as its tail
	if got := m.Digest(base+100, PageSize); got != inside {
		t.Errorf("bytes outside an unaligned range changed its digest: %#x != %#x", got, inside)
	}
	m.StoreByte(base+100+PageSize-1, 0xff) // last byte of the range
	if got := m.Digest(base+100, PageSize); got == inside {
		t.Error("the last byte of an unaligned range is not digested")
	}
}

// TestResidentPagesWalk pins the one iterator under Zero, ResidentIn and
// Digest: whichever walk its rule picks, it visits exactly the resident
// pages overlapping the range, clips the two edge pages to the range, and
// examines min(range slots, table size) page-table slots.
func TestResidentPagesWalk(t *testing.T) {
	type visit struct {
		idx      uint64
		from, to int
	}
	resident := []uint64{1, 2, 5, 9, 1 << 20}
	cases := []struct {
		name         string
		addr, length uint64
		want         []visit
		examined     int
	}{
		{"empty at zero", 0, 0, nil, 0},
		{"empty elsewhere", 5 * PageSize, 0, nil, 0},
		{"one byte", 5*PageSize + 7, 1, []visit{{5, 7, 8}}, 1},
		{"aligned pages, range walk", PageSize, 2 * PageSize, []visit{{1, 0, PageSize}, {2, 0, PageSize}}, 2},
		{"unaligned, range walk", 2*PageSize - 1, PageSize + 2, []visit{{1, PageSize - 1, PageSize}, {2, 0, PageSize}}, 3},
		{"hole", 3 * PageSize, 2 * PageSize, nil, 2},
		{"unaligned, table walk", PageSize + 16, 8 * PageSize, []visit{{1, 16, PageSize}, {2, 0, PageSize}, {5, 0, PageSize}, {9, 0, 16}}, 5},
		{"whole 47-bit space", 0, 1 << 47, []visit{{1, 0, PageSize}, {2, 0, PageSize}, {5, 0, PageSize}, {9, 0, PageSize}, {1 << 20, 0, PageSize}}, 5},
		{"top of the 47-bit space", 1<<47 - PageSize, PageSize, nil, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMemory()
			for _, idx := range resident {
				m.StoreByte(idx<<PageBits, 1)
			}
			got := map[visit]bool{}
			examined := m.residentPages(tc.addr, tc.length, func(idx uint64, p *[PageSize]byte, from, to int) {
				if p != m.pages[idx] {
					t.Errorf("page %d: handed a page that is not the table's", idx)
				}
				v := visit{idx, from, to}
				if got[v] {
					t.Errorf("visited %+v twice", v)
				}
				got[v] = true
			})
			if len(got) != len(tc.want) {
				t.Errorf("visited %v, want %v", got, tc.want)
			}
			for _, v := range tc.want {
				if !got[v] {
					t.Errorf("missed %+v (visited %v)", v, got)
				}
			}
			if examined != tc.examined {
				t.Errorf("examined %d page-table slots, want %d", examined, tc.examined)
			}
		})
	}
}

// TestDigestCostFollowsResidentPages is the gate with no wall clock in it:
// digesting an 8 GiB reservation that holds k resident pages visits k
// pages and examines no more slots than the table has entries (a walk of
// the range would examine two million).
func TestDigestCostFollowsResidentPages(t *testing.T) {
	const base, reservation = uint64(1 << 40), uint64(8 << 30)
	for _, k := range []int{0, 1, 3, 64} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			m := NewMemory()
			m.Write(base-PageSize, 8, 1)    // resident, below the range
			m.Write(base+reservation, 8, 1) // resident, above it
			for i := 0; i < k; i++ {
				m.Write(base+uint64(i)*(reservation/64)+8, 8, uint64(i)+1)
			}
			visited := 0
			examined := m.residentPages(base, reservation, func(uint64, *[PageSize]byte, int, int) { visited++ })
			if visited != k || examined != k+2 {
				t.Fatalf("visited %d pages examining %d slots, want %d and %d", visited, examined, k, k+2)
			}
			if got := m.ResidentIn(base, reservation); got != uint64(k)*PageSize {
				t.Fatalf("ResidentIn = %d, want %d", got, k*PageSize)
			}
			if allocs := testing.AllocsPerRun(10, func() { m.Digest(base, reservation) }); allocs != 0 {
				t.Fatalf("Digest allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// digestSlots are the disjoint two-page windows FuzzHeapDigest confines its
// operations to: address 0, one a page apart from it, two that abut, a far
// one, and the very top of the 47-bit user address space.
var digestSlots = [...]uint64{0, 3 * PageSize, 1 << 30, 1<<30 + 2*PageSize, 1 << 40, 1<<47 - 2*PageSize}

const digestSlotSize = 2 * PageSize

// digestOp is one decoded fuzz operation, confined to one slot.
type digestOp struct {
	kind, slot uint8
	off, n     uint64 // off+n <= digestSlotSize
	val        byte
}

func (op digestOp) apply(m *Memory) {
	addr := digestSlots[op.slot] + op.off
	switch op.kind {
	case 0: // write n copies of val
		buf := make([]byte, op.n)
		for i := range buf {
			buf[i] = op.val
		}
		m.WriteBytes(addr, buf)
	case 1: // write n zeros
		m.WriteBytes(addr, make([]byte, op.n))
	case 2: // madvise-style discard, possibly of length 0
		m.Zero(addr, op.n)
	case 3: // DRAM upset
		m.FlipBits(addr, op.val)
	}
}

// decodeDigestOps reads five bytes per operation.
func decodeDigestOps(data []byte) []digestOp {
	var ops []digestOp
	for ; len(data) >= 5; data = data[5:] {
		op := digestOp{kind: data[0] & 3, slot: (data[0] >> 2) % uint8(len(digestSlots)), val: data[4]}
		op.off = (uint64(data[1])<<8 | uint64(data[2])) % digestSlotSize
		switch op.kind {
		case 0, 1:
			op.n = uint64(data[3])%32 + 1
		case 2:
			op.n = uint64(data[3]) << 5 // 0 .. 8160: empty, sub-page, whole pages
		}
		if op.off+op.n > digestSlotSize {
			op.n = digestSlotSize - op.off
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzHeapDigest drives two memories with the same byte-coded sequence of
// writes, zero-writes, Zero ranges and bit flips — the second memory in a
// different order where operations commute (even slots first, then odd;
// operations on different slots touch disjoint bytes) and, when the input
// says so, with one operation dropped. Over a range also chosen by the
// input: equal contents must digest equally, always; unequal contents must
// digest differently — a failure there is a 64-bit collision, a finding to
// minimise and look at, not noise. Nothing may panic on ranges at address
// 0, of length 0, or ending at the top of the 47-bit space.
func FuzzHeapDigest(f *testing.F) {
	// Header: range selector (low 2 bits: whole space, empty, one slot,
	// unaligned piece; high bits: which slot), then 1 + the index of the
	// operation b drops (0: none). Operations: kind|slot<<2, offset hi, lo,
	// length code, value.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0<<2 | 0, 0, 16, 7, 0xaa})                                                                   // one write, whole space
	f.Add([]byte{0, 1, 1<<2 | 0, 0, 16, 7, 0xaa})                                                                   // the write dropped from b: contents differ
	f.Add([]byte{2, 0, 0<<2 | 3, 0x0f, 0xff, 0, 0x01, 0<<2 | 3, 0x0f, 0xff, 0, 0x01})                               // double flip leaves a zero page
	f.Add([]byte{5<<2 | 2, 2, 5<<2 | 0, 0x1f, 0xf0, 31, 0xff, 5<<2 | 2, 0x10, 0x00, 255, 0})                        // top of the address space; b skips the Zero
	f.Add([]byte{2<<2 | 1, 0, 0<<2 | 1, 0, 0, 31, 0, 1<<2 | 0, 0, 1, 1, 1, 2<<2 | 2, 0, 0, 0, 0})                   // empty range; zero-write, write, empty Zero
	f.Add([]byte{2<<2 | 3, 3, 2<<2 | 0, 0x0f, 0xf8, 15, 0x55, 3<<2 | 0, 0, 0, 15, 0x55, 2<<2 | 2, 0x08, 0, 128, 0}) // unaligned range; the abutting slot lies outside it
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sel, drop := data[0], int(data[1])
		ops := decodeDigestOps(data[2:])

		a, b := NewMemory(), NewMemory()
		for _, op := range ops {
			op.apply(a)
		}
		for parity := uint8(0); parity < 2; parity++ {
			for i, op := range ops {
				if op.slot%2 == parity && i != drop-1 {
					op.apply(b)
				}
			}
		}

		// The range: everything, nothing, one slot, or an unaligned piece
		// of one (start and end trimmed by up to a page each).
		addr, length := uint64(0), uint64(1<<47)
		slot := digestSlots[int(sel>>2)%len(digestSlots)]
		switch sel & 3 {
		case 1:
			addr, length = slot, 0
		case 2:
			addr, length = slot, digestSlotSize
		case 3:
			trim := uint64(sel>>2) * 61 % PageSize
			addr, length = slot+trim, digestSlotSize-trim-trim/2
		}

		da, db := a.Digest(addr, length), b.Digest(addr, length)
		if same := sameContent(a, b, addr, length); same != (da == db) {
			t.Fatalf("range [%#x,+%#x): contents equal = %v but digests %#x, %#x", addr, length, same, da, db)
		}
	})
}
