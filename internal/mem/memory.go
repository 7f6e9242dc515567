// Package mem provides the simulated memory system: a sparse byte-addressable
// memory, set-associative caches, and a TLB, with the latency model the
// timing simulator charges for accesses.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageBits is log2 of the backing-store page size. The sparse memory
// allocates storage in chunks of this size; it is independent of the OS page
// size modeled by internal/kernel.
const PageBits = 12

// PageSize is the backing-store page size in bytes.
const PageSize = 1 << PageBits

// Memory is a sparse, byte-addressable 64-bit memory. Reads of never-written
// locations return zero, mirroring demand-zero pages. Memory is not
// concurrency safe; each simulated core owns its accesses.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// Last-page cache: guest accesses are heavily local, so most page
	// lookups hit the page of the previous access. lastPg is nil until the
	// first lookup and after Zero discards pages (Zero may delete the
	// cached page, so it drops the whole cache rather than track which).
	lastIdx uint64
	lastPg  *[PageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[PageSize]byte {
	idx := addr >> PageBits
	if p := m.lastPg; p != nil && idx == m.lastIdx {
		return p
	}
	p := m.pages[idx]
	if p == nil && create {
		p = new([PageSize]byte)
		m.pages[idx] = p
	}
	if p != nil {
		m.lastIdx, m.lastPg = idx, p
	}
	return p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(PageSize-1)]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.page(addr, true)[addr&(PageSize-1)] = b
}

// FlipBits XORs mask into the byte at addr — the chaos injector's
// bit-flip primitive, modeling a DRAM upset striking backing storage
// directly (below the MMU and HFI checks, which is the point: the
// corruption is invisible to every access-legality mechanism and only a
// content audit can find it).
func (m *Memory) FlipBits(addr uint64, mask byte) {
	p := m.page(addr, true)
	p[addr&(PageSize-1)] ^= mask
}

// Read returns size bytes starting at addr as a little-endian unsigned
// integer. size must be 1, 2, 4 or 8. Accesses contained in one page — the
// overwhelmingly common case on the interpreter hot path — decode straight
// out of the backing page with no intermediate buffer; only accesses that
// straddle a page boundary take the ReadBytes assembly path.
func (m *Memory) Read(addr uint64, size uint8) uint64 {
	if off := addr & (PageSize - 1); off+uint64(size) <= PageSize {
		p := m.page(addr, false)
		if p == nil {
			if size == 1 || size == 2 || size == 4 || size == 8 {
				return 0 // demand-zero page
			}
		} else {
			switch size {
			case 1:
				return uint64(p[off])
			case 2:
				return uint64(binary.LittleEndian.Uint16(p[off:]))
			case 4:
				return uint64(binary.LittleEndian.Uint32(p[off:]))
			case 8:
				return binary.LittleEndian.Uint64(p[off:])
			}
		}
		panic(fmt.Sprintf("mem: invalid read size %d", size))
	}
	var buf [8]byte
	switch size {
	case 1, 2, 4, 8:
		m.ReadBytes(addr, buf[:size])
	default:
		panic(fmt.Sprintf("mem: invalid read size %d", size))
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// Write stores the low size bytes of v at addr, little-endian. Like Read,
// single-page accesses encode directly into the backing page.
func (m *Memory) Write(addr uint64, size uint8, v uint64) {
	if off := addr & (PageSize - 1); off+uint64(size) <= PageSize {
		p := m.page(addr, true)
		switch size {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
		panic(fmt.Sprintf("mem: invalid write size %d", size))
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	switch size {
	case 1, 2, 4, 8:
		m.WriteBytes(addr, buf[:size])
	default:
		panic(fmt.Sprintf("mem: invalid write size %d", size))
	}
}

// ReadBytes fills dst with the bytes starting at addr.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if p := m.page(addr, false); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += n
	}
}

// WriteBytes stores src starting at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		copy(m.page(addr, true)[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// residentPages calls visit once for every resident backing page that
// overlaps [addr, addr+length), in no particular order, handing it the page
// and the half-open byte span [from, to) of that page the range covers
// (0, PageSize for all but the two edge pages). It returns how many
// page-table slots it examined. One rule picks the walk: a range spanning
// at least as many pages as the table holds iterates the table, a shorter
// one probes its own slots — so the cost is O(min(range, resident)) and a
// huge sparse reservation costs what is resident, not what is reserved.
// visit may delete the page it is handed.
func (m *Memory) residentPages(addr, length uint64, visit func(idx uint64, p *[PageSize]byte, from, to int)) (examined int) {
	if length == 0 {
		return 0 // (addr+length-1) would underflow for addr == 0
	}
	last := addr + length - 1
	lo, hi := addr>>PageBits, last>>PageBits
	clipped := func(idx uint64, p *[PageSize]byte) {
		from, to := 0, PageSize
		if idx == lo {
			from = int(addr & (PageSize - 1))
		}
		if idx == hi {
			to = int(last&(PageSize-1)) + 1
		}
		visit(idx, p, from, to)
	}
	if hi-lo >= uint64(len(m.pages)) {
		for idx, p := range m.pages {
			if idx >= lo && idx <= hi {
				clipped(idx, p)
			}
		}
		return len(m.pages)
	}
	for idx := lo; idx <= hi; idx++ {
		if p := m.pages[idx]; p != nil {
			clipped(idx, p)
		}
	}
	return int(hi - lo + 1)
}

// Zero clears length bytes starting at addr, releasing backing pages where
// whole pages are covered (used by madvise(DONTNEED)); discarding a huge
// sparse reservation is O(resident).
func (m *Memory) Zero(addr, length uint64) {
	m.lastPg = nil // may delete the cached page; drop the whole cache
	m.residentPages(addr, length, func(idx uint64, p *[PageSize]byte, from, to int) {
		if to-from == PageSize {
			delete(m.pages, idx)
			return
		}
		clear(p[from:to]) // partial page at a range edge
	})
}

// ResidentIn counts the resident bytes inside [addr, addr+length), whole
// backing pages at a time (O(resident), not O(range)).
func (m *Memory) ResidentIn(addr, length uint64) uint64 {
	var n uint64
	m.residentPages(addr, length, func(uint64, *[PageSize]byte, int, int) { n += PageSize })
	return n
}

// PageResident reports whether the backing page containing addr is
// allocated (i.e. has ever been written and not discarded).
func (m *Memory) PageResident(addr uint64) bool {
	return m.pages[addr>>PageBits] != nil
}

// ResidentBytes reports how much backing storage is currently allocated.
func (m *Memory) ResidentBytes() uint64 {
	return uint64(len(m.pages)) * PageSize
}
