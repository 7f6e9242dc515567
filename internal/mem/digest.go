package mem

import (
	"encoding/binary"
	"math/bits"
)

// Digest returns a 64-bit digest of the content of [addr, addr+length) in
// O(resident pages): every resident backing page that is not all zero is
// hashed a word at a time, seeded with its page index relative to the range
// start, the page hashes are combined by wrapping addition (so the page
// table's iteration order cannot matter) and the sum is finalised once.
//
// The digest is a function of content and of position inside the range
// only: an absent page and a resident all-zero page contribute the same
// (nothing), the same bytes at the same offsets from two different addr
// digest equally provided both addr sit at the same offset within a page,
// and an empty or all-zero range digests to 0. Bytes of an edge page outside
// the range count as zero. Changing any one word of one page always changes
// that page's hash; beyond that it is an error-detecting code with 64-bit
// collision odds, not a MAC.
func (m *Memory) Digest(addr, length uint64) uint64 {
	first := addr >> PageBits
	var sum uint64
	m.residentPages(addr, length, func(idx uint64, p *[PageSize]byte, from, to int) {
		if to-from < PageSize {
			var clip [PageSize]byte
			copy(clip[from:to], p[from:to])
			p = &clip
		}
		sum += hashPage(idx-first, p)
	})
	// The 64-bit finaliser of MurmurHash3: a bijection that fixes 0.
	sum ^= sum >> 33
	sum *= 0xff51afd7ed558ccd
	sum ^= sum >> 33
	sum *= 0xc4ceb9fe1a85ec53
	sum ^= sum >> 33
	return sum
}

// hashPage hashes one backing page, or returns 0 for an all-zero one. Each
// step is a bijection of the running hash for a fixed word and of the word
// for a fixed hash, so two pages that differ in exactly one word, or two
// seeds over the same content, never hash alike.
func hashPage(seed uint64, p *[PageSize]byte) uint64 {
	const (
		golden = 0x9e3779b97f4a7c15 // 2^64/φ, odd: distinct seeds start apart
		prime  = 0x100000001b3      // the 64-bit FNV prime
	)
	h := (seed + 1) * golden
	var or uint64
	for i := 0; i < PageSize; i += 8 {
		w := binary.LittleEndian.Uint64(p[i:])
		or |= w
		h = (bits.RotateLeft64(h, 29) ^ w) * prime
	}
	if or == 0 {
		return 0
	}
	return h
}
