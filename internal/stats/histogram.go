package stats

import "math/bits"

// Histogram geometry. Latencies are recorded as whole nanoseconds in a
// log-linear layout: each power-of-two range is split into histSub equal
// buckets, so values below 2*histSub sit in width-1 buckets (exact) and
// every wider bucket spans at most 1/histSub of its lower bound. Quantiles
// report a bucket's midpoint, which puts them within HistRelErr of the
// exact order statistic. Values at or above 1<<histMaxBits ns (~73 min)
// clamp to histMaxNs. These constants are the only knobs; nothing sets
// them at run time.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMaxBits = 42
	histMaxNs   = 1<<histMaxBits - 1
	histBuckets = (histMaxBits - histSubBits + 1) * histSub

	// HistRelErr bounds |quantile − stats.Percentile| / stats.Percentile
	// over the same whole-nanosecond samples.
	HistRelErr = 1.0 / (2 * histSub)
)

// histogram is a fixed-size latency distribution: bucket counts plus the
// exact sample count, sum and maximum. Its size does not depend on how
// many samples it holds, and it is a plain value — assignment copies it,
// == compares it.
type histogram struct {
	count   uint64
	sum     uint64
	max     uint64
	buckets [histBuckets]uint64
}

// wholeNs maps an arbitrary float64 to the recorded domain: NaN and
// negatives to 0, anything past the top bucket to histMaxNs, the rest
// truncated to whole nanoseconds.
func wholeNs(ns float64) uint64 {
	if !(ns > 0) {
		return 0
	}
	return uint64(min(ns, histMaxNs))
}

// bucketOf returns the bucket index of v (v <= histMaxNs).
func bucketOf(v uint64) int {
	shift := max(bits.Len64(v)-histSubBits-1, 0)
	return shift*histSub + int(v>>shift)
}

// bucketMid returns bucket i's representative value: the value itself in
// the width-1 region, the midpoint elsewhere.
func bucketMid(i int) uint64 {
	if i < 2*histSub {
		return uint64(i)
	}
	shift := i/histSub - 1
	return uint64(i-shift*histSub)<<shift + 1<<(shift-1)
}

func (h *histogram) record(ns float64) {
	v := wholeNs(ns)
	h.count++
	h.sum += v
	h.max = max(h.max, v)
	h.buckets[bucketOf(v)]++
}

// merge adds o's samples to h; the result equals recording both streams
// into one histogram.
func (h *histogram) merge(o *histogram) {
	h.count += o.count
	h.sum += o.sum
	h.max = max(h.max, o.max)
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
}

// quantile returns the p'th percentile (0-100) the way Percentile does —
// linear interpolation between the two order statistics around the rank —
// with each order statistic read as its bucket's representative, capped at
// the exact maximum. Monotone in p; 0 for an empty histogram.
func (h *histogram) quantile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p >= 100 {
		return float64(h.max)
	}
	var lo uint64
	var frac float64
	if p > 0 {
		pos := p / 100 * float64(h.count-1)
		lo = uint64(pos)
		frac = pos - float64(lo)
	}
	i, cum := 0, h.buckets[0]
	for cum <= lo {
		i++
		cum += h.buckets[i]
	}
	a := h.valueOf(i)
	if frac == 0 || cum > lo+1 {
		return a
	}
	// Rank lo is the last sample of bucket i; rank lo+1 opens the next
	// occupied bucket.
	for i++; h.buckets[i] == 0; i++ {
	}
	return a*(1-frac) + h.valueOf(i)*frac
}

func (h *histogram) valueOf(i int) float64 { return float64(min(bucketMid(i), h.max)) }
