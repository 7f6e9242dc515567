package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestHistogramGeometry: the buckets tile [0, histMaxNs] in order with no
// gap, every bucket's representative lies inside it, and width-1 buckets
// cover at least the first 2*histSub values.
func TestHistogramGeometry(t *testing.T) {
	if HistRelErr > 0.05 {
		t.Fatalf("HistRelErr = %v, documented bound is <= 5%%", HistRelErr)
	}
	if got := bucketOf(histMaxNs); got != histBuckets-1 {
		t.Fatalf("bucketOf(histMaxNs) = %d, want the last bucket %d", got, histBuckets-1)
	}
	for v := uint64(0); v < 2*histSub; v++ {
		if bucketOf(v) != int(v) || bucketMid(int(v)) != v {
			t.Fatalf("value %d is not exact: bucket %d, representative %d", v, bucketOf(v), bucketMid(int(v)))
		}
	}
	next := uint64(0) // lowest value not yet covered
	for i := 0; i < histBuckets; i++ {
		width := uint64(1)
		if i >= 2*histSub {
			width = 1 << (i/histSub - 1)
		}
		lo, hi, mid := next, next+width-1, bucketMid(i)
		if bucketOf(lo) != i || bucketOf(hi) != i {
			t.Fatalf("bucket %d is not [%d, %d]: those map to buckets %d and %d", i, lo, hi, bucketOf(lo), bucketOf(hi))
		}
		if mid < lo || mid > hi {
			t.Fatalf("bucket %d [%d, %d]: representative %d lies outside", i, lo, hi, mid)
		}
		if worst := max(mid-lo, hi-mid); float64(worst) > HistRelErr*float64(lo) {
			t.Fatalf("bucket %d [%d, %d]: representative %d is past the error bound", i, lo, hi, mid)
		}
		next += width
	}
	if next != histMaxNs+1 {
		t.Fatalf("buckets end at %d, want %d", next, uint64(histMaxNs+1))
	}
}

// fuzzQuantiles are the percentiles FuzzHistogram checks, ascending.
var fuzzQuantiles = []float64{0, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 100}

// FuzzHistogram feeds arbitrary float64 streams (data read as little-endian
// float64s, so NaN, ±Inf, negatives and huge values all occur) and checks
// what the ledger relies on: no panic, count conserved, max and sum exact
// over the whole-nanosecond samples, quantiles monotone in p and within
// HistRelErr of stats.Percentile on the same samples, and merging two
// histograms equal to recording both streams into one.
func FuzzHistogram(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add([]byte{}, uint8(0))
	f.Add(enc(10), uint8(0))
	f.Add(enc(math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.0, 0.5), uint8(3))
	f.Add(enc(1, 1e9), uint8(1))
	f.Add(enc(63, 64, 65, 127, 128, 129, 4095, 4096, 4097), uint8(4))
	f.Add(enc(histMaxNs-1, histMaxNs, histMaxNs+1, 1e18, 1e300, math.MaxFloat64), uint8(2))
	f.Add(enc(331e3, 298e3, 412e3, 305e3, 2.9e6, 350e3, 14e6, 320e3, 48e6, 333e3, 341e3), uint8(5))

	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		n := len(data) / 8
		cut := 0
		if n > 0 {
			cut = int(split) % (n + 1)
		}
		var all, a, b histogram
		whole := make([]float64, n)
		var sum, max uint64
		for i := range whole {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			all.record(x)
			if i < cut {
				a.record(x)
			} else {
				b.record(x)
			}
			v := wholeNs(x)
			whole[i] = float64(v)
			sum += v
			if v > max {
				max = v
			}
		}

		var inBuckets uint64
		for _, c := range all.buckets {
			inBuckets += c
		}
		if all.count != uint64(n) || inBuckets != uint64(n) {
			t.Fatalf("recorded %d samples, count %d, Σ buckets %d", n, all.count, inBuckets)
		}
		if all.sum != sum || all.max != max {
			t.Fatalf("sum/max = %d/%d, want exactly %d/%d", all.sum, all.max, sum, max)
		}
		if a.merge(&b); a != all {
			t.Fatalf("merge(first %d, rest) differs from recording all %d", cut, n)
		}

		prev := math.Inf(-1)
		for _, p := range fuzzQuantiles {
			got, want := all.quantile(p), Percentile(whole, p)
			if got < prev {
				t.Fatalf("quantile(%v) = %v < quantile at the previous p = %v", p, got, prev)
			}
			prev = got
			// The 1e-9 absorbs float rounding in the two interpolations.
			if math.Abs(got-want) > HistRelErr*want*(1+1e-9) {
				t.Fatalf("quantile(%v) = %v, Percentile = %v: off by more than %v of it (n=%d)",
					p, got, want, HistRelErr, n)
			}
		}
	})
}
