package scenario

// HDR-style latency histogram: log-linear buckets giving a bounded
// relative error at every magnitude, so one fixed-size array covers
// nanoseconds to minutes. Each power-of-two octave is split into 32
// linear sub-buckets (~3% worst-case error), values below 32 units are
// exact. Histograms are mergeable by elementwise addition, which is how
// the open-loop driver combines per-caller recordings without sharing a
// lock on the hot path.

// hdrSubBits is the per-octave resolution: 2^5 = 32 sub-buckets.
const hdrSubBits = 5

// hdrBuckets covers 63 octaves of int64 range. Octave e contributes 32
// buckets starting at index (e+1)<<hdrSubBits; indices below 64 are the
// exact small values.
const hdrBuckets = 64 << hdrSubBits

// Histogram is a fixed-size HDR-style histogram of non-negative int64
// samples (latencies in nanoseconds, by convention). The zero value is
// ready to use. Not safe for concurrent use — record per goroutine and
// Merge.
type Histogram struct {
	counts [hdrBuckets]int64
	total  int64
	max    int64
}

// hdrIndex maps a sample to its bucket. For v < 32 the mapping is
// identity; otherwise v's top hdrSubBits+1 significant bits select
// (octave, sub-bucket), continuous with the identity range.
func hdrIndex(v int64) int {
	u := uint64(v)
	exp := 0
	for u >= 1<<(hdrSubBits+1) {
		u >>= 1
		exp++
	}
	// u is now in [0, 64); for v >= 32, u ∈ [32, 64) and carries the
	// leading bit plus hdrSubBits of mantissa.
	return exp<<hdrSubBits + int(u)
}

// hdrValue returns the lower edge of bucket idx, the inverse of hdrIndex
// up to bucket width (~3% of the value).
func hdrValue(idx int) int64 {
	if idx < 1<<(hdrSubBits+1) {
		return int64(idx)
	}
	exp := idx>>hdrSubBits - 1
	m := idx&(1<<hdrSubBits-1) | 1<<hdrSubBits
	return int64(m) << exp
}

// Record adds one sample; negative samples clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[hdrIndex(v)]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.total += other.total
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Max returns the largest recorded sample (exact, not bucketed).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the value at quantile q (0..1) with the histogram's
// bucket resolution (~3%); q outside [0,1] clamps. Zero samples → 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based; q=1 lands on the last sample.
	rank := int64(q*float64(h.total-1)) + 1
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := hdrValue(i)
			if v > h.max {
				// The top bucket's edge can overshoot the true maximum.
				v = h.max
			}
			return v
		}
	}
	return h.max
}
