package scenario

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHdrIndexMonotoneAndBounded(t *testing.T) {
	// Indices must be monotone in the value and stay inside the array for
	// the full int64 range; bucket edges must honour the ~3% error bound.
	vals := []int64{0, 1, 31, 32, 63, 64, 65, 1000, 1 << 20, 1 << 40, 1<<63 - 1}
	prev := -1
	for _, v := range vals {
		idx := hdrIndex(v)
		if idx < 0 || idx >= hdrBuckets {
			t.Fatalf("hdrIndex(%d) = %d out of range", v, idx)
		}
		if idx < prev {
			t.Fatalf("hdrIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		if edge := hdrValue(idx); v >= 64 {
			// The lower bucket edge must sit at most one bucket width
			// (~3%) below the value.
			if edge > v || float64(v-edge) > 0.04*float64(v) {
				t.Errorf("bucket edge %d for value %d exceeds 4%% error", edge, v)
			}
		} else if edge != v {
			t.Errorf("small values must be exact: hdrValue(hdrIndex(%d)) = %d", v, edge)
		}
	}
}

func TestHistogramQuantilesAgainstSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	samples := make([]int64, 10000)
	for i := range samples {
		// Log-uniform latencies from ~1µs to ~1s in nanoseconds.
		v := int64(1000 * rng.ExpFloat64() * float64(uint(1)<<uint(rng.Intn(20))))
		samples[i] = v
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if h.Count() != int64(len(samples)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(samples))
	}
	if h.Max() != samples[len(samples)-1] {
		t.Fatalf("Max = %d, want exact %d", h.Max(), samples[len(samples)-1])
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)-1))]
		got := h.Quantile(q)
		// Bucketing error bound: within 4% of the exact order statistic.
		lo := float64(exact) * 0.96
		hi := float64(exact) * 1.04
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("Quantile(%g) = %d, want within 4%% of %d", q, got, exact)
		}
	}
}

func TestHistogramMergeEqualsCombinedRecording(t *testing.T) {
	var a, b, combined Histogram
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1_000_000))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		combined.Record(v)
	}
	a.Merge(&b)
	if a.Count() != combined.Count() || a.Max() != combined.Max() {
		t.Fatalf("merged Count/Max = %d/%d, want %d/%d",
			a.Count(), a.Max(), combined.Count(), combined.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := a.Quantile(q), combined.Quantile(q); got != want {
			t.Errorf("Quantile(%g): merged %d != combined %d", q, got, want)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Count() != 0 {
		t.Error("empty histogram must report zero")
	}
	h.Record(-5) // clamps to zero
	h.Record(42)
	if h.Quantile(0) != 0 || h.Quantile(1) != 42 {
		t.Errorf("Quantile(0)=%d Quantile(1)=%d, want 0 and 42", h.Quantile(0), h.Quantile(1))
	}
	// Out-of-range q clamps rather than panicking.
	if h.Quantile(-1) != 0 || h.Quantile(2) != 42 {
		t.Error("out-of-range quantiles must clamp")
	}
}
