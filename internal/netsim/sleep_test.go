package netsim

import (
	"testing"
	"time"
)

func TestPreciseSleepAccuracy(t *testing.T) {
	// Take the best of several attempts: the accuracy property holds on
	// an idle processor, and the minimum filters out preemption by other
	// test packages running in parallel.
	for _, d := range []time.Duration{
		50 * time.Microsecond,
		300 * time.Microsecond,
		2 * time.Millisecond,
	} {
		best := time.Duration(1 << 62)
		for i := 0; i < 7; i++ {
			start := time.Now()
			PreciseSleep(d)
			got := time.Since(start)
			if got < d {
				t.Fatalf("PreciseSleep(%v) returned early after %v", d, got)
			}
			if got < best {
				best = got
			}
		}
		// The whole point: no ≈1 ms kernel-granularity overshoot for
		// sub-millisecond sleeps.
		if over := best - d; over > 500*time.Microsecond {
			t.Errorf("PreciseSleep(%v) overshot by %v", d, over)
		}
	}
}

func TestPreciseSleepNonPositive(t *testing.T) {
	start := time.Now()
	PreciseSleep(0)
	PreciseSleep(-time.Second)
	if time.Since(start) > 10*time.Millisecond {
		t.Error("non-positive sleep slept")
	}
}
