package metrics

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/racetest"
)

func TestRegistryOneNameOneCell(t *testing.T) {
	r := new(Registry)
	a, b := r.Counter("calls"), r.Counter("calls")
	if a != b {
		t.Fatal("one name gave two cells")
	}
	a.Add(3)
	if got := b.Load(); got != 3 {
		t.Fatalf("count through the second handle = %d, want 3", got)
	}
	if other := r.Counter("drops"); other == a || other.Load() != 0 {
		t.Fatalf("a second name shares the first's cell or starts at %d", other.Load())
	}
}

func TestRegistryZeroValue(t *testing.T) {
	var r Registry
	r.Counter("x").Add(2)
	if got := r.Counter("x").Load(); got != 2 {
		t.Fatalf("zero-value registry counted %d, want 2", got)
	}
}

// TestRegistryConcurrentCounts has 8 goroutines count, each looking its
// counters up by name every time, into one shared name and into a name of
// its own: the sums must be exact (run it with -race).
func TestRegistryConcurrentCounts(t *testing.T) {
	const workers, adds = 8, 1000
	var r Registry
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := fmt.Sprintf("worker/%d", g)
			for range adds {
				r.Counter("shared").Add(1)
				r.Counter(own).Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != workers*adds {
		t.Errorf("shared = %d, want %d", got, workers*adds)
	}
	for g := range workers {
		if got := r.Counter(fmt.Sprintf("worker/%d", g)).Load(); got != adds {
			t.Errorf("worker/%d = %d, want %d", g, got, adds)
		}
	}
}

// TestAllocBudgetCounter holds a count through a held counter, the way the
// runtime counts its calls, to no allocation.
func TestAllocBudgetCounter(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	var r Registry
	c := r.Counter("sync_calls")
	if allocs := testing.AllocsPerRun(1000, func() { c.Add(1) }); allocs != 0 {
		t.Fatalf("Counter.Add allocates %.1f times, want 0", allocs)
	}
}
