package sieve

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func TestSequentialCountKnownValues(t *testing.T) {
	cases := map[int]int{
		1:    0,
		2:    1,
		10:   4,
		100:  25,
		1000: 168,
		5000: 669,
	}
	for n, want := range cases {
		if got := SequentialCount(n, 1); got != want {
			t.Errorf("SequentialCount(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestWorkFactorPreservesCount(t *testing.T) {
	for _, f := range []float64{1, 1.2, 1.4, 2.0} {
		if got := SequentialCount(2000, f); got != 303 {
			t.Errorf("SequentialCount(2000, %v) = %d, want 303", f, got)
		}
	}
}

func TestSequentialList(t *testing.T) {
	got := SequentialList(30)
	want := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SequentialList(30) = %v", got)
	}
	if SequentialList(1) != nil {
		t.Error("SequentialList(1) should be empty")
	}
}

func TestListMatchesCountQuick(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%3000) + 2
		return len(SequentialList(n)) == SequentialCount(n, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func newSieveCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for i := 0; i < cl.Size(); i++ {
		RegisterClasses(cl.Node(i))
	}
	return cl
}

func TestPipelineSingleNode(t *testing.T) {
	cl := newSieveCluster(t, 1)
	primes, err := Pipeline(cl.Node(0), 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(primes, SequentialList(100)) {
		t.Errorf("pipeline primes = %v", primes)
	}
}

func TestPipelineMultiNode(t *testing.T) {
	cl := newSieveCluster(t, 3)
	primes, err := Pipeline(cl.Node(0), 200, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(primes, SequentialList(200)) {
		t.Errorf("pipeline primes = %v", primes)
	}
	// The pipeline must actually have distributed filters.
	remoteHosted := 0
	for i := 1; i < cl.Size(); i++ {
		remoteHosted += cl.Node(i).Load()
	}
	if remoteHosted == 0 {
		t.Error("no filters placed on remote nodes")
	}
}

// TestPipelineWithAggregation: with no option set, the candidates the
// driver sends faster than the first filter takes them leave in batches.
func TestPipelineWithAggregation(t *testing.T) {
	cl := newSieveCluster(t, 2)
	primes, err := Pipeline(cl.Node(0), 300, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(primes, SequentialList(300)) {
		t.Errorf("aggregated pipeline primes wrong: %d found", len(primes))
	}
	st := cl.Node(0).Stats()
	if st.BatchesSent == 0 {
		t.Error("no batches sent")
	}
	if st.BatchesSent >= st.CallsAggregated {
		t.Errorf("batches (%d) not smaller than aggregated calls (%d)",
			st.BatchesSent, st.CallsAggregated)
	}
}

func TestPipelineRepeatable(t *testing.T) {
	cl := newSieveCluster(t, 2)
	for round := 0; round < 2; round++ {
		primes, err := Pipeline(cl.Node(0), 50, false)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(primes) != 15 {
			t.Fatalf("round %d: %d primes", round, len(primes))
		}
	}
}

// TestFarmedCountMatchesSequential drives the MapReduce-skeleton sieve on
// one and three nodes and at awkward worker counts (more workers than
// span, worker count not dividing the range) against the sequential count.
func TestFarmedCountMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		nodes, n, workers int
	}{
		{1, 1000, 4},
		{3, 5000, 8},
		{3, 200, 64}, // degenerate segments: more workers than numbers
		{1, 9973, 7}, // prime bound, uneven split
	} {
		cl := newSieveCluster(t, tc.nodes)
		got, err := FarmedCount(cl.Node(0), tc.n, tc.workers)
		if err != nil {
			t.Fatalf("FarmedCount(%d, %d): %v", tc.n, tc.workers, err)
		}
		if want := SequentialCount(tc.n, 1); got != want {
			t.Errorf("FarmedCount(%d, %d) = %d, want %d", tc.n, tc.workers, got, want)
		}
	}
}

// TestFarmedCountTinyBounds pins the edge cases below the first segment.
func TestFarmedCountTinyBounds(t *testing.T) {
	cl := newSieveCluster(t, 1)
	for n, want := range map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 10: 4} {
		got, err := FarmedCount(cl.Node(0), n, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("FarmedCount(%d) = %d, want %d", n, got, want)
		}
	}
}

// BenchmarkSieveKernel measures the sequential sieve kernel used by E5.
func BenchmarkSieveKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := SequentialCount(100_000, 1); got != 9592 {
			b.Fatalf("π(100000) = %d", got)
		}
	}
}
