package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
)

type echo struct {
	mu sync.Mutex
	n  int
}

func (e *echo) Ping(v int) int { return v }

func (e *echo) Bump() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
}

func (e *echo) N() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

func TestNewDefaults(t *testing.T) {
	cl, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Size() != 1 {
		t.Errorf("default size = %d", cl.Size())
	}
}

func TestMultiNodeRoundTrip(t *testing.T) {
	cl, err := New(Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.RegisterClass("echo", func() any { return &echo{} })
	remoteSeen := false
	for i := 0; i < 6; i++ {
		p, err := cl.Node(0).NewParallelObject("echo")
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Invoke("Ping", i)
		if err != nil {
			t.Fatal(err)
		}
		if got != i {
			t.Errorf("Ping(%d) = %v", i, got)
		}
		if !p.IsLocal() {
			remoteSeen = true
		}
	}
	if !remoteSeen {
		t.Error("round robin never crossed nodes")
	}
}

func TestShapedClusterCountsTraffic(t *testing.T) {
	sn := netsim.NewShapedNetwork(transport.NewMemNetwork(), netsim.Params{Latency: 100 * time.Microsecond})
	cl, err := New(Options{Nodes: 2, Network: sn})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.RegisterClass("echo", func() any { return &echo{} })
	p, err := cl.Node(0).NewParallelObject("echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Ping", 1); err != nil {
		t.Fatal(err)
	}
	if sn.Metrics.Counter("msgs_sent").Load() == 0 {
		t.Error("no traffic counted through shaped network")
	}
}

type forceNode1 struct{}

func (forceNode1) Pick(self int, loads []core.NodeLoad) int { return 1 }

// TestMultiplexedCluster runs the full SCOOPP stack — placement, remote
// creation, sync/async proxy calls, destruction — over the multiplexed
// channel with a tight in-flight bound, exercising the pipelined path end
// to end.
func TestMultiplexedCluster(t *testing.T) {
	cl, err := New(Options{
		Nodes:       3,
		MaxInFlight: 8,
		Config:      core.Config{Placement: forceNode1{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.RegisterClass("echo", func() any { return &echo{} })
	p, err := cl.Node(0).NewParallelObject("echo")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Fatal("object should be remote")
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			got, err := p.Invoke("Ping", v)
			if err != nil {
				t.Error(err)
				return
			}
			if got != v {
				t.Errorf("Ping(%d) = %v", v, got)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 10; i++ {
		p.Post("Bump")
	}
	p.Wait()
	if err := p.AsyncErr(); err != nil {
		t.Fatal(err)
	}
	got, err := p.Invoke("N")
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("N = %v, want 10", got)
	}
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
}
