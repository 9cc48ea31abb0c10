// Package scenario holds the runtime's five end-to-end scenarios as plain
// go tests: live-migration rebalance, owner-crash failover, open-loop
// admission control, a seeded chaos schedule, and goroutine-flat futures
// with the Scatter/Gather skeleton. Each one asserts outcomes inside the
// run (no lost call, no lost acknowledgement, no double execution, must
// shed at 2x, goroutine delta within its bound) and floors that compare
// two windows of the same run; nothing here is compared with a recorded
// value, because numbers that gate a change come from benchmark/.
//
// The package has no non-test file on purpose: go test is its only driver.
// Every scenario drives real time windows and skips under -short.
package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// hotObj is the workload class of rebalance, failover and chaos: exported
// state so snapshots carry it, one method that both mutates and returns.
type hotObj struct {
	N int64
}

// Bump adds v and returns the running total.
func (h *hotObj) Bump(v int64) int64 {
	h.N += v
	return h.N
}

// readTotal reads a hotObj's running total through p.
func readTotal(p *core.Proxy) (int64, error) {
	res, err := p.Invoke("Bump", int64(0))
	if err != nil {
		return 0, err
	}
	v, ok := res.(int64)
	if !ok {
		return 0, fmt.Errorf("total came back as %T", res)
	}
	return v, nil
}

// virtualTotal reads the total of a virtual hotObj the way the scenarios'
// callers call it: re-resolving and retrying while routing converges (a
// read can land on a promotion in progress), for at most 10 s. Adding zero
// is safe to repeat.
func virtualTotal(t *testing.T, rt *core.Runtime, class, key string) int64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, err := rt.VirtualObject(class, key)
		if err == nil {
			var v int64
			if v, err = readTotal(p); err == nil {
				return v
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("total of %s/%s: %v", class, key, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rate samples calls for d and returns its growth per second.
func rate(calls *atomic.Int64, d time.Duration) float64 {
	start := calls.Load()
	t0 := time.Now()
	time.Sleep(d)
	return float64(calls.Load()-start) / time.Since(t0).Seconds()
}

// startCallers runs loop(c, stop) on n goroutines. The returned function
// closes stop and waits for every loop to return; it may be called twice, so
// a test defers it for the failure paths and calls it before reading totals.
func startCallers(n int, loop func(c int, stop <-chan struct{})) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			loop(c, stop)
		}(c)
	}
	var once sync.Once
	return func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
}

// startNodes boots one runtime per listen address on the multiplexed
// channel over net(i), lets tune adjust each node's config, joins them into
// one cluster and closes them when the test ends.
func startNodes(t *testing.T, listen []string, net func(i int) transport.Network, tune func(*core.Config)) []*core.Runtime {
	t.Helper()
	rts := make([]*core.Runtime, len(listen))
	addrs := make([]string, len(listen))
	for i := range rts {
		cfg := core.Config{NodeID: i, Channel: remoting.NewMultiplexedChannel(net(i))}
		tune(&cfg)
		rt, err := core.Start(cfg, listen[i])
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(rt.Close)
		rts[i] = rt
		addrs[i] = rt.Addr()
	}
	for _, rt := range rts {
		if err := rt.JoinCluster(addrs); err != nil {
			t.Fatal(err)
		}
	}
	return rts
}

// startTCP is startNodes for n nodes on real loopback TCP.
func startTCP(t *testing.T, n int, tune func(*core.Config)) []*core.Runtime {
	t.Helper()
	listen := make([]string, n)
	for i := range listen {
		listen[i] = "127.0.0.1:0"
	}
	return startNodes(t, listen, func(int) transport.Network { return transport.TCPNetwork{} }, tune)
}
