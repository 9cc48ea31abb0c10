package figures

import (
	"sync"
	"testing"
	"time"

	"repro/internal/paper/profile"
)

// TestPoolCapsANodesRenders: with a thread pool of one, the two rtWorkers of
// a node never render at once — eight renders, four per worker, issued
// together, take at least eight renders' modelled time — and the time
// renders waited for the pool is reported (ablation A4's queue wait).
func TestPoolCapsANodesRenders(t *testing.T) {
	cfg := Fig9Config{Width: 20, Height: 20, RowsPerBlock: 10, TimeScale: 10}
	f, err := startParcFarm(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if nodesFor(2) != 1 || len(f.proxies) != 2 {
		t.Fatalf("want two workers on one node, got %d workers on %d nodes", len(f.proxies), nodesFor(2))
	}
	const perWorker = 4
	render := time.Duration(cfg.Width*cfg.RowsPerBlock) * scaledPixelCost(profile.Mono().RayTracerFactor, cfg.TimeScale)
	start := time.Now()
	var wg sync.WaitGroup
	for _, p := range f.proxies {
		for i := 0; i < perWorker; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := p.Invoke("Render", 0, cfg.RowsPerBlock)
				if err != nil {
					t.Error(err)
					return
				}
				if px, err := toInt32s(res); err != nil || len(px) != cfg.Width*cfg.RowsPerBlock {
					t.Errorf("Render = %d pixels, %v", len(px), err)
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if min := 2 * perWorker * render; elapsed < min {
		t.Errorf("%d renders of %v each took %v on a pool of one: some ran at once", 2*perWorker, render, elapsed)
	}
	if wait := f.queueWait(); wait <= 0 {
		t.Errorf("queue wait = %v, want the time renders waited for the pool", wait)
	} else {
		t.Logf("%d renders of %v: %v, %v of it waiting for the pool", 2*perWorker, render, elapsed, wait)
	}
}
