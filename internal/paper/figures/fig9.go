package figures

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/paper/profile"
	"repro/internal/paper/rmi"
	"repro/internal/raytracer"
	"repro/internal/sieve"
	"repro/internal/threadpool"
	"repro/internal/wire"
)

// Fig. 9 renders a 500×500 scene with a farm of workers on 1–6 processors
// (dual-CPU nodes, so P processors occupy ceil(P/2) nodes) and compares the
// ParC# stack against a Java RMI farm.
//
// Hardware substitution: a 2005 Athlon MP 1800+ renders the paper's scene
// at roughly AthlonPixelCost per pixel (Fig. 9 shows ≈110 s sequential Java
// for 250 000 pixels). Modern hosts are two orders of magnitude faster and
// have arbitrary core counts, so the worker renders the real image (for
// checksum validation) and then holds its processor for the modelled
// remaining time. This keeps the scaling behaviour independent of the host
// machine while every communication cost stays real. TimeScale shrinks the
// modelled times so the full sweep completes in seconds; the reported
// seconds are de-scaled back to testbed magnitudes.

// AthlonPixelCost is the modelled per-pixel render time of the 2005
// testbed CPU at JVM speed (≈110 s / 250 000 px from Fig. 9).
const AthlonPixelCost = 440 * time.Microsecond

// Fig9Config parameterises the farm experiment.
type Fig9Config struct {
	// Width/Height of the image (paper: 500×500).
	Width, Height int
	// RowsPerBlock is how many lines one farm task renders ("each worker
	// renders several lines").
	RowsPerBlock int
	// TimeScale divides all modelled compute times (1 = real 2005
	// magnitudes; benchmarks use 100–500).
	TimeScale float64
	// Processors sweeps the x axis.
	Processors []int
	// Full network shaping on (tests may turn it off for speed).
	Net netsim.Params
}

// DefaultFig9Config returns a laptop-friendly configuration preserving the
// paper's shape: the full 500×500 image, scaled time.
func DefaultFig9Config(full bool) Fig9Config {
	cfg := Fig9Config{
		Width: 500, Height: 500,
		RowsPerBlock: 10,
		TimeScale:    150,
		Processors:   []int{1, 2, 3, 4, 5, 6},
		Net:          profile.Network(),
	}
	if !full {
		// Keep the compute-to-communication ratio of the paper's
		// full-size runs: fewer pixels but a proportionally lower
		// time scale, so blocks still cost milliseconds of modelled
		// compute against sub-millisecond communication.
		cfg.Width, cfg.Height = 100, 100
		cfg.RowsPerBlock = 10
		cfg.TimeScale = 50
		cfg.Processors = []int{1, 2, 4}
	}
	return cfg
}

// Fig9Row is one measured point.
type Fig9Row struct {
	Processors int
	// Seconds of modelled testbed time (de-scaled), keyed by system
	// ("ParC#", "Java RMI"): the timed figure, which the host's scheduler
	// has a say in.
	Seconds map[string]float64
	// Modelled is the same time with communication free and the farm
	// perfectly balanced: the image's pixels at the system's VM pixel cost,
	// shared between the processors. It follows from the profile alone, and
	// no run can come in under it, because every worker holds its processor
	// for the modelled time of each block it renders.
	Modelled map[string]float64
	// Checksum validates that every configuration rendered the same
	// image.
	Checksum map[string]int64
}

// rtWorker is the farm worker parallel object. SetScene installs the scene
// and the modelled per-pixel cost; Render produces the pixels of a row
// block and occupies its processor for the modelled time.
type rtWorker struct {
	mu        sync.Mutex
	scene     raytracer.Scene
	pixelCost time.Duration
	// renderMu serialises compute: one worker object models one
	// processor, so overlapping block requests (double buffering) only
	// overlap communication with computation, never computation with
	// itself.
	renderMu sync.Mutex
	// pool, when set, is the thread pool of the worker's node, which
	// renders run on: the Mono pool's cap on the ParC# side of Fig. 9 and
	// ablation A4.
	pool *threadpool.Pool
}

func init() {
	wire.Register(raytracer.Scene{})
	wire.Register(raytracer.Sphere{})
	wire.Register(raytracer.Light{})
	wire.Register(raytracer.Vec{})
}

// SetScene installs the render input. pixelCostNanos already includes the
// VM factor and time scaling.
func (w *rtWorker) SetScene(s raytracer.Scene, pixelCostNanos int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.scene = s
	w.pixelCost = time.Duration(pixelCostNanos)
}

// Render renders rows [y0, y1), on the worker's pool when it has one, and
// waits for the pixels.
func (w *rtWorker) Render(y0, y1 int) []int32 {
	if w.pool == nil {
		return w.render(y0, y1)
	}
	var pixels []int32
	done := make(chan struct{})
	if err := w.pool.Submit(func() {
		defer close(done)
		pixels = w.render(y0, y1)
	}); err != nil {
		return w.render(y0, y1)
	}
	<-done
	return pixels
}

func (w *rtWorker) render(y0, y1 int) []int32 {
	w.mu.Lock()
	scene := w.scene
	cost := w.pixelCost
	w.mu.Unlock()
	w.renderMu.Lock()
	defer w.renderMu.Unlock()
	start := time.Now()
	pixels := scene.RenderRows(y0, y1, 1)
	if modelled := time.Duration(len(pixels)) * cost; modelled > 0 {
		if rest := modelled - time.Since(start); rest > 0 {
			time.Sleep(rest)
		}
	}
	return pixels
}

// block is one farm task.
type block struct {
	idx    int
	y0, y1 int
}

func makeBlocks(height, rows int) []block {
	var out []block
	for y, i := 0, 0; y < height; y, i = y+rows, i+1 {
		end := y + rows
		if end > height {
			end = height
		}
		out = append(out, block{idx: i, y0: y, y1: end})
	}
	return out
}

// renderWorkerFn abstracts "render a block on worker w" over the two
// stacks.
type renderWorkerFn func(workerIdx int, b block) ([]int32, error)

// runFarm drives the farm: workers pull blocks from a shared queue with
// two outstanding requests per worker (double buffering overlaps the next
// block's communication with the current block's computation — the overlap
// the Mono thread pool destroys).
func runFarm(workers int, blocks []block, render renderWorkerFn) ([][]int32, error) {
	results := make([][]int32, len(blocks))
	queue := make(chan block, len(blocks))
	for _, b := range blocks {
		queue <- b
	}
	close(queue)
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		for lane := 0; lane < 2; lane++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := range queue {
					px, err := render(w, b)
					if err != nil {
						errs <- err
						return
					}
					results[b.idx] = px
				}
			}(w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	return results, nil
}

func assemble(results [][]int32) []int32 {
	var out []int32
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// nodesFor maps processors to dual-CPU nodes.
func nodesFor(processors int) int { return (processors + 1) / 2 }

// workerRoundRobin places objects round-robin over every node except the
// master (node 0). Both farms keep the coordinator on its own node so the
// two systems pay identical network costs per block; the paper's master
// shared a node with workers, but its local calls still crossed the local
// RMI/remoting stack, which the in-process runtime would short-circuit —
// see EXPERIMENTS.md (E4, topology note).
type workerRoundRobin struct {
	next atomic.Int64
}

// Pick implements core.PlacementPolicy.
func (w *workerRoundRobin) Pick(self int, loads []core.NodeLoad) int {
	var workers []int
	for _, l := range loads {
		if l.Node != 0 {
			workers = append(workers, l.Node)
		}
	}
	if len(workers) == 0 {
		return self
	}
	n := w.next.Add(1) - 1
	return workers[int(n)%len(workers)]
}

// RunParCSharpFarm measures the ParC# farm at one processor count and
// returns (de-scaled seconds, image checksum).
func RunParCSharpFarm(cfg Fig9Config, processors int) (float64, int64, error) {
	f, err := startParcFarm(cfg, processors, profile.MonoPoolSize)
	if err != nil {
		return 0, 0, err
	}
	defer f.close()
	return f.run(cfg)
}

// parcFarm is the ParC# side of Fig. 9: a cluster whose master (node 0)
// farms row blocks to one rtWorker per processor on the other nodes, each
// node's workers rendering on that node's thread pool.
type parcFarm struct {
	cl      *cluster.Cluster
	pools   []*threadpool.Pool
	proxies []*core.Proxy
}

// startParcFarm boots the farm for processors workers, with thread pools of
// poolSize workers, and hands every worker the scene.
func startParcFarm(cfg Fig9Config, processors, poolSize int) (*parcFarm, error) {
	net, _ := monoNet(cfg.Net)
	cl, err := cluster.New(cluster.Options{
		Nodes:   nodesFor(processors) + 1, // node 0 is the master
		Network: net,
		Config:  core.Config{Placement: &workerRoundRobin{}},
	})
	if err != nil {
		return nil, err
	}
	f := &parcFarm{cl: cl}
	for i := 0; i < cl.Size(); i++ {
		pool := threadpool.New(poolSize, 0)
		f.pools = append(f.pools, pool)
		cl.Node(i).RegisterClass("rtWorker", func() any { return &rtWorker{pool: pool} })
	}
	scene := raytracer.JGFScene(8, cfg.Width, cfg.Height)
	pixelCost := scaledPixelCost(profile.Mono().RayTracerFactor, cfg.TimeScale)
	for i := 0; i < processors; i++ {
		p, err := cl.Node(0).NewParallelObject("rtWorker")
		if err == nil {
			f.proxies = append(f.proxies, p)
			_, err = p.Invoke("SetScene", scene, int64(pixelCost))
		}
		if err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// run renders the image once and returns (de-scaled seconds, checksum).
func (f *parcFarm) run(cfg Fig9Config) (float64, int64, error) {
	blocks := makeBlocks(cfg.Height, cfg.RowsPerBlock)
	start := time.Now()
	results, err := runFarm(len(f.proxies), blocks, func(w int, b block) ([]int32, error) {
		res, err := f.proxies[w].Invoke("Render", b.y0, b.y1)
		if err != nil {
			return nil, err
		}
		return toInt32s(res)
	})
	if err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	return elapsed.Seconds() * cfg.TimeScale, raytracer.Checksum(assemble(results)), nil
}

// queueWait sums the time renders waited for a pool worker, on every node:
// the starvation measure of ablation A4.
func (f *parcFarm) queueWait() time.Duration {
	var total time.Duration
	for _, p := range f.pools {
		total += p.Snapshot().TotalQueueWait
	}
	return total
}

func (f *parcFarm) close() {
	for _, p := range f.proxies {
		p.Destroy() //nolint:errcheck // teardown
	}
	f.cl.Close()
	for _, p := range f.pools {
		p.Close()
	}
}

// RunJavaRMIFarm measures the Java RMI farm at one processor count.
func RunJavaRMIFarm(cfg Fig9Config, processors int) (float64, int64, error) {
	vm := profile.SunJVM()
	net := shapedNet(cfg.Net)
	nodes := nodesFor(processors)
	servers := make([]*rmi.Runtime, nodes)
	for i := range servers {
		rt := rmi.NewRuntime(net)
		rt.Cost = profile.JavaRMI()
		if err := rt.Listen(""); err != nil {
			return 0, 0, err
		}
		defer rt.Close()
		servers[i] = rt
	}
	scene := raytracer.JGFScene(8, cfg.Width, cfg.Height)
	pixelCost := scaledPixelCost(vm.RayTracerFactor, cfg.TimeScale)
	client := rmi.NewRuntime(net)
	client.Cost = profile.JavaRMI()
	stubs := make([]*rmi.Stub, processors)
	for i := 0; i < processors; i++ {
		node := servers[i%nodes]
		name := fmt.Sprintf("worker%d", i)
		w := &rtWorker{}
		w.SetScene(scene, int64(pixelCost))
		if err := node.Rebind(name, w); err != nil {
			return 0, 0, err
		}
		stub, err := client.Lookup(node.URLFor(name))
		if err != nil {
			return 0, 0, err
		}
		stubs[i] = stub
	}
	blocks := makeBlocks(cfg.Height, cfg.RowsPerBlock)
	start := time.Now()
	results, err := runFarm(processors, blocks, func(w int, b block) ([]int32, error) {
		res, err := stubs[w].Invoke("Render", b.y0, b.y1)
		if err != nil {
			return nil, err
		}
		return toInt32s(res)
	})
	if err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	image := assemble(results)
	return elapsed.Seconds() * cfg.TimeScale, raytracer.Checksum(image), nil
}

func scaledPixelCost(vmFactor, timeScale float64) time.Duration {
	return time.Duration(float64(AthlonPixelCost) * vmFactor / timeScale)
}

// modelledSeconds is Fig9Row.Modelled for one system.
func modelledSeconds(cfg Fig9Config, vm profile.VM, processors int) float64 {
	perPixel := scaledPixelCost(vm.RayTracerFactor, cfg.TimeScale)
	total := time.Duration(cfg.Width*cfg.Height) * perPixel
	return total.Seconds() * cfg.TimeScale / float64(processors)
}

func toInt32s(v any) ([]int32, error) {
	switch x := v.(type) {
	case []int32:
		return x, nil
	case []any:
		out := make([]int32, len(x))
		for i, e := range x {
			n, ok := e.(int32)
			if !ok {
				return nil, fmt.Errorf("bench: pixel %d is %T", i, e)
			}
			out[i] = n
		}
		return out, nil
	}
	return nil, fmt.Errorf("bench: render returned %T", v)
}

// RunFig9 sweeps processor counts for both systems.
func RunFig9(cfg Fig9Config) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, p := range cfg.Processors {
		row := Fig9Row{
			Processors: p,
			Seconds:    map[string]float64{},
			Modelled: map[string]float64{
				"ParC#":    modelledSeconds(cfg, profile.Mono(), p),
				"Java RMI": modelledSeconds(cfg, profile.SunJVM(), p),
			},
			Checksum: map[string]int64{},
		}
		sec, sum, err := RunParCSharpFarm(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("bench: ParC# farm p=%d: %w", p, err)
		}
		row.Seconds["ParC#"] = sec
		row.Checksum["ParC#"] = sum
		sec, sum, err = RunJavaRMIFarm(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("bench: RMI farm p=%d: %w", p, err)
		}
		row.Seconds["Java RMI"] = sec
		row.Checksum["Java RMI"] = sum
		rows = append(rows, row)
	}
	return rows, nil
}

// SeqRatioRow is one row of the E5 sequential-speed table.
type SeqRatioRow struct {
	Workload string
	VM       string
	// Ratio is the modelled sequential time relative to the Sun JVM: the
	// ratio of the profile's factors for the workload's kernel.
	Ratio float64
	// Measured is the same ratio timed on this host, where the kernel runs
	// under the factor (the sieve); 0 where it does not.
	Measured float64
}

// RunSeqRatios reports the sequential time ratios the paper states in
// prose: ray tracer Mono/JVM ≈ 1.4, MS CLR/JVM ≈ 1.1, sieve Mono/JVM ≈ 1.0.
// Ratio follows directly from the calibrated factors, which is what the
// farm's modelled pixel cost and the sieve's injected work are computed
// from; the sieve rows also run the real kernel under each factor and time
// it, as a figure to print.
func RunSeqRatios(n int) []SeqRatioRow {
	vms := []profile.VM{profile.SunJVM(), profile.Mono(), profile.MSCLR()}
	var rows []SeqRatioRow
	for _, vm := range vms {
		rows = append(rows, SeqRatioRow{
			Workload: "raytracer",
			VM:       vm.Name,
			Ratio:    vm.RayTracerFactor / vms[0].RayTracerFactor,
		})
	}
	// Minimum of several repetitions after a warm-up, so allocator and
	// cache effects do not masquerade as VM speed.
	timeOf := func(f float64) time.Duration {
		sieve.SequentialCount(n, f)
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			sieve.SequentialCount(n, f)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	jvm := timeOf(vms[0].SieveFactor)
	for _, vm := range vms {
		rows = append(rows, SeqRatioRow{
			Workload: "sieve",
			VM:       vm.Name,
			Ratio:    vm.SieveFactor / vms[0].SieveFactor,
			Measured: float64(timeOf(vm.SieveFactor)) / float64(jvm),
		})
	}
	return rows
}
