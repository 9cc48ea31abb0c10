package figures

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/paper/wirecodecs"
	"repro/internal/sieve"
	"repro/internal/wire"
)

// Ablation A1 — method-call aggregation. The sieve pipeline posts one
// fine-grain Process call per candidate number. Run as it is, the posts
// queued behind one in flight leave together as one batch; run with every
// stage sending each post alone, none does. The gap is the SCOOPP
// aggregation win (fewer, larger messages) the paper's §3.1 claims.

// AggRow is one run of the aggregation ablation. Frames counts what the
// posts went out in: one for each batch, and one for each post that went
// alone (to a remote object in a frame of its own, to a local one as a
// mailbox entry of its own).
type AggRow struct {
	Mode        string
	Seconds     float64
	Posts       int64
	Frames      int64
	PerBatch    float64 // the mean batch, 0 with none
	PrimesFound int
}

// RunAggregationSweep runs the pipelined sieve up to n on a 2-node shaped
// cluster twice: with adaptive batching, and with one post a frame.
func RunAggregationSweep(n int, net netsim.Params) ([]AggRow, error) {
	var rows []AggRow
	for _, alone := range []bool{false, true} {
		network, _ := monoNet(net)
		cl, err := cluster.New(cluster.Options{Nodes: 2, Network: network})
		if err != nil {
			return nil, err
		}
		for i := 0; i < cl.Size(); i++ {
			sieve.RegisterClasses(cl.Node(i))
		}
		row := AggRow{Mode: "adaptive"}
		if alone {
			row.Mode = "one post a frame"
		}
		start := time.Now()
		primes, err := sieve.Pipeline(cl.Node(0), n, alone)
		row.Seconds = time.Since(start).Seconds()
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("bench: sieve %s: %w", row.Mode, err)
		}
		var batches, batched int64
		for i := 0; i < cl.Size(); i++ {
			st := cl.Node(i).Stats()
			row.Posts += st.AsyncCalls
			batches += st.BatchesSent
			batched += st.CallsAggregated
		}
		cl.Close()
		row.Frames = row.Posts - batched + batches
		if batches > 0 {
			row.PerBatch = float64(batched) / float64(batches)
		}
		row.PrimesFound = len(primes)
		rows = append(rows, row)
	}
	return rows, nil
}

// Ablation A2 — object agglomeration. A fan-out of fine-grain objects is
// created and exercised with and without agglomeration; removing the
// parallelism (and its remoting round trips) must win once grains are far
// below communication costs.

// AgglomRow is one point of the agglomeration ablation.
type AgglomRow struct {
	Policy       string
	Seconds      float64
	Agglomerated int64
	// Msgs is what the run put on the network, the cost packing removes
	// (counted by the shaped network; zero on an unshaped one).
	Msgs int64
}

// fineGrainObj is a deliberately tiny grain.
type fineGrainObj struct{ n int }

// Bump does near-zero work, far below the network round-trip cost.
func (f *fineGrainObj) Bump(v int) { f.n += v }

// Total returns the accumulated value.
func (f *fineGrainObj) Total() int { return f.n }

// RunAgglomerationAblation creates objects fine-grain objects, posts calls
// calls on each, and measures completion under three policies.
func RunAgglomerationAblation(objects, calls int, net netsim.Params) ([]AgglomRow, error) {
	policies := []struct {
		name   string
		policy core.AgglomerationPolicy
	}{
		{"never (all parallel)", core.NeverAgglomerate{}},
		{"always (all packed)", core.AlwaysAgglomerate{}},
		{"adaptive", core.AdaptiveAgglomeration{MinGrain: 2 * time.Millisecond, MinLocalLoad: 0, MinSamples: 4}},
	}
	var rows []AgglomRow
	for _, pol := range policies {
		network, stats := monoNet(net)
		cl, err := cluster.New(cluster.Options{
			Nodes:   2,
			Network: network,
			Config:  core.Config{Agglomeration: pol.policy},
		})
		if err != nil {
			return nil, err
		}
		cl.RegisterClass("fine", func() any { return &fineGrainObj{} })
		master := cl.Node(0)
		start := time.Now()
		proxies := make([]*core.Proxy, 0, objects)
		for i := 0; i < objects; i++ {
			p, err := master.NewParallelObject("fine")
			if err != nil {
				cl.Close()
				return nil, err
			}
			proxies = append(proxies, p)
			for c := 0; c < calls; c++ {
				p.Post("Bump", 1)
			}
		}
		for _, p := range proxies {
			p.Wait()
			got, err := p.Invoke("Total")
			if err != nil {
				cl.Close()
				return nil, err
			}
			if got != calls {
				cl.Close()
				return nil, fmt.Errorf("bench: agglomeration %q lost calls: %v != %d", pol.name, got, calls)
			}
		}
		elapsed := time.Since(start)
		row := AgglomRow{Policy: pol.name, Seconds: elapsed.Seconds(),
			Agglomerated: master.Stats().ObjectsAgglomerated, Msgs: stats.Counter("msgs_sent").Load()}
		cl.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// Ablation A3 — codec weight: size and encode+decode time per codec for a
// representative RPC payload, the mechanism behind the Fig. 8 stack
// ordering.

// CodecRow is one codec's measurement.
type CodecRow struct {
	Codec       string
	Bytes       int
	EncodeNanos int64
	DecodeNanos int64
}

// RunCodecAblation measures all three codecs on an n-int32 call payload.
func RunCodecAblation(n int) ([]CodecRow, error) {
	payload := []any{"process", payloadFor(n * 4)}
	var rows []CodecRow
	for _, c := range []wirecodecs.Codec{wire.BinFmt{}, wirecodecs.JavaSer{}, wirecodecs.SoapFmt{}} {
		data, err := c.Marshal(payload)
		if err != nil {
			return nil, err
		}
		const reps = 50
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := c.Marshal(payload); err != nil {
				return nil, err
			}
		}
		enc := time.Since(start).Nanoseconds() / reps
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := c.Unmarshal(data); err != nil {
				return nil, err
			}
		}
		dec := time.Since(start).Nanoseconds() / reps
		rows = append(rows, CodecRow{Codec: c.Name(), Bytes: len(data), EncodeNanos: enc, DecodeNanos: dec})
	}
	return rows, nil
}

// Ablation A4 — thread-pool cap. The farm of Fig. 9 is rerun at fixed
// processors with varying per-node pool sizes, exposing the starvation
// mechanism the paper blames for ParC#'s weaker scaling; the pool's queue
// wait is reported alongside.

// PoolRow is one pool-size measurement.
type PoolRow struct {
	PoolSize  int
	Seconds   float64
	QueueWait time.Duration
}

// RunPoolAblation reruns the ParC# farm with explicit pool sizes.
func RunPoolAblation(cfg Fig9Config, processors int, poolSizes []int) ([]PoolRow, error) {
	var rows []PoolRow
	for _, ps := range poolSizes {
		seconds, wait, err := runParcFarmWithPool(cfg, processors, ps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PoolRow{PoolSize: ps, Seconds: seconds, QueueWait: wait})
	}
	return rows, nil
}

// runParcFarmWithPool is RunParCSharpFarm with an explicit pool size and
// queue-wait reporting.
func runParcFarmWithPool(cfg Fig9Config, processors, poolSize int) (float64, time.Duration, error) {
	f, err := startParcFarm(cfg, processors, poolSize)
	if err != nil {
		return 0, 0, err
	}
	defer f.close()
	seconds, _, err := f.run(cfg)
	if err != nil {
		return 0, 0, err
	}
	return seconds, f.queueWait(), nil
}
