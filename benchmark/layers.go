package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dispatch"
	"repro/internal/remoting"
	"repro/internal/threadpool"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/parc"
)

// perOpFloor is the cost above which a row times every op on its own: a
// clock read is then under a few percent of the op, and the median sheds the
// scheduler hiccups a batch mean keeps.
const perOpFloor = 2 * time.Microsecond

// row is one timed entry point of a layer.
type row struct {
	name string
	op   func()

	perOp   bool      // timed call by call (median) or in batches (median of means)
	batch   int       // ops per batch when not perOp
	each    []int64   // perOp: every op's time
	means   []float64 // batches: every batch's mean
	mallocs uint64
	bytes   uint64
	ops     int
}

func (r *row) ns() float64 {
	if r.perOp {
		return quantile(r.each, 0.5)
	}
	return median(r.means)
}
func (r *row) allocs() float64     { return float64(r.mallocs) / float64(r.ops) }
func (r *row) allocBytes() float64 { return float64(r.bytes) / float64(r.ops) }

// slot runs the row for about d and folds the result in.
func (r *row) slot(d time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := r.batch
	if r.perOp {
		ops = 0
		for t0, end := nanotime(), nanotime()+int64(d); t0 < end; ops++ {
			r.op()
			t1 := nanotime()
			r.each = append(r.each, t1-t0)
			t0 = t1
		}
	} else {
		t0 := time.Now()
		for i := 0; i < r.batch; i++ {
			r.op()
		}
		r.means = append(r.means, float64(time.Since(t0))/float64(r.batch))
	}
	runtime.ReadMemStats(&m1)
	r.mallocs += m1.Mallocs - m0.Mallocs
	r.bytes += m1.TotalAlloc - m0.TotalAlloc
	r.ops += ops
}

// timeRows spends budget on the rows in rounds, every row getting one slot
// per round, so that each row samples the same stretch of machine weather
// and the differences between rows mean something. The first slot of a row
// doubles a batch until it fills the slot, which warms the path up and
// finds whether the op is dear enough to time call by call.
func timeRows(rows []*row, budget time.Duration) {
	const rounds = 5
	d := budget / time.Duration(len(rows)*(rounds+1))
	for _, r := range rows {
		for n := 1; ; n *= 2 {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				r.op()
			}
			if el := time.Since(t0); el >= d/2 || n >= 1<<24 {
				r.perOp = el/time.Duration(n) >= perOpFloor
				r.batch = max(int(float64(n)*float64(d)/float64(el)), 1)
				break
			}
		}
	}
	for round := 0; round < rounds; round++ {
		for _, r := range rows {
			r.slot(d)
		}
	}
}

// plainEcho has Echo's method but no generated thunk, so dispatch takes the
// reflective path for it.
type plainEcho struct{}

func (plainEcho) Ints(v []int32) []int32 { return v }

// rawEcho connects to a peer that sends every frame straight back, on the
// network addr selects, and returns the op that echoes frame once: the
// cost of the transport with nothing above it.
func rawEcho(addr string, frame []byte, fail func(error)) (op func(), stop func(), err error) {
	net := transport.Auto{}
	l, err := net.Listen(addr)
	if err != nil {
		return nil, nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := transport.RecvFrame(c)
			if err != nil || c.Send(m) != nil {
				return
			}
			transport.PutFrame(m)
		}
	}()
	c, err := net.Dial(l.Addr())
	if err != nil {
		l.Close()
		<-served
		return nil, nil, err
	}
	op = func() {
		if err := c.Send(frame); err != nil {
			fail(err)
			return
		}
		m, err := transport.RecvFrame(c)
		fail(err)
		transport.PutFrame(m)
	}
	return op, func() { c.Close(); l.Close(); <-served }, nil
}

// remotingEcho publishes an Echo as a well-known object and returns the op
// that calls it through ObjRef.Invoke: the remoting layer (envelope, mux,
// server dispatch) over the transport, with no SCOOPP runtime above it.
func remotingEcho(addr, method string, arg any, fail func(error)) (op func(), stop func(), err error) {
	srvCh := remoting.NewMultiplexedChannel(transport.Auto{})
	srv, err := srvCh.ListenAndServe(addr)
	if err != nil {
		return nil, nil, err
	}
	srv.Marshal("echo", &Echo{})
	cli := remoting.NewMultiplexedChannel(transport.Auto{})
	stop = func() { cli.Close(); srv.Close(); srvCh.Close() }
	ref, err := remoting.GetObject(cli, srv.URLFor("echo"))
	if err != nil {
		stop()
		return nil, nil, err
	}
	return func() { _, err := ref.Invoke(method, arg); fail(err) }, stop, nil
}

// layers times each layer's public entry points with the values the
// workloads send, one caller, and derives each layer's own share by
// substitution: a layer's self time is its call time minus the call time
// of the layer below. ledger.e2e_ns is a second, separately sampled median
// of the typed call the substitution rows add up to.
func layers(budget time.Duration, seed uint64) (metrics, error) {
	in := newInputs(spec{bulk: true, callers: 1}, seed)
	small, bulk := in.small[0], in.bulk[0]
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var rows []*row
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	add := func(name string, op func()) *row {
		r := &row{name: name, op: op}
		rows = append(rows, r)
		return r
	}
	// addServed adds a row whose op needs a peer that stop shuts down.
	addServed := func(name string) func(op func(), stop func(), err error) *row {
		return func(op func(), stop func(), err error) *row {
			if err != nil {
				fail(err)
				return &row{name: name, ops: 1}
			}
			stops = append(stops, stop)
			return add(name, op)
		}
	}

	// wire: the argument list core hands to remoting for one call.
	smallMsg := []any{"Ints", []any{small}}
	bulkMsg := []any{"Bytes", []any{bulk}}
	encode := func(msg any) func() {
		return func() {
			e := wire.NewEncoder()
			fail(e.Encode(msg))
			e.Release()
		}
	}
	decode := func(data []byte) func() {
		return func() {
			d := wire.NewDecoder(data)
			d.SetBorrow(true)
			_, err := d.Decode()
			fail(err)
			d.Release()
		}
	}
	smallWire, err := wire.BinFmt{}.Marshal(smallMsg)
	fail(err)
	bulkWire, err := wire.BinFmt{}.Marshal(bulkMsg)
	fail(err)
	encSmall, decSmall := add("wire.enc_small", encode(smallMsg)), add("wire.dec_small", decode(smallWire))
	encBulk, decBulk := add("wire.enc_bulk", encode(bulkMsg)), add("wire.dec_bulk", decode(bulkWire))

	// transport: a raw frame of the same size, echoed.
	tcpSmall := addServed("transport.tcp_rtt_small")(rawEcho("127.0.0.1:0", smallWire, fail))
	tcpBulk := addServed("transport.tcp_rtt_bulk")(rawEcho("127.0.0.1:0", bulkWire, fail))
	unixSmall := addServed("transport.unix_rtt_small")(rawEcho("unix://", smallWire, fail))
	inprocSmall := addServed("transport.inproc_rtt_small")(rawEcho("inproc://", smallWire, fail))

	// dispatch: the server-side method call, generated thunk against reflection.
	args := []any{small}
	thunk := add("dispatch.thunk", func() {
		_, err := dispatch.InvokeCtx(ctx, &Echo{}, "Ints", args)
		fail(err)
	})
	reflective := add("dispatch.reflect", func() {
		_, err := dispatch.InvokeCtx(ctx, plainEcho{}, "Ints", args)
		fail(err)
	})

	// remoting: a well-known object called through ObjRef.
	remSmall := addServed("remoting.call_small")(remotingEcho("127.0.0.1:0", "Ints", small, fail))
	remBulk := addServed("remoting.call_bulk")(remotingEcho("127.0.0.1:0", "Bytes", bulk, fail))
	remInproc := addServed("remoting.call_small_inproc")(remotingEcho("inproc://", "Ints", small, fail))

	// core and parc: the SCOOPP proxy and the typed facade over it, on the
	// cluster pingpong_small runs on.
	cl, err := boot(transport.TCPNetwork{}, 2, false)
	if err != nil {
		return nil, err
	}
	stops = append(stops, cl.close)
	po, err := NewEcho(cl[0])
	if err != nil {
		return nil, err
	}
	p := po.Proxy()
	coreSmall := add("core.call_small", func() { _, err := p.Invoke("Ints", small); fail(err) })
	var posts []int64
	add("core.async", func() {
		t0 := nanotime()
		f := p.InvokeAsync("Ints", small)
		posts = append(posts, nanotime()-t0)
		_, err := f.Get()
		fail(err)
	})
	typed := func() { _, err := po.Ints(ctx, small); fail(err) }
	parcSmall := add("parc.call_small", typed)
	parcDynamic := add("parc.call_dynamic", func() {
		_, err := parc.Call[[]int32](ctx, po.Object(), "Ints", small)
		fail(err)
	})
	e2e := add("ledger.e2e", typed)
	done := po.BeginInts(ctx, small)
	_, err = done.Get(ctx)
	fail(err)
	then := add("parc.then", func() {
		_, err := parc.Then(done, func(v []int32) (int, error) { return len(v), nil }).Get(ctx)
		fail(err)
	})

	local, err := boot(transport.TCPNetwork{}, 1, true)
	if err != nil {
		return nil, err
	}
	stops = append(stops, local.close)
	lp, err := local[0].NewParallelObject("main.Echo")
	if err != nil {
		return nil, err
	}
	coreLocal := add("core.call_local", func() { _, err := lp.Invoke("Ints", small); fail(err) })

	// cluster: boot the three-node cluster of scatter_async three times,
	// then scatter over the last one.
	var boots []float64
	var three nodes
	for i := 0; i < 3; i++ {
		if three != nil {
			three.close()
		}
		t0 := time.Now()
		if three, err = boot(transport.TCPNetwork{}, 3, false); err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
	}
	stops = append(stops, three.close)
	sc, err := setupOn(three, spec{name: "layers", shape: scatter, nodes: 3, objects: 8}, in)
	if err != nil {
		return nil, err
	}
	wave := add("parc.scatter", sc.scatterWave)

	// threadpool: only continuation overflow goes through it.
	pool := threadpool.New(2, 0)
	stops = append(stops, func() { pool.Wait(); pool.Close() })
	submit := add("threadpool.submit", func() { fail(pool.Submit(func() {})) })

	timeRows(rows, budget)
	if n := sc.failed.Load(); n > 0 {
		fail(fmt.Errorf("layers: %d scatter calls failed", n))
	}

	m := metrics{
		"wire.small_wire_bytes":     float64(len(smallWire)),
		"wire.dec_bulk_bytes_alloc": decBulk.allocBytes(),
		"core.async_post_ns":        quantile(posts, 0.5),
		"parc.scatter_ns_per_call":  wave.ns() / waveCalls,
		"cluster.boot3_s":           median(boots),
	}
	for _, r := range []*row{encSmall, decSmall, encBulk, decBulk, tcpSmall, tcpBulk, unixSmall, inprocSmall,
		thunk, reflective, remSmall, remBulk, remInproc, coreSmall, coreLocal, parcSmall, parcDynamic, then, e2e, submit} {
		m[r.name+"_ns"] = r.ns()
	}
	for _, r := range []*row{encSmall, decSmall, tcpSmall, thunk, reflective, remSmall, coreSmall, coreLocal, parcSmall, submit} {
		m[r.name+"_allocs"] = r.allocs()
	}
	codec := 2 * (encSmall.ns() + decSmall.ns())
	m["remoting.self_small_ns"] = remSmall.ns() - tcpSmall.ns() - codec - thunk.ns()
	m["core.self_small_ns"] = coreSmall.ns() - remSmall.ns()
	m["parc.self_small_ns"] = parcSmall.ns() - coreSmall.ns()
	m["ledger.sum_ns"] = tcpSmall.ns() + codec + thunk.ns() +
		m["remoting.self_small_ns"] + m["core.self_small_ns"] + m["parc.self_small_ns"]
	m["ledger.residual_pct"] = 100 * (e2e.ns() - m["ledger.sum_ns"]) / e2e.ns()
	return m, firstErr
}
