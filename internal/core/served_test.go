package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/remoting"
	"repro/internal/transport"
)

// TestMixedCallsRunInIssueOrder is SPEC guarantee 1's probe: through one
// idle remote proxy, InvokeAsync(Echo, 1), InvokeAsync(Echo, 2) and a
// blocking Invoke(Echo, 3) run on the object in the order they were issued,
// in every one of 2,000 rounds, on one processor and on two, over mem:// and
// over loopback TCP. The three calls ride one lane, whose writer sends them
// in issue order, and the server's read loop hands each to the object's
// mailbox as it reads it.
func TestMixedCallsRunInIssueOrder(t *testing.T) {
	const rounds = 2000
	transports := []struct {
		name string
		net  func() transport.Network
		addr func(int) string
	}{
		{"mem", func() transport.Network { return transport.NewMemNetwork() },
			func(i int) string { return fmt.Sprintf("mem://order%d", i) }},
		{"tcp", func() transport.Network { return transport.TCPNetwork{} },
			func(int) string { return "127.0.0.1:0" }},
	}
	for _, tr := range transports {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/procs=%d", tr.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				l := &orderLog{}
				rts := startNodesOn(t, tr.net(), tr.addr, 2, func(i int, cfg *Config) {
					cfg.Placement = &forceNode{node: 1}
				})
				for _, rt := range rts {
					rt.RegisterClass("orderlog", func() any { return l })
				}
				p, err := rts[0].NewParallelObject("orderlog")
				if err != nil {
					t.Fatal(err)
				}
				if p.IsLocal() {
					t.Fatal("want a remote object")
				}
				want := []int{1, 2, 3}
				var first []int
				bad := 0
				for r := 0; r < rounds; r++ {
					l.mu.Lock()
					l.seen = l.seen[:0]
					l.mu.Unlock()
					f1 := p.InvokeAsync("Echo", 1)
					f2 := p.InvokeAsync("Echo", 2)
					if _, err := p.Invoke("Echo", 3); err != nil {
						t.Fatal(err)
					}
					for _, f := range []*Future{f1, f2} {
						if _, err := f.Get(); err != nil {
							t.Fatal(err)
						}
					}
					if got := l.order(); !slices.Equal(got, want) {
						if bad == 0 {
							first = got
						}
						bad++
					}
				}
				if bad > 0 {
					t.Errorf("%d of %d rounds ran out of issue order, the first as %v", bad, rounds, first)
				}
			})
		}
	}
}

// TestPausedMailboxHoldsCallsInOrder: while a migration pauses a local
// object's mailbox, a post and an asynchronous call return at once; the
// mailbox holds them beside its queue and runs them, in issue order, when
// the pause ends.
func TestPausedMailboxHoldsCallsInOrder(t *testing.T) {
	rts := startNodes(t, 1, nil)
	p, err := rts[0].NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	_, act := p.state()
	if act == nil {
		t.Fatal("want a local active object")
	}
	if err := act.pause(context.Background()); err != nil {
		t.Fatal(err)
	}
	issued := make(chan *Future, 1)
	go func() {
		p.Post("Add", 1)
		issued <- p.InvokeAsync("Add", 2)
	}()
	var f *Future
	select {
	case f = <-issued:
	case <-time.After(5 * time.Second):
		act.resume()
		t.Fatal("a call on a paused mailbox blocked its caller")
	}
	p.Post("Add", 3)
	act.resume()
	if _, err := f.Get(); err != nil {
		t.Fatal(err)
	}
	p.Wait()
	got, err := p.Invoke("Values")
	if err != nil {
		t.Fatal(err)
	}
	if vals, err := asIntSlice(got); err != nil || !slices.Equal(vals, []int{1, 2, 3}) {
		t.Errorf("values = %v, %v; want [1 2 3]", vals, err)
	}
}

// gatedJournal notes Add's arguments in Seen, the state a migration
// carries; Block parks the mailbox until the test closes gate, after
// telling entered.
type gatedJournal struct {
	Seen          []int
	entered, gate chan struct{}
}

func (j *gatedJournal) Block() {
	j.entered <- struct{}{}
	<-j.gate
}

func (j *gatedJournal) Add(v int) { j.Seen = append(j.Seen, v) }

func (j *gatedJournal) Values() []int { return j.Seen }

// TestMigrationForwardsHeldCallsInOrder: calls a local proxy issues while a
// migration pauses its object's mailbox return at once, and when the
// migration commits they follow the object to its new node and run there in
// issue order, Wait covering the posts.
func TestMigrationForwardsHeldCallsInOrder(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) { cfg.Placement = &forceNode{node: 0} })
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	for _, rt := range rts {
		rt.RegisterClass("journal", func() any { return &gatedJournal{entered: entered, gate: gate} })
	}
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	_, act := p.state()
	if act == nil {
		t.Fatal("want a local active object")
	}
	p.Post("Block")
	<-entered
	migrated := make(chan error, 1)
	go func() { migrated <- rts[0].Migrate(p.URI(), 1) }()
	for paused := false; !paused; time.Sleep(time.Millisecond) {
		act.mu.Lock()
		paused = act.paused
		act.mu.Unlock()
	}
	p.Post("Add", 1)
	f := p.InvokeAsync("Add", 2)
	p.Post("Add", 3)
	close(gate)
	if err := <-migrated; err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(); err != nil {
		t.Fatal(err)
	}
	p.Wait()
	if err := p.AsyncErr(); err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Error("the proxy did not follow its object")
	}
	got, err := p.Invoke("Values")
	if err != nil {
		t.Fatal(err)
	}
	if vals, err := asIntSlice(got); err != nil || !slices.Equal(vals, []int{1, 2, 3}) {
		t.Errorf("values at the new node = %v, %v; want [1 2 3]", vals, err)
	}
}

// TestServedCallsParkNoGoroutine: requests pipelined at a remote object
// whose mailbox is held wait in the mailbox, not on a goroutine each. The
// server's read loop hands every request it reads to the mailbox, and the
// object's goroutine answers each when its turn comes.
func TestServedCallsParkNoGoroutine(t *testing.T) {
	l := &orderLog{entered: make(chan struct{}, 1), release: make(chan struct{})}
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	for _, rt := range rts {
		rt.RegisterClass("orderlog", func() any { return l })
	}
	t.Cleanup(l.open)
	p, err := rts[0].NewParallelObject("orderlog")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Fatal("want a remote object")
	}
	held := p.InvokeAsync("Hold", 1)
	select {
	case <-l.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Hold never started running")
	}
	base := runtime.NumGoroutine()
	// An InvokeAsync on an idle lane goes straight to its connection, so
	// these pipeline: the lane's window of them reaches the server while
	// Hold runs, and the rest wait in the lane's admission queue.
	const n = 2000
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = p.InvokeAsync("Echo", 2+i)
	}
	waitQueued(t, rts[1], remoting.DefaultMaxInFlight-1)
	if d := runtime.NumGoroutine() - base; d > 16 {
		t.Errorf("%d calls pipelined at a held object add %d goroutines, want at most 16", n, d)
	} else {
		t.Logf("%d calls pipelined at a held object add %d goroutines", n, d)
	}
	l.open()
	if _, err := held.Get(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if got, err := f.Get(); err != nil || got != 2+i {
			t.Fatalf("call %d = %v, %v, want %d", i, got, err, 2+i)
		}
	}
	for i, v := range l.order() {
		if v != 1+i {
			t.Fatalf("execution %d was call %d: issue order violated", i, v)
		}
	}
}
