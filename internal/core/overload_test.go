package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
)

// gateObj blocks its mailbox until released, letting tests fill a bounded
// queue deterministically.
type gateObj struct {
	entered chan struct{} // signalled once per Block call that starts running
	release chan struct{} // closing it releases every blocked call
}

func newGateObj() *gateObj {
	return &gateObj{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

// Block parks the actor goroutine until the gate is released.
func (g *gateObj) Block() int {
	g.entered <- struct{}{}
	<-g.release
	return 1
}

// Quick returns immediately — used to probe admission while Block holds
// the actor.
func (g *gateObj) Quick() int { return 2 }

// startGated boots nodes with a bounded mailbox and one registered gate
// class backed by the returned gateObj.
func startGated(t *testing.T, nodes, bound int, mutate func(i int, cfg *Config)) ([]*Runtime, *gateObj) {
	t.Helper()
	g := newGateObj()
	rts := startNodes(t, nodes, func(i int, cfg *Config) {
		cfg.MailboxBound = bound
		if mutate != nil {
			mutate(i, cfg)
		}
	})
	for _, rt := range rts {
		rt.RegisterClass("gate", func() any { return g })
	}
	t.Cleanup(func() {
		// Unpark any call still holding an actor so Close is not stuck
		// behind it.
		select {
		case <-g.release:
		default:
			close(g.release)
		}
	})
	return rts, g
}

// occupy starts one Block call on p and waits until it is running, so the
// actor goroutine is held and every subsequent call queues.
func occupy(t *testing.T, g *gateObj, p *Proxy) {
	t.Helper()
	go p.InvokeCtx(context.Background(), "Block")
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Block call never started running")
	}
}

// fillQueue enqueues n Block calls and waits until the runtime sees them
// queued (the calls themselves stay parked behind the occupied actor).
func fillQueue(t *testing.T, rt *Runtime, p *Proxy, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		go p.InvokeCtx(context.Background(), "Block")
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.queuedTasks.Load() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d of %d queued", rt.queuedTasks.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMailboxShedNewestUnderBurst(t *testing.T) {
	const bound = 4
	rts, g := startGated(t, 1, bound, nil)
	p, err := rts[0].NewParallelObject("gate")
	if err != nil {
		t.Fatal(err)
	}
	occupy(t, g, p)
	fillQueue(t, rts[0], p, bound)

	// A burst of arrivals against the full mailbox: every one must
	// fast-fail with ErrOverloaded — concurrently, under the race
	// detector — without disturbing the admitted calls.
	const burst = 16
	errsCh := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.InvokeCtx(context.Background(), "Quick")
			errsCh <- err
		}()
	}
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		if !errors.Is(err, errs.ErrOverloaded) {
			t.Fatalf("burst call: err = %v, want ErrOverloaded", err)
		}
	}

	st := rts[0].Stats()
	if st.MailboxSheds < burst {
		t.Errorf("MailboxSheds = %d, want >= %d", st.MailboxSheds, burst)
	}
	if st.OverloadGrade != OverloadShedding {
		t.Errorf("OverloadGrade = %v, want OverloadShedding after a shed", st.OverloadGrade)
	}

	// Releasing the gate drains the admitted calls; once the queue has
	// room again, admission resumes (retry until the drain catches up).
	close(g.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := p.InvokeCtx(context.Background(), "Quick")
		if err == nil {
			if got != 2 {
				t.Fatalf("post-drain call = %v, want 2", got)
			}
			break
		}
		if !errors.Is(err, errs.ErrOverloaded) || time.Now().After(deadline) {
			t.Fatalf("post-drain call: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDeadlineDropAtDequeue(t *testing.T) {
	rts, g := startGated(t, 1, 8, nil)
	p, err := rts[0].NewParallelObject("gate")
	if err != nil {
		t.Fatal(err)
	}
	occupy(t, g, p)

	// Queue a call whose deadline expires while it waits behind Block:
	// the actor must skip it at dequeue (never invoking Quick) and count
	// a deadline drop.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.InvokeCtx(ctx, "Quick")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("queued call: err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued call never expired")
	}

	close(g.release)
	deadline := time.Now().Add(5 * time.Second)
	for rts[0].Stats().DeadlineDrops < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("DeadlineDrops = %d, want >= 1 after dequeue of expired call",
				rts[0].Stats().DeadlineDrops)
		}
		time.Sleep(time.Millisecond)
	}
	// The dequeue drop and the server's refusal count into one cell, the
	// channel's deadline_drops, which Stats reads as it is.
	cell := rts[0].cfg.Channel.Metrics().Counter("deadline_drops").Load()
	if got := rts[0].Stats().DeadlineDrops; got != 1 || cell != 1 {
		t.Errorf("Stats().DeadlineDrops = %d, deadline_drops = %d, want both 1", got, cell)
	}
}

func TestOverloadGradeTransitions(t *testing.T) {
	rts, g := startGated(t, 1, 2, nil)
	rt := rts[0]
	if got := rt.OverloadGrade(); got != OverloadNone {
		t.Fatalf("idle grade = %v, want OverloadNone", got)
	}
	p, err := rt.NewParallelObject("gate")
	if err != nil {
		t.Fatal(err)
	}
	occupy(t, g, p)
	// One queued call against bound 2 on one hosted actor crosses the
	// half-capacity occupancy threshold.
	fillQueue(t, rt, p, 1)
	if got := rt.OverloadGrade(); got != OverloadBusy {
		t.Errorf("grade with half-full mailboxes = %v, want OverloadBusy", got)
	}
	// A shed escalates to Shedding regardless of current occupancy.
	rt.noteShed()
	if got := rt.OverloadGrade(); got != OverloadShedding {
		t.Errorf("grade after shed = %v, want OverloadShedding", got)
	}
	// Draining clears Busy; Shedding decays only with the window, which
	// the test does not wait out (covered by the grade definition).
	close(g.release)
}

func TestOverloadGradeDisabledWithoutBound(t *testing.T) {
	rts := startNodes(t, 1, nil)
	rts[0].noteShed()
	if got := rts[0].OverloadGrade(); got != OverloadNone {
		t.Errorf("grade with MailboxBound=0 = %v, want OverloadNone always", got)
	}
}

func TestPlacementRoutesAroundHotNodes(t *testing.T) {
	loads := []NodeLoad{
		{Node: 0, Load: 5, Overload: OverloadNone},
		{Node: 1, Load: 0, Overload: OverloadShedding},
		{Node: 2, Load: 3, Overload: OverloadBusy},
	}
	// LeastLoaded ranks by overload grade before raw load: the idle but
	// shedding node 1 must lose to both cool nodes, and Busy node 2 must
	// lose to None node 0 despite its lower load.
	ll := &LeastLoaded{}
	if got := ll.Pick(0, loads); got != 0 {
		t.Errorf("LeastLoaded.Pick = %d, want 0 (cool beats hot regardless of load)", got)
	}
	// RoundRobin skips shedding nodes entirely while alternatives exist.
	rr := &RoundRobin{}
	for i := 0; i < 6; i++ {
		if got := rr.Pick(0, loads); got == 1 {
			t.Fatalf("RoundRobin picked shedding node 1 on iteration %d", i)
		}
	}
	// With every node shedding, placement falls back to the full vector
	// rather than refusing to place.
	allHot := []NodeLoad{
		{Node: 0, Load: 1, Overload: OverloadShedding},
		{Node: 1, Load: 2, Overload: OverloadShedding},
	}
	if got := ll.Pick(0, allHot); got != 0 && got != 1 {
		t.Errorf("LeastLoaded.Pick(all hot) = %d, want a member", got)
	}
	picked := map[int]bool{}
	for i := 0; i < 8; i++ {
		picked[rr.Pick(0, allHot)] = true
	}
	if !picked[0] || !picked[1] {
		t.Errorf("RoundRobin(all hot) picks = %v, want both members used", picked)
	}
}

func TestLiveMembersExcludeSheddingPeers(t *testing.T) {
	rts := startNodes(t, 3, nil)
	rt := rts[0]
	rt.noteOverload(1, OverloadShedding)
	members := rt.liveMembers()
	for _, m := range members {
		if m == 1 {
			t.Fatalf("liveMembers = %v includes shedding peer 1", members)
		}
	}
	if len(members) != 2 {
		t.Fatalf("liveMembers = %v, want self and peer 2", members)
	}
	// Recovery re-admits the peer.
	rt.noteOverload(1, OverloadNone)
	if members = rt.liveMembers(); len(members) != 3 {
		t.Errorf("liveMembers after recovery = %v, want all 3", members)
	}
	// If every peer is hot, the ring must not collapse onto self.
	rt.noteOverload(1, OverloadShedding)
	rt.noteOverload(2, OverloadShedding)
	if members = rt.liveMembers(); len(members) != 3 {
		t.Errorf("liveMembers with all peers hot = %v, want shedding peers re-admitted", members)
	}
}

// TestOverloadedSurvivesWire drives ErrOverloaded across a real remote
// call, on the object's first answered call and on a later one. errors.Is
// must hold client-side either way. The caller runs one lane, so every
// call of the object shares one bind table: the calls parked in the
// mailbox declared the pair and have no reply yet, so the first shed call
// declares it too, its reply carries the ack, and the next travels bound.
func TestOverloadedSurvivesWire(t *testing.T) {
	const bound = 1
	rts, g := startGated(t, 2, bound, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
		cfg.Channel.MuxLanes = 1
	})
	p, err := rts[0].NewParallelObject("gate")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Fatal("object placed locally; wire path not exercised")
	}
	occupy(t, g, p)
	fillQueue(t, rts[1], p, bound)
	for i, name := range []string{"declaring", "compact"} {
		t.Run(name, func(t *testing.T) {
			_, err := p.InvokeCtx(context.Background(), "Quick")
			if !errors.Is(err, errs.ErrOverloaded) {
				t.Fatalf("remote call against full mailbox: err = %v, want ErrOverloaded", err)
			}
			if sheds := rts[1].Stats().MailboxSheds; sheds < int64(i+1) {
				t.Errorf("hosting node MailboxSheds = %d, want >= %d", sheds, i+1)
			}
			if sheds := rts[0].Stats().MailboxSheds; sheds != 0 {
				t.Errorf("calling node MailboxSheds = %d, want 0 (shed happened remotely)", sheds)
			}
		})
	}
}

// TestProbeCarriesOverloadGrade has node 1 shed, then verifies node 0's
// load probe brings back the Shedding grade (the signal placement and
// virtual activation route on).
func TestProbeCarriesOverloadGrade(t *testing.T) {
	rts, g := startGated(t, 2, 1, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
		cfg.LoadCacheTTL = time.Nanosecond // every probeLoads hits the wire
	})
	p, err := rts[0].NewParallelObject("gate")
	if err != nil {
		t.Fatal(err)
	}
	occupy(t, g, p)
	fillQueue(t, rts[1], p, 1)
	if _, err := p.InvokeCtx(context.Background(), "Quick"); !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("filler call: err = %v, want ErrOverloaded", err)
	}
	// A fresh placement probe from node 0 must observe node 1 shedding.
	rts[0].probeLoads(false)
	if got := rts[0].peerOverload(1); got != OverloadShedding {
		t.Errorf("probed grade of peer 1 = %v, want OverloadShedding", got)
	}
	close(g.release)
}
