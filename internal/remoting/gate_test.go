package remoting

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/transport"
)

// The peer's breaker is the dial backoff (channel.go): a refused dial opens
// it, and while it is open a call that needs a connection fails fast with
// that dial's error.

const gatedPeer = "mem://peer"

// gatedChannel returns a channel over a dial-counting network and an
// ObjRef through it to the object "d" at gatedPeer, where nothing listens
// yet.
func gatedChannel(t *testing.T) (*Channel, *countingNetwork, *ObjRef) {
	t.Helper()
	net := &countingNetwork{Network: transport.NewMemNetwork()}
	ch := NewMultiplexedChannel(net)
	t.Cleanup(ch.Close)
	return ch, net, NewObjRef(ch, gatedPeer, "d")
}

// refusedPeer is gatedChannel after one call through the ObjRef, which the
// peer refused, and that call's error.
func refusedPeer(t *testing.T) (*Channel, *countingNetwork, *ObjRef, error) {
	t.Helper()
	ch, net, ref := gatedChannel(t)
	_, err := ref.Invoke("Noop")
	if !errors.Is(err, errs.ErrNodeDown) {
		t.Fatalf("call to a peer with no listener = %v, want ErrNodeDown", err)
	}
	return ch, net, ref, err
}

// listenPeer starts gatedPeer on net, serving a divideServer as "d".
func listenPeer(t *testing.T, net transport.Network) {
	t.Helper()
	srv, err := NewMultiplexedChannel(net).ListenAndServe(gatedPeer)
	if err != nil {
		t.Fatal(err)
	}
	srv.Marshal("d", &divideServer{})
	t.Cleanup(srv.Close)
}

// gateState reads ch's breaker for gatedPeer: its consecutive refusals and
// the end of its window; ok is false when the channel has no entry for it.
func gateState(ch *Channel) (fails int, until time.Time, ok bool) {
	ch.dialMu.Lock()
	db := ch.dialPeers[gatedPeer]
	ch.dialMu.Unlock()
	if db == nil {
		return 0, time.Time{}, false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.fails, db.until, true
}

// bypassed makes a WithoutBreaker call through ref, which dials even while
// the breaker is open.
func bypassed(ref *ObjRef) error {
	_, err := ref.InvokeCtx(WithoutBreaker(context.Background()), "Noop")
	return err
}

// TestDialGateFailsFast: while the window a refusal opened lasts, a call
// that needs a connection does not dial, even to a peer that now listens,
// and fails at once with the last refusal's error.
func TestDialGateFailsFast(t *testing.T) {
	ch, net, ref, last := refusedPeer(t)
	// Six more refusals (bypassed, so each is a real dial) stretch the
	// window to at least 250 ms, so the call below falls inside it however
	// slow the machine.
	for i := 0; i < 6; i++ {
		last = bypassed(ref)
	}
	listenPeer(t, net)
	dials := net.dials.Load()
	start := time.Now()
	_, err := ref.Invoke("Noop")
	if !errors.Is(err, last) {
		t.Fatalf("call inside the window = %v, want the last refusal %v", err, last)
	}
	if d := net.dials.Load(); d != dials {
		t.Errorf("the gated call dialled (%d dials, want %d)", d, dials)
	}
	if fails, until, _ := gateState(ch); fails != 7 || until.Before(start) {
		t.Errorf("after the gated call: refusals %d, window until %v; want 7 and still open", fails, until)
	}
}

// TestDialGateDoublesToItsCap: each consecutive refusal doubles the window,
// from dialBackoffBase up to dialBackoffCap, each window 50-100 % of its
// step.
func TestDialGateDoublesToItsCap(t *testing.T) {
	ch, _, ref := gatedChannel(t)
	step := dialBackoffBase
	for k := 1; k <= 9; k++ {
		start := time.Now()
		var err error
		if k == 1 {
			_, err = ref.Invoke("Noop") // the gate is closed: a real dial
		} else {
			err = bypassed(ref) // the gate is open: dial past it
		}
		end := time.Now()
		if !errors.Is(err, errs.ErrNodeDown) {
			t.Fatalf("refusal %d = %v, want ErrNodeDown", k, err)
		}
		fails, until, _ := gateState(ch)
		if fails != k {
			t.Fatalf("refusals = %d, want %d", fails, k)
		}
		// The refusal came between start and end, and the window it
		// opened is until minus that moment.
		if until.Sub(start) < step/2 || until.Sub(end) > step {
			t.Errorf("refusal %d: window ends %v after the call began and %v after it ended, want within [%v, %v] of the refusal",
				k, until.Sub(start), until.Sub(end), step/2, step)
		}
		step = min(2*step, dialBackoffCap)
	}
}

// TestDialGateTrialClosesIt: the first dial after the window is real, and
// its success closes the breaker.
func TestDialGateTrialClosesIt(t *testing.T) {
	ch, net, ref, _ := refusedPeer(t)
	listenPeer(t, net)
	_, until, _ := gateState(ch)
	time.Sleep(time.Until(until) + time.Millisecond)
	if _, err := ref.Invoke("Noop"); err != nil {
		t.Fatalf("trial after the window = %v, want a dial to the listening peer", err)
	}
	if d := net.dials.Load(); d != 2 {
		t.Errorf("dials = %d, want 2: the refusal and the trial", d)
	}
	if fails, until, _ := gateState(ch); fails != 0 || !until.IsZero() {
		t.Errorf("after a successful trial: refusals %d, window until %v; want the breaker closed", fails, until)
	}
}

// TestDialGateForgottenOnClose: Channel.Close forgets every peer's breaker,
// so the next call dials at once.
func TestDialGateForgottenOnClose(t *testing.T) {
	ch, net, ref, _ := refusedPeer(t)
	for i := 0; i < 6; i++ { // a window of at least 250 ms
		bypassed(ref)
	}
	ch.Close()
	if _, _, ok := gateState(ch); ok {
		t.Fatal("Channel.Close kept the peer's breaker")
	}
	listenPeer(t, net)
	if _, err := ref.Invoke("Noop"); err != nil {
		t.Fatalf("call after Close = %v, want a fresh dial", err)
	}
}

// TestWithoutBreakerDialsHealedPeer: a WithoutBreaker call made just after
// the peer's refusal, once the peer listens, dials it and is answered, and
// its success closes the breaker for every other call. This is what the
// promotion census needs: the freshest holder of a replica must not look
// unreachable because a dial to it was refused a moment before.
func TestWithoutBreakerDialsHealedPeer(t *testing.T) {
	ch, net, ref, _ := refusedPeer(t)
	listenPeer(t, net)
	if err := bypassed(ref); err != nil {
		t.Fatalf("WithoutBreaker call to the healed peer = %v, want an answer", err)
	}
	if fails, _, _ := gateState(ch); fails != 0 {
		t.Errorf("refusals = %d after the bypassed dial succeeded, want 0", fails)
	}
}
