package fault

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// pair builds a dialed fault-wrapped connection a→b over a fresh memory
// network, with an accept-side echo loop that sends every received frame
// back. Returns the dialer-side conn (the one the injector enforces on)
// and a pump channel carrying everything it receives — one persistent
// reader, so a timed-out wait never leaves a goroutine behind to steal the
// next frame.
func pair(t *testing.T, inj *Injector, a, b string) (transport.Conn, <-chan []byte) {
	t.Helper()
	mem := transport.NewMemNetwork()
	lis, err := inj.Node(mem, b).Listen(b)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(msg); err != nil {
				return
			}
		}
	}()
	c, err := inj.Node(mem, a).Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, pump(c)
}

// pump drains c into a channel from one persistent reader goroutine.
func pump(c transport.Conn) <-chan []byte {
	got := make(chan []byte, 16)
	go func() {
		defer close(got)
		for {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			got <- msg
		}
	}()
	return got
}

// recvOne waits for one pumped frame, reporting whether anything arrived
// in time.
func recvOne(got <-chan []byte, d time.Duration) ([]byte, bool) {
	select {
	case msg, ok := <-got:
		return msg, ok
	case <-time.After(d):
		return nil, false
	}
}

// TestPartitionDropsAndHeals: a symmetric partition blackholes frames
// without erroring — the dropped-packet failure mode — and healing restores
// the path on the SAME connection (partitions do not kill connections).
func TestPartitionDropsAndHeals(t *testing.T) {
	inj := NewInjector(1)
	c, got := pair(t, inj, "mem://a", "mem://b")

	if err := c.Send([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if msg, ok := recvOne(got, time.Second); !ok || string(msg) != "hi" {
		t.Fatalf("echo before partition = (%q, %v), want (hi, true)", msg, ok)
	}

	inj.Partition("mem://a", "mem://b")
	if err := c.Send([]byte("lost")); err != nil {
		t.Fatalf("partitioned send errored (%v), want silent drop", err)
	}
	if msg, ok := recvOne(got, 50*time.Millisecond); ok {
		t.Fatalf("received %q through a partition", msg)
	}

	inj.Heal("mem://a", "mem://b")
	if err := c.Send([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if msg, ok := recvOne(got, time.Second); !ok || string(msg) != "back" {
		t.Fatalf("echo after heal = (%q, %v), want (back, true)", msg, ok)
	}
}

// TestPartitionOneWay: an asymmetric partition drops one direction while
// the other still flows — the disagreeing-failure-detectors case. The
// b→a-only cut lets the request through and eats the reply.
func TestPartitionOneWay(t *testing.T) {
	inj := NewInjector(1)
	c, got := pair(t, inj, "mem://a", "mem://b")

	inj.PartitionOneWay("mem://b", "mem://a")
	if err := c.Send([]byte("req")); err != nil {
		t.Fatal(err)
	}
	if msg, ok := recvOne(got, 50*time.Millisecond); ok {
		t.Fatalf("received reply %q through the b→a cut", msg)
	}

	// The forward direction was never cut: healing the reverse path lets a
	// fresh request round-trip, proving requests were arriving all along.
	inj.Heal("mem://b", "mem://a")
	if err := c.Send([]byte("again")); err != nil {
		t.Fatal(err)
	}
	// Both the blackholed echo ("req") and the fresh one are pending: the
	// reply to "req" was consumed and dropped by the injector, so the next
	// frame through is "again".
	if msg, ok := recvOne(got, time.Second); !ok || string(msg) != "again" {
		t.Fatalf("echo after healing reverse path = (%q, %v), want (again, true)", msg, ok)
	}
}

// TestCrashClosesAndRefuses: a crash closes live connections (the
// connection-reset class the retry loop acts on) and refuses new
// dials both ways until restart.
func TestCrashClosesAndRefuses(t *testing.T) {
	inj := NewInjector(1)
	mem := transport.NewMemNetwork()
	lis, err := inj.Node(mem, "mem://b").Listen("mem://b")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int32
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				for {
					msg, err := c.Recv()
					if err != nil {
						return
					}
					c.Send(msg)
				}
			}()
		}
	}()
	aView := inj.Node(mem, "mem://a")
	c, err := aView.Dial("mem://b")
	if err != nil {
		t.Fatal(err)
	}
	got := pump(c)
	c.Send([]byte("x"))
	if _, ok := recvOne(got, time.Second); !ok {
		t.Fatal("echo failed before crash")
	}

	inj.Crash("mem://b")
	if _, err := aView.Dial("mem://b"); err == nil {
		t.Error("dial to a crashed node succeeded, want refusal")
	}
	if _, err := inj.Node(mem, "mem://b").Dial("mem://a"); err == nil {
		t.Error("dial FROM a crashed node succeeded, want refusal")
	}
	// The existing connection was closed: the reader observes a connection
	// error (the pump channel closes) — the fast-failure class the retry
	// loop acts on, unlike a partition's silent hang.
	select {
	case _, open := <-got:
		if open {
			t.Fatal("received a frame after the crash, want a closed connection")
		}
	case <-time.After(time.Second):
		t.Fatal("reader still blocked after the crash closed the connection")
	}

	inj.Restart("mem://b")
	c2, err := aView.Dial("mem://b")
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	defer c2.Close()
	got2 := pump(c2)
	c2.Send([]byte("z"))
	if msg, ok := recvOne(got2, time.Second); !ok || string(msg) != "z" {
		t.Fatalf("echo after restart = (%q, %v), want (z, true)", msg, ok)
	}
}

// TestStallBlocksSender: a stalled path blocks Send without erroring — the
// neither-up-nor-down slow network — and Unstall releases the blocked
// sender, whose frame then arrives.
func TestStallBlocksSender(t *testing.T) {
	inj := NewInjector(1)
	c, got := pair(t, inj, "mem://a", "mem://b")

	inj.Stall("mem://a", "mem://b")
	sent := make(chan error, 1)
	go func() { sent <- c.Send([]byte("slow")) }()
	select {
	case err := <-sent:
		t.Fatalf("send completed (%v) on a stalled path", err)
	case <-time.After(50 * time.Millisecond):
	}
	inj.Unstall("mem://a", "mem://b")
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("unstalled send errored: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("send still blocked after Unstall")
	}
	if msg, ok := recvOne(got, time.Second); !ok || string(msg) != "slow" {
		t.Fatalf("stalled frame = (%q, %v), want (slow, true)", msg, ok)
	}
}

// TestHealAllReleasesEverything: HealAll clears partitions, crashes and
// stalls at once — the end-of-schedule drain state must never leave a
// blocked sender behind.
func TestHealAllReleasesEverything(t *testing.T) {
	inj := NewInjector(1)
	c, got := pair(t, inj, "mem://a", "mem://b")
	inj.Partition("mem://a", "mem://b")
	inj.Stall("mem://a", "mem://b")
	sent := make(chan error, 1)
	go func() { sent <- c.Send([]byte("m")) }()
	time.Sleep(20 * time.Millisecond)
	inj.HealAll()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("send after HealAll errored: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("sender still stalled after HealAll")
	}
	if msg, ok := recvOne(got, time.Second); !ok || string(msg) != "m" {
		t.Fatalf("frame after HealAll = (%q, %v), want (m, true)", msg, ok)
	}
}

// TestCorruptionDeterministic: corruption mutates frames (p=1 flips a bit
// in every frame), the original buffer is never written, and the same seed
// reproduces the same mutations — the replay-from-seed property the chaos
// harness depends on.
func TestCorruptionDeterministic(t *testing.T) {
	run := func(seed int64) [][]byte {
		inj := NewInjector(seed)
		inj.Corrupt("mem://a", "mem://b", 1)
		var out [][]byte
		for i := 0; i < 8; i++ {
			orig := []byte{0xAA, 0xBB, 0xCC, 0xDD}
			mutated := inj.mutate("mem://a", "mem://b", orig)
			if !bytes.Equal(orig, []byte{0xAA, 0xBB, 0xCC, 0xDD}) {
				t.Fatal("mutate wrote into the sender's buffer")
			}
			if bytes.Equal(mutated, orig) {
				t.Fatal("p=1 corruption left a frame untouched")
			}
			out = append(out, mutated)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed diverged at frame %d: %x vs %x", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if !bytes.Equal(a[i], c[i]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical mutation streams")
	}
}

// TestTruncateShortens: p=1 truncation cuts frames short
// deterministically per seed.
func TestTruncateShortens(t *testing.T) {
	inj := NewInjector(7)
	inj.Truncate("mem://a", "mem://b", 1)
	shortened := false
	for i := 0; i < 16; i++ {
		msg := inj.mutate("mem://a", "mem://b", []byte("0123456789"))
		if len(msg) > 10 {
			t.Fatal("truncation grew a frame")
		}
		if len(msg) < 10 {
			shortened = true
		}
	}
	if !shortened {
		t.Error("p=1 truncation never shortened a frame")
	}
}

// TestRunScheduleOrderAndStop: events fire in At order regardless of input
// order, and stop cancels the remainder.
func TestRunScheduleOrderAndStop(t *testing.T) {
	inj := NewInjector(1)
	var fired []string
	mark := func(name string) func(*Injector) {
		return func(*Injector) { fired = append(fired, name) }
	}
	inj.RunSchedule(nil, []Event{
		{At: 20 * time.Millisecond, Name: "second", Do: mark("second")},
		{At: 0, Name: "first", Do: mark("first")},
	})
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "second" {
		t.Fatalf("events fired as %v, want [first second]", fired)
	}

	stop := make(chan struct{})
	close(stop)
	fired = nil
	inj.RunSchedule(stop, []Event{
		{At: time.Hour, Name: "never", Do: mark("never")},
	})
	if len(fired) != 0 {
		t.Fatalf("stopped schedule still fired %v", fired)
	}
}
