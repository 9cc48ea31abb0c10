package netsim

import (
	"testing"
	"time"

	"repro/internal/transport"
)

func TestTxTime(t *testing.T) {
	p := Params{Bandwidth: 1e6, PerMessage: 10 * time.Microsecond} // 1 MB/s
	got := p.TxTime(1000)
	want := 10*time.Microsecond + time.Millisecond
	if got != want {
		t.Errorf("TxTime(1000) = %v, want %v", got, want)
	}
}

func TestTxTimeInfiniteBandwidth(t *testing.T) {
	p := Params{PerMessage: 3 * time.Microsecond}
	if got := p.TxTime(1 << 20); got != 3*time.Microsecond {
		t.Errorf("TxTime = %v, want PerMessage only", got)
	}
}

func TestDeliveryTimeMonotonicInSize(t *testing.T) {
	p := Ethernet100()
	prev := time.Duration(0)
	for _, n := range []int{1, 64, 1024, 65536, 1 << 20} {
		d := p.DeliveryTime(n)
		if d < prev {
			t.Errorf("DeliveryTime(%d) = %v decreased", n, d)
		}
		prev = d
	}
}

func TestEthernet100LargeTransferRate(t *testing.T) {
	p := Ethernet100()
	// A 1 MB message should move at roughly link rate: 1 MiB / 12.5 MB/s
	// ≈ 84 ms.
	d := p.DeliveryTime(1 << 20)
	if d < 70*time.Millisecond || d > 100*time.Millisecond {
		t.Errorf("1 MiB delivery = %v, want ≈84 ms", d)
	}
}

func TestZeroParamsPassThrough(t *testing.T) {
	a, b := transport.NewPipe("a", "b")
	sa := shape(a, Params{}, nil, nil, nil)
	sb := shape(b, Params{}, nil, nil, nil)
	start := time.Now()
	if err := sa.Send([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	msg, err := sb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "hi" {
		t.Errorf("got %q", msg)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("pass-through took %v", elapsed)
	}
}

func TestShapingDelaysDelivery(t *testing.T) {
	p := Params{Latency: 5 * time.Millisecond}
	a, b := transport.NewPipe("a", "b")
	clk := realClock{}
	sa := shape(a, p, clk, nil, nil)
	sb := shape(b, p, clk, nil, nil)
	start := time.Now()
	if err := sa.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("latency not enforced: %v", elapsed)
	}
}

func TestBandwidthDelaysSender(t *testing.T) {
	p := Params{Bandwidth: 1e6} // 1 MB/s → 10 KB takes 10 ms
	a, b := transport.NewPipe("a", "b")
	sa := shape(a, p, nil, nil, nil)
	sb := shape(b, p, nil, nil, nil)
	go func() {
		for {
			if _, err := sb.Recv(); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if err := sa.Send(make([]byte, 10_000)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Errorf("sender not occupied by transmission: %v", elapsed)
	}
	sa.Close()
}

func TestLinkSerialisesTransmissions(t *testing.T) {
	p := Params{Bandwidth: 1e6}
	link := newTxLink(p, realClock{})
	t1, _ := link.acquire(5000) // 5 ms
	t2, _ := link.acquire(5000) // queued behind the first
	if gap := t2.Sub(t1); gap < 4*time.Millisecond {
		t.Errorf("second transmission not queued: gap %v", gap)
	}
}

func TestShapedNetworkEndToEnd(t *testing.T) {
	inner := transport.NewMemNetwork()
	sn := NewShapedNetwork(inner, Params{Latency: 2 * time.Millisecond})
	l, err := sn.Listen("mem://svc")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		msg, err := c.Recv()
		if err != nil {
			return
		}
		c.Send(msg)
	}()
	c, err := sn.Dial("mem://svc")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "ping" {
		t.Errorf("got %q", msg)
	}
	if rtt := time.Since(start); rtt < 3*time.Millisecond {
		t.Errorf("round trip %v did not pay 2×2 ms latency", rtt)
	}
	// Two messages of 4 payload bytes each, the delivery header not counted.
	if got := sn.Metrics.Counter("msgs_sent").Load(); got != 2 {
		t.Errorf("msgs_sent = %d, want 2", got)
	}
	if got := sn.Metrics.Counter("bytes_sent").Load(); got != 8 {
		t.Errorf("bytes_sent = %d, want 8", got)
	}
}

func TestSharedNICSerialises(t *testing.T) {
	inner := transport.NewMemNetwork()
	sn := NewShapedNetwork(inner, Params{Bandwidth: 1e6})
	sn.SharedNIC = true
	l, err := sn.Listen("mem://nic")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()
	c1, err := sn.Dial("mem://nic")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sn.Dial("mem://nic")
	if err != nil {
		t.Fatal(err)
	}
	// Two 5 KB messages on separate conns share the 1 MB/s NIC: the pair
	// must take ≈10 ms, not ≈5 ms.
	start := time.Now()
	done := make(chan struct{}, 2)
	go func() { c1.Send(make([]byte, 5000)); done <- struct{}{} }()
	go func() { c2.Send(make([]byte, 5000)); done <- struct{}{} }()
	<-done
	<-done
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Errorf("shared NIC not serialising: %v", elapsed)
	}
}

func TestLossDelaysButDelivers(t *testing.T) {
	// Loss=1 turns every frame into a "retransmitted" one: delivery is
	// delayed by LossDelay but the message must still arrive — the
	// transports are reliable streams, so loss shows up as tail latency,
	// never as a missing reply.
	p := Params{Loss: 1, LossDelay: 30 * time.Millisecond}
	a, b := transport.NewPipe("a", "b")
	sa := shape(a, p, nil, nil, nil)
	sb := shape(b, p, nil, nil, nil)
	start := time.Now()
	if err := sa.Send([]byte("retransmit me")); err != nil {
		t.Fatal(err)
	}
	msg, err := sb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "retransmit me" {
		t.Errorf("got %q", msg)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("lost frame delivered in %v, want >= ~30ms retransmit delay", elapsed)
	}
}

func TestLossZeroIsNoOp(t *testing.T) {
	p := Params{Loss: 0, LossDelay: time.Second}
	if !p.Zero() {
		t.Error("Loss=0 params with only LossDelay set should be Zero")
	}
	a, b := transport.NewPipe("a", "b")
	sa := shape(a, p, nil, nil, nil)
	sb := shape(b, p, nil, nil, nil)
	start := time.Now()
	if err := sa.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("Loss=0 delayed delivery by %v", elapsed)
	}
}

func TestLossDelayDefault(t *testing.T) {
	if d := (Params{Loss: 0.5}).lossDelay(); d != defaultLossDelay {
		t.Errorf("default loss delay = %v, want %v", d, defaultLossDelay)
	}
	if d := (Params{Loss: 0.5, LossDelay: time.Millisecond}).lossDelay(); d != time.Millisecond {
		t.Errorf("explicit loss delay = %v, want 1ms", d)
	}
}
