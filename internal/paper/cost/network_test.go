package cost_test

import (
	"testing"
	"time"

	"repro/internal/paper/cost"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// recConn records what reaches the wrapped connection.
type recConn struct {
	transport.Conn
	sends   int
	batches [][][]byte
}

func (c *recConn) Send(msg []byte) error { c.sends++; return nil }

func (c *recConn) SendBatch(msgs [][]byte) error {
	c.batches = append(c.batches, msgs)
	return nil
}

func (c *recConn) Recv() ([]byte, error) { return make([]byte, 8), nil }

type recNetwork struct{ conn *recConn }

func (n recNetwork) Listen(string) (transport.Listener, error) { return nil, transport.ErrClosed }
func (n recNetwork) Dial(string) (transport.Conn, error)       { return n.conn, nil }

// took runs op up to three times and returns its shortest duration: a
// charge is a sleep, so the minimum is what the model asked for and the
// rest is preemption by other test packages.
func took(op func()) time.Duration {
	best := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		op()
		best = min(best, time.Since(start))
	}
	return best
}

// TestNetworkChargesOncePerOperation: connect on Dial, one message cost per
// Send, per batched message and per Recv — and a batch still reaches the
// inner connection as one SendBatch.
func TestNetworkChargesOncePerOperation(t *testing.T) {
	const unit = 10 * time.Millisecond
	inner := &recConn{}
	net := cost.Network(recNetwork{inner}, cost.Model{PerMessage: unit, PerConnect: 2 * unit})
	between := func(what string, d time.Duration, n int) {
		t.Helper()
		if lo, hi := time.Duration(n)*unit, time.Duration(n)*unit+unit*9/10; d < lo || d > hi {
			t.Errorf("%s took %v, want %d charge(s) of %v", what, d, n, unit)
		}
	}
	var c transport.Conn
	between("Dial", took(func() { c, _ = net.Dial("x") }), 2)
	between("Send", took(func() { c.Send(nil) }), 1) //nolint:errcheck // recConn never fails
	batch := [][]byte{{1}, {2}, {3}}
	between("SendBatch", took(func() { transport.SendBatch(c, batch) }), 3) //nolint:errcheck // recConn never fails
	between("Recv", took(func() { c.Recv() }), 1)                           //nolint:errcheck // recConn never fails
	if inner.sends != 3 || len(inner.batches) != 3 || len(inner.batches[0]) != 3 {
		t.Errorf("inner saw %d sends and batches %v, want every Send and every 3-message batch forwarded as such", inner.sends, inner.batches)
	}
}

func TestNetworkZeroModelIsInner(t *testing.T) {
	inner := transport.NewMemNetwork()
	if got := cost.Network(inner, cost.Model{}); got != transport.Network(inner) {
		t.Errorf("zero model wrapped the network: %T", got)
	}
}

// TestNetworkKeepsPooledReceive: over TCP the wrapped Recv still fills a
// buffer drawn from the transport frame pool.
func TestNetworkKeepsPooledReceive(t *testing.T) {
	net := cost.Network(transport.TCPNetwork{}, cost.Model{PerMessage: time.Microsecond})
	l, err := net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, err := net.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	defer server.Close()
	// sync.Pool may drop any single Put (it does so at random under -race),
	// so a miss is retried.
	for try := 0; try < 100; try++ {
		for cap(transport.GetFrame(0)) > 0 { // take out what earlier tests left
		}
		stocked := make([]byte, 512)
		transport.PutFrame(stocked)
		if err := client.Send(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		msg, err := transport.RecvFrame(server)
		if err != nil {
			t.Fatal(err)
		}
		if &msg[0] == &stocked[0] {
			return
		}
	}
	t.Error("the wrapped connection never received into a pooled frame")
}

// TestCostModelChargesLatency: a production channel over the wrapper pays
// the model at both endpoints of both directions.
func TestCostModelChargesLatency(t *testing.T) {
	net := cost.Network(transport.NewMemNetwork(), cost.Model{PerMessage: 5 * time.Millisecond})
	ch := remoting.NewMultiplexedChannel(net)
	defer ch.Close()
	srv, err := ch.ListenAndServe("mem://cost")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Marshal("d", &noop{})
	ref, _ := remoting.GetObject(ch, srv.URLFor("d"))
	start := time.Now()
	if _, err := ref.Invoke("Noop"); err != nil {
		t.Fatal(err)
	}
	// 4 charged messages (client send, server recv, server send, client
	// recv) of 5 ms each.
	if rtt := time.Since(start); rtt < 18*time.Millisecond {
		t.Errorf("cost model under-charged: rtt %v", rtt)
	}
}

type noop struct{}

func (*noop) Noop() {}
