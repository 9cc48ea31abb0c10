package cost

import "repro/internal/transport"

// Network wraps inner so that every connection made through it — dialled
// or accepted — charges m at its endpoints: the connect cost on Dial, the
// message cost once per message sent (batched or not: batching amortizes
// syscalls, not modelled software costs) and once per message received.
// A zero model returns inner itself.
func Network(inner transport.Network, m Model) transport.Network {
	if m.Zero() {
		return inner
	}
	return &network{inner: inner, m: m}
}

type network struct {
	inner transport.Network
	m     Model
}

func (n *network) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &listener{Listener: l, m: n.m}, nil
}

func (n *network) Dial(addr string) (transport.Conn, error) {
	n.m.ChargeConnect()
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, m: n.m}, nil
}

type listener struct {
	transport.Listener
	m Model
}

func (l *listener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, m: l.m}, nil
}

type conn struct {
	transport.Conn
	m Model
}

func (c *conn) Send(msg []byte) error {
	c.m.Charge(len(msg))
	return c.Conn.Send(msg)
}

// SendBatch implements transport.BatchSender, so wrapping does not turn one
// coalesced wire write back into one write per message.
func (c *conn) SendBatch(msgs [][]byte) error {
	for _, msg := range msgs {
		c.m.Charge(len(msg))
	}
	return transport.SendBatch(c.Conn, msgs)
}

// Recv goes through transport.RecvFrame, so the inner connection still
// receives into a recycled frame (a wrapper takes none back, so it comes from
// the pool); the caller owns the frame as usual.
func (c *conn) Recv() ([]byte, error) {
	msg, err := transport.RecvFrame(c.Conn)
	if err != nil {
		return nil, err
	}
	c.m.Charge(len(msg))
	return msg, nil
}
