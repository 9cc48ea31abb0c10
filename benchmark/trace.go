package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

var epoch = time.Now()

// nanotime is the one process clock every stamp reads; both ends of a call
// live in this process, so spans need no clock alignment.
func nanotime() int64 { return int64(time.Since(epoch)) }

// stamps holds the boundary times of the one call in flight during the
// span pass. Send stamps are taken on entry and Recv stamps on return, so
// each span ends where the next begins.
type stamps struct {
	clientSend, serverRecv, bodyIn, bodyOut, serverSend, clientRecv atomic.Int64
}

// netCounts is what the counting network saw, both directions summed.
type netCounts struct {
	frames, writes, bytes, sendBusyNs atomic.Int64
}

// tracedNet wraps a transport.Network: every connection it hands out counts
// frames, wire writes, bytes and time inside Send, and stamps the span
// boundaries. Dialled connections are the client side, accepted ones the
// server side.
type tracedNet struct {
	inner  transport.Network
	counts netCounts
	st     stamps
}

func (n *tracedNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, n: n}, nil
}

func (n *tracedNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, n: n, sendAt: &n.st.clientSend, recvAt: &n.st.clientRecv}, nil
}

type tracedListener struct {
	transport.Listener
	n *tracedNet
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, n: l.n, sendAt: &l.n.st.serverSend, recvAt: &l.n.st.serverRecv}, nil
}

// tracedConn implements transport.Conn and transport.BatchSender.
type tracedConn struct {
	transport.Conn
	n              *tracedNet
	sendAt, recvAt *atomic.Int64
}

func (c *tracedConn) Send(msg []byte) error {
	return c.SendBatch([][]byte{msg})
}

func (c *tracedConn) SendBatch(msgs [][]byte) error {
	start := nanotime()
	c.sendAt.Store(start)
	err := transport.SendBatch(c.Conn, msgs)
	k := &c.n.counts
	k.sendBusyNs.Add(nanotime() - start)
	k.writes.Add(1)
	k.frames.Add(int64(len(msgs)))
	for _, m := range msgs {
		k.bytes.Add(int64(len(m)))
	}
	return err
}

func (c *tracedConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	c.recvAt.Store(nanotime())
	return msg, err
}

// span is one node of a call's span tree; times are nanoseconds since the
// call began.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// callTrace is the span tree of one request.
type callTrace struct {
	Request int    `json:"request"`
	Spans   []span `json:"spans"`
}

// stageNames are the seven stages a remote call passes through, in order;
// stage i runs from boundary i to boundary i+1.
var stageNames = [7]string{"client_out", "net_out", "server_in", "exec", "server_out", "net_back", "client_in"}

// boundaries returns the eight boundary times of the call that ran from t0
// to t7. A local call crosses no connection, so only the method body splits
// it: everything before is client_out, everything after client_in.
func (st *stamps) boundaries(t0, t7 int64, remote bool) [8]int64 {
	in, out := st.bodyIn.Load(), st.bodyOut.Load()
	if !remote {
		return [8]int64{t0, in, in, in, out, out, out, t7}
	}
	return [8]int64{t0, st.clientSend.Load(), st.serverRecv.Load(), in, out, st.serverSend.Load(), st.clientRecv.Load(), t7}
}

// tree nests the stages: call > round_trip > server > exec. A span's self
// time is its length minus its child's, which gives the stage pairs
// (client_out+client_in, net_out+net_back, server_in+server_out, exec).
func tree(req int, b [8]int64) callTrace {
	rel := func(i int) int64 { return b[i] - b[0] }
	return callTrace{Request: req, Spans: []span{
		{Name: "call", Start: rel(0), End: rel(7)},
		{Name: "round_trip", Parent: "call", Start: rel(1), End: rel(6)},
		{Name: "server", Parent: "round_trip", Start: rel(2), End: rel(5)},
		{Name: "exec", Parent: "server", Start: rel(3), End: rel(4)},
	}}
}

// traceFileCalls caps how many span trees a trace file keeps; the medians
// are taken over every traced call.
const traceFileCalls = 1000

func writeTraceFile(dir, workload string, calls []callTrace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if len(calls) > traceFileCalls {
		calls = calls[:traceFileCalls]
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "clock": "ns since call entry", "calls": calls})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
