// Co-located transports: Unix domain sockets for processes sharing a
// machine, and an in-process loopback for nodes sharing an address space.
// Both reuse the "self-describing address" convention of MemNetwork —
// "unix://name" and "inproc://name" — so remoting URLs carry the transport
// choice and the Auto network routes each address to the right stack.
package transport

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// localAutoSeq numbers auto-allocated unix:// and inproc:// addresses.
var localAutoSeq atomic.Int64

// ---------------------------------------------------------------- unix

// UnixNetwork carries length-framed messages over Unix domain sockets:
// the TCP stack without the TCP/IP cost (no checksums, no Nagle, no
// loopback routing) for nodes co-located on one machine. Addresses are
// logical names — "unix://name" or bare "name" — mapped to socket files
// under the OS temp directory, so they survive ParseURL's host/URI split
// (a filesystem path would not). An empty name ("unix://") allocates a
// unique one. The zero value is ready to use.
type UnixNetwork struct{}

// socketPath maps a logical unix:// address to its socket file.
func (UnixNetwork) socketPath(addr string) (string, error) {
	name := strings.TrimPrefix(addr, "unix://")
	if name == "" {
		return "", fmt.Errorf("transport: empty unix socket name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return "", fmt.Errorf("transport: unix socket name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	return filepath.Join(os.TempDir(), "parc-"+name+".sock"), nil
}

// Listen implements Network. "unix://" (or "") picks a fresh unique name;
// the chosen address is available from Listener.Addr. A socket file left
// behind by a crashed process is reclaimed when nothing answers it.
func (u UnixNetwork) Listen(addr string) (Listener, error) {
	if addr == "" || addr == "unix://" {
		addr = fmt.Sprintf("unix://auto-%d-%d", os.Getpid(), localAutoSeq.Add(1))
	}
	path, err := u.socketPath(addr)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("unix", path)
	if err != nil {
		// A stale socket file (listener died without Close) refuses the
		// bind; probe it and reclaim when nothing is listening.
		if probe, perr := net.Dial("unix", path); perr == nil {
			probe.Close()
			return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
		}
		os.Remove(path)
		if l, err = net.Listen("unix", path); err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
		}
	}
	// net's unix listener unlinks the socket file on Close.
	return &unixListener{l: l, addr: addr}, nil
}

// Dial implements Network.
func (u UnixNetwork) Dial(addr string) (Conn, error) {
	path, err := u.socketPath(addr)
	if err != nil {
		return nil, err
	}
	c, err := net.Dial("unix", path)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newStreamConn(c), nil
}

// unixListener keeps the logical unix:// address so URLFor hands peers an
// address they can route, not a filesystem path.
type unixListener struct {
	l    net.Listener
	addr string
}

func (u *unixListener) Accept() (Conn, error) {
	c, err := u.l.Accept()
	if err != nil {
		return nil, err
	}
	return newStreamConn(c), nil
}

func (u *unixListener) Close() error { return u.l.Close() }
func (u *unixListener) Addr() string { return u.addr }

// ---------------------------------------------------------------- inproc

// InprocNetwork is a loopback for co-located nodes sharing one process:
// frames are handed directly between sender and receiver over a channel —
// no length framing, no syscalls, no stream to desynchronise. One copy
// remains, into a frame-pool buffer, because senders reuse their encoder
// buffers the moment Send returns; the receiver recycles that buffer via
// PutFrame exactly as it would a TCP receive frame, so the steady state
// allocates nothing. Addresses are "inproc://name"; "inproc://" allocates
// a unique one.
//
// Unlike MemNetwork (whose explicit instance lets tests and netsim build
// isolated or shaped universes), the inproc transport is a process-global
// singleton reached through the Auto network — co-located runtimes find
// each other by address with no shared object to plumb.
type InprocNetwork struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
}

// NewInprocNetwork returns an empty in-process network.
func NewInprocNetwork() *InprocNetwork {
	return &InprocNetwork{listeners: make(map[string]*inprocListener)}
}

// Listen implements Network.
func (n *InprocNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" || addr == "inproc://" {
		addr = fmt.Sprintf("inproc://auto-%d", localAutoSeq.Add(1))
	}
	if !strings.HasPrefix(addr, "inproc://") {
		addr = "inproc://" + addr
	}
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %s already in use", addr)
	}
	l := &inprocListener{
		addr:    addr,
		backlog: make(chan Conn, 16),
		done:    make(chan struct{}),
		net:     n,
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (n *InprocNetwork) Dial(addr string) (Conn, error) {
	if !strings.HasPrefix(addr, "inproc://") {
		addr = "inproc://" + addr
	}
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %s", addr)
	}
	client, server := newInprocPipe(addr+"/client", addr)
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (n *InprocNetwork) remove(addr string) {
	n.mu.Lock()
	delete(n.listeners, addr)
	n.mu.Unlock()
}

type inprocListener struct {
	addr    string
	backlog chan Conn
	done    chan struct{}
	once    sync.Once
	net     *InprocNetwork
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.remove(l.addr)
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// newInprocPipe wires two connected in-process endpoints.
func newInprocPipe(addrA, addrB string) (Conn, Conn) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	done := make(chan struct{})
	var once sync.Once
	closeFn := func() { once.Do(func() { close(done) }) }
	a := &inprocConn{send: ab, recv: ba, done: done, close: closeFn, local: addrA, remote: addrB}
	b := &inprocConn{send: ba, recv: ab, done: done, close: closeFn, local: addrB, remote: addrA}
	return a, b
}

// inprocConn hands pooled frames directly to the peer. Send copies into a
// GetFrame buffer (the caller keeps ownership of msg, matching Conn's
// contract); Recv surrenders that buffer to the receiver, which settles it
// after decoding as PutFrame describes — the same ownership cycle as a TCP
// receive, minus framing and syscalls.
type inprocConn struct {
	send   chan []byte
	recv   chan []byte
	done   chan struct{}
	close  func()
	local  string
	remote string
}

func (c *inprocConn) Send(msg []byte) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("transport: message of %d bytes exceeds MaxFrame", len(msg))
	}
	// Checked before the send: with buffer room free, the select below has
	// both cases ready after a close and could still enqueue.
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	cp := GetFrame(len(msg))
	copy(cp, msg)
	select {
	case c.send <- cp:
		return nil
	case <-c.done:
		PutFrame(cp)
		return ErrClosed
	}
}

func (c *inprocConn) Recv() ([]byte, error) {
	select {
	case msg := <-c.recv:
		return msg, nil
	case <-c.done:
		// Drain messages that raced with close so orderly shutdown does
		// not drop replies.
		select {
		case msg := <-c.recv:
			return msg, nil
		default:
		}
		return nil, ErrClosed
	}
}

func (c *inprocConn) Close() error {
	c.close()
	return nil
}

func (c *inprocConn) LocalAddr() string  { return c.local }
func (c *inprocConn) RemoteAddr() string { return c.remote }

// ---------------------------------------------------------------- auto

// Process-global instances behind the Auto network. mem:// gets one too so
// multi-goroutine "clusters" wired purely by address work out of the box.
var (
	defaultInproc = NewInprocNetwork()
	defaultMem    = NewMemNetwork()
)

// Auto is a Network that routes each address by its scheme: "unix://" to
// UnixNetwork, "inproc://" to the process-global InprocNetwork, "mem://"
// to a process-global MemNetwork, and everything else (host:port) to
// TCPNetwork. Co-located nodes thus select the cheap transport with
// nothing but the address they publish. The zero value is ready to use.
type Auto struct{}

func networkFor(addr string) Network {
	switch {
	case strings.HasPrefix(addr, "unix://"):
		return UnixNetwork{}
	case strings.HasPrefix(addr, "inproc://"):
		return defaultInproc
	case strings.HasPrefix(addr, "mem://"):
		return defaultMem
	default:
		return TCPNetwork{}
	}
}

// Listen implements Network.
func (Auto) Listen(addr string) (Listener, error) { return networkFor(addr).Listen(addr) }

// Dial implements Network.
func (Auto) Dial(addr string) (Conn, error) { return networkFor(addr).Dial(addr) }
