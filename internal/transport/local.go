// Unix domain sockets for processes sharing a machine, and the Auto network.
// "unix://name" reuses the "self-describing address" convention of
// MemNetwork, so remoting URLs carry the transport choice and Auto routes
// each address to the right stack.
package transport

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// localAutoSeq numbers auto-allocated unix:// addresses.
var localAutoSeq atomic.Int64

// ---------------------------------------------------------------- unix

// UnixNetwork carries length-framed messages over Unix domain sockets:
// the TCP stack without the TCP/IP cost (no checksums, no Nagle, no
// loopback routing) for nodes co-located on one machine. Addresses are
// logical names — "unix://name" or bare "name" — mapped to socket files
// under the OS temp directory, so they survive remoting's host/URI split
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

// ---------------------------------------------------------------- auto

// defaultMem is the process-global memory network behind Auto, so
// multi-goroutine "clusters" wired purely by address work out of the box.
var defaultMem = NewMemNetwork()

// Auto is a Network that routes each address by its scheme: "unix://" to
// UnixNetwork, "inproc://" and "mem://" to the process-global MemNetwork,
// and everything else (host:port) to TCPNetwork. Co-located nodes thus
// select the cheap transport with nothing but the address they publish. The
// zero value is ready to use.
type Auto struct{}

func networkFor(addr string) Network {
	switch {
	case strings.HasPrefix(addr, "unix://"):
		return UnixNetwork{}
	case strings.HasPrefix(addr, "inproc://"), strings.HasPrefix(addr, "mem://"):
		return defaultMem
	default:
		return TCPNetwork{}
	}
}

// Listen implements Network.
func (Auto) Listen(addr string) (Listener, error) { return networkFor(addr).Listen(addr) }

// Dial implements Network.
func (Auto) Dial(addr string) (Conn, error) { return networkFor(addr).Dial(addr) }
