package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestUnixRoundtrip(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no unix domain sockets")
	}
	testNetworkRoundtrip(t, UnixNetwork{}, fmt.Sprintf("unix://rt-%d", os.Getpid()))
}

func TestUnixAutoAddr(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no unix domain sockets")
	}
	l1, err := UnixNetwork{}.Listen("unix://")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	l2, err := UnixNetwork{}.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, l := range []Listener{l1, l2} {
		if !strings.HasPrefix(l.Addr(), "unix://") {
			t.Errorf("auto address %q lacks the unix:// scheme", l.Addr())
		}
	}
	if l1.Addr() == l2.Addr() {
		t.Errorf("auto addresses collide: %q", l1.Addr())
	}
}

func TestUnixRejectsPathNames(t *testing.T) {
	// Names map to temp-dir socket files; path separators would escape it.
	if _, err := (UnixNetwork{}).Listen("unix://../evil"); err == nil {
		t.Error("path-traversal name accepted")
	}
	if _, err := (UnixNetwork{}).Dial("unix:///tmp/x.sock"); err == nil {
		t.Error("absolute path accepted")
	}
}

// TestUnixStaleSocketReclaim: a socket file left behind by a process that
// died without Close refuses the next bind; Listen must probe it, find
// nothing answering, and reclaim the address.
func TestUnixStaleSocketReclaim(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no unix domain sockets")
	}
	addr := fmt.Sprintf("unix://stale-%d", os.Getpid())
	path, err := UnixNetwork{}.socketPath(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Fake the crash: bind the file, then close the fd without letting the
	// net listener unlink it.
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	l.(*net.UnixListener).SetUnlinkOnClose(false)
	l.Close()
	reclaimed, err := UnixNetwork{}.Listen(addr)
	if err != nil {
		t.Fatalf("stale socket not reclaimed: %v", err)
	}
	defer reclaimed.Close()
	testConnOnce(t, UnixNetwork{}, reclaimed)
}

// TestUnixLiveSocketNotStolen: when a listener is actually answering, a
// second Listen on the same name must fail instead of unlinking it.
func TestUnixLiveSocketNotStolen(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no unix domain sockets")
	}
	addr := fmt.Sprintf("unix://live-%d", os.Getpid())
	l, err := UnixNetwork{}.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Echo every connection: the failed Listen's probe dial lands here too
	// (and just EOFs), so the real echo below cannot be stolen by it.
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				defer c.Close()
				if msg, err := c.Recv(); err == nil {
					c.Send(msg) //nolint:errcheck
				}
			}(c)
		}
	}()
	if _, err := (UnixNetwork{}).Listen(addr); err == nil {
		t.Fatal("live listener's socket was stolen")
	}
	c, err := UnixNetwork{}.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Recv(); err != nil || string(got) != "still here" {
		t.Fatalf("echo after refused steal = %q, %v", got, err)
	}
}

// testConnOnce checks one echo over an already-open listener.
func testConnOnce(t *testing.T, n Network, l Listener) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		msg, err := c.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- c.Send(msg)
	}()
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Recv(); err != nil || string(got) != "ping" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestInprocRoundtrip(t *testing.T) {
	testNetworkRoundtrip(t, NewMemNetwork(), "inproc://echo")
}

func TestInprocAutoAddr(t *testing.T) {
	n := NewMemNetwork()
	l1, err := n.Listen("inproc://")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	if !strings.HasPrefix(l1.Addr(), "inproc://") {
		t.Errorf("auto address %q lost the form it was asked in", l1.Addr())
	}
	l2, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l1.Addr() == l2.Addr() {
		t.Errorf("auto addresses collide: %q", l1.Addr())
	}
	if _, err := n.Listen(l1.Addr()); err == nil {
		t.Error("duplicate listen accepted")
	}
}

func TestInprocCloseSemantics(t *testing.T) {
	n := NewMemNetwork()
	l, err := n.Listen("inproc://closing")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("inproc://closing")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// A reply racing the close must still be delivered (orderly shutdown),
	// then the conn reports closed.
	if err := s.Send([]byte("last")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got, err := c.Recv(); err != nil || string(got) != "last" {
		t.Fatalf("drain after close = %q, %v", got, err)
	}
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after drain = %v, want ErrClosed", err)
	}
	if err := c.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	// Closing the listener frees the name for reuse and fails waiting dials.
	l.Close()
	if _, err := n.Dial("inproc://closing"); err == nil {
		t.Error("dial succeeded after listener close")
	}
	if _, err := n.Listen("inproc://closing"); err != nil {
		t.Errorf("name not released after close: %v", err)
	}
}

func TestAutoRouting(t *testing.T) {
	if _, ok := networkFor("unix://x").(UnixNetwork); !ok {
		t.Error("unix:// not routed to UnixNetwork")
	}
	for _, addr := range []string{"inproc://x", "mem://x"} {
		if n := networkFor(addr); n != Network(defaultMem) {
			t.Errorf("%s not routed to the process-global MemNetwork", addr)
		}
	}
	if _, ok := networkFor("127.0.0.1:7070").(TCPNetwork); !ok {
		t.Error("host:port not routed to TCPNetwork")
	}
	// End-to-end over Auto: two schemes, one Network value.
	testNetworkRoundtrip(t, Auto{}, "inproc://auto-routed")
	if runtime.GOOS != "windows" {
		testNetworkRoundtrip(t, Auto{}, fmt.Sprintf("unix://auto-routed-%d", os.Getpid()))
	}
}
