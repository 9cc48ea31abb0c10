package mono

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/paper/cost"
	"repro/internal/transport"
)

var kinds = map[string]Kind{"tcp": TCP, "tcp-legacy": LegacyTCP, "http": HTTP}

// divideServer mirrors the paper's Fig. 1/2 example service.
type divideServer struct{}

func (divideServer) Divide(a, b float64) (float64, error) {
	if b == 0 {
		return 0, errors.New("division by zero")
	}
	return a / b, nil
}

func (divideServer) Echo(nums []int32) []int32 { return nums }

func newTestServer(t *testing.T, kind Kind) (*Channel, *Server) {
	t.Helper()
	ch := NewChannel(kind, transport.NewMemNetwork())
	srv, err := ch.ListenAndServe("mem://server")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	t.Cleanup(ch.Close)
	srv.Publish("d", divideServer{})
	return ch, srv
}

func TestSingletonInvoke(t *testing.T) {
	for name, kind := range kinds {
		t.Run(name, func(t *testing.T) {
			ch, srv := newTestServer(t, kind)
			got, err := ch.Invoke(srv.Addr(), "d", "Divide", 10.0, 4.0)
			if err != nil {
				t.Fatal(err)
			}
			if got != 2.5 {
				t.Errorf("Divide = %v", got)
			}
			if _, err := ch.Invoke(srv.Addr(), "d", "Divide", 1.0, 0.0); err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Errorf("Divide by zero error = %v", err)
			}
			if _, err := ch.Invoke(srv.Addr(), "missing", "Divide", 1.0, 1.0); err == nil {
				t.Error("expected unknown-URI error")
			}
			if _, err := ch.Invoke(srv.Addr(), "d", "NoSuchMethod"); err == nil {
				t.Error("expected unknown-method error")
			}
		})
	}
}

func TestEchoArrays(t *testing.T) {
	for name, kind := range kinds {
		t.Run(name, func(t *testing.T) {
			ch, srv := newTestServer(t, kind)
			payload := make([]int32, 5000) // many legacy chunks when encoded
			for i := range payload {
				payload[i] = int32(i)
			}
			for call := 0; call < 2; call++ { // the second reuses the pooled connection
				got, err := ch.Invoke(srv.Addr(), "d", "Echo", payload)
				if err != nil {
					t.Fatal(err)
				}
				gs, ok := got.([]int32)
				if !ok || len(gs) != len(payload) || gs[4999] != 4999 {
					t.Errorf("Echo returned %T len %d", got, len(gs))
				}
			}
		})
	}
}

// TestPooling: the 1.1.7 channel keeps its connection between calls, the
// other two dial every call.
func TestPooling(t *testing.T) {
	for name, kind := range kinds {
		ch, srv := newTestServer(t, kind)
		if _, err := ch.Invoke(srv.Addr(), "d", "Divide", 1.0, 1.0); err != nil {
			t.Fatal(err)
		}
		ch.mu.Lock()
		idle := len(ch.idle[srv.Addr()])
		ch.mu.Unlock()
		if want := map[Kind]int{TCP: 1}[kind]; idle != want {
			t.Errorf("%s: %d idle connections after a call, want %d", name, idle, want)
		}
	}
}

// TestLegacyChunkReassembly: a legacy body crosses the wire in 1 KiB
// chunks and comes back whole, at and around the chunk boundaries.
func TestLegacyChunkReassembly(t *testing.T) {
	ch := NewChannel(LegacyTCP, nil)
	for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk, 3*chunk + 7} {
		a, b := transport.NewPipe("a", "b")
		msg := bytes.Repeat([]byte{0xAB}, n)
		if n > 0 {
			msg[n-1] = 0xCD
		}
		sent := make(chan error, 1)
		go func() { sent <- ch.send(a, msg) }()
		frames := 0
		counted := &countingConn{Conn: b, frames: &frames}
		got, err := ch.recv(counted)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("n=%d: send: %v", n, err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("n=%d: reassembled %d bytes, want the %d sent", n, len(got), n)
		}
		if want := max(1, (n+chunk-1)/chunk); frames != want {
			t.Errorf("n=%d: %d wire messages, want %d", n, frames, want)
		}
		a.Close()
		b.Close()
	}
}

type countingConn struct {
	transport.Conn
	frames *int
}

func (c *countingConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil {
		*c.frames++
	}
	return msg, err
}

func TestEmptyLegacyChunkRejected(t *testing.T) {
	a, b := transport.NewPipe("a", "b")
	defer a.Close()
	defer b.Close()
	go a.Send(nil) //nolint:errcheck // the receive below reports the outcome
	if _, err := NewChannel(LegacyTCP, nil).recv(b); err == nil {
		t.Error("an empty chunk was accepted")
	}
}

func TestHTTPFraming(t *testing.T) {
	body := []byte("<soap/>")
	msg := buildHTTPMessage("POST /d HTTP/1.0", body)
	got, err := parseHTTPMessage(msg)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("round trip = %q, %v", got, err)
	}
	if _, err := parseHTTPMessage([]byte("POST /d HTTP/1.0\r\nContent-Length: 7\r\n<soap/>")); err == nil {
		t.Error("a message without a header terminator was accepted")
	}
	if _, err := parseHTTPMessage([]byte("POST /d HTTP/1.0\r\nContent-Length: 99\r\n\r\n<soap/>")); err == nil {
		t.Error("a Content-Length that does not match the body was accepted")
	}
	if _, err := parseHTTPMessage([]byte("POST /d HTTP/1.0\r\nContent-Length: x\r\n\r\n<soap/>")); err == nil {
		t.Error("a non-numeric Content-Length was accepted")
	}
}

// TestCostCharged: a call charges four messages (client send, server
// receive, server send, client receive) and the first one a connect.
func TestCostCharged(t *testing.T) {
	ch, srv := newTestServer(t, TCP)
	ch.Cost = cost.Model{PerMessage: 5 * time.Millisecond, PerConnect: 20 * time.Millisecond}
	start := time.Now()
	if _, err := ch.Invoke(srv.Addr(), "d", "Divide", 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 38*time.Millisecond {
		t.Errorf("cost model under-charged the first call: %v", rtt)
	}
	start = time.Now()
	if _, err := ch.Invoke(srv.Addr(), "d", "Divide", 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 18*time.Millisecond {
		t.Errorf("cost model under-charged a pooled call: %v", rtt)
	}
}
