package remoting

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/keep"
	"repro/internal/transport"
	"repro/internal/wire"
)

type byteEcho struct{}

func (byteEcho) Echo(b []byte) []byte { return b }

// TestKeptEncodersStayBounded: what the two ends of a lane keep of their
// encoders is bounded as the pool's was. After a 256 KiB echo each end keeps
// the encoder that carried it with its buffer, so the next bulk call would
// re-encode into the same memory; the first 64 B call through it drops the
// buffer (wire's retainCap rule), after which neither end keeps an encoder
// holding more than 64 KiB. Closing both ends leaves the frame and record
// audits balanced.
func TestKeptEncodersStayBounded(t *testing.T) {
	const retainCap = 64 << 10 // wire's
	poisoned(t)
	ch := NewMultiplexedChannel(transport.TCPNetwork{})
	ch.MuxLanes = 1
	defer ch.Close()
	srv, err := ch.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Marshal("echo", byteEcho{})
	ref, err := GetObject(ch, srv.URLFor("echo"))
	if err != nil {
		t.Fatal(err)
	}
	echo := func(n int) {
		t.Helper()
		b := bytes.Repeat([]byte{0x5A}, n)
		got, err := ref.Invoke("Echo", b)
		if err != nil || !bytes.Equal(got.([]byte), b) {
			t.Fatalf("Echo(%d B) = %v", n, err)
		}
	}
	// largestKept waits until both ends gave back the encoder of the call
	// just made (the lane's writer and the connection's flusher do so after
	// the peer may already have the bytes), and returns the largest buffer
	// either end keeps. Calls made one at a time run on one encoder per end:
	// the one the previous call gave back.
	largestKept := func() int {
		t.Helper()
		var ends []*keep.Store[wire.Encoder]
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			ends = ends[:0]
			ch.muxMu.Lock()
			for _, mc := range ch.muxPeers {
				ends = append(ends, &mc.encs)
			}
			ch.muxMu.Unlock()
			srv.mu.Lock()
			for _, sc := range srv.conns {
				ends = append(ends, &sc.encs)
			}
			srv.mu.Unlock()
			if len(ends) == 2 && ends[0][0].Load() != nil && ends[1][0].Load() != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the call's encoders never came back: %d ends", len(ends))
			}
		}
		largest := 0
		for _, encs := range ends {
			for i := range encs {
				if e := encs[i].Load(); e != nil {
					largest = max(largest, cap(e.Bytes()))
				}
			}
		}
		return largest
	}

	echo(256 << 10)
	if got := largestKept(); got < 256<<10 {
		t.Errorf("after a 256 KiB call the largest kept buffer is %d B, want the bulk buffer kept", got)
	}
	echo(64)
	if got := largestKept(); got > retainCap {
		t.Errorf("after a 64 B call an end keeps an encoder holding %d B, want at most %d", got, retainCap)
	}
}
