package remoting

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/transport"
)

type echoBytesService struct{}

func (echoBytesService) EchoBytes(b []byte) []byte { return b }

// TestInvokeOverLocalTransports runs real multiplexed RPC over the
// scheme-routed transports — the co-located fast paths — including a
// payload large enough to travel the zero-copy borrow path end to end on
// both sides (above wire.BorrowMin).
func TestInvokeOverLocalTransports(t *testing.T) {
	addrs := []string{"inproc://rpc-e2e"}
	if runtime.GOOS != "windows" {
		addrs = append(addrs, fmt.Sprintf("unix://rpc-e2e-%d", os.Getpid()))
	}
	for _, addr := range addrs {
		scheme := addr[:strings.Index(addr, "://")]
		t.Run(scheme, func(t *testing.T) {
			ch := NewMultiplexedChannel(transport.Auto{})
			defer ch.Close()
			srv, err := ch.ListenAndServe(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.Marshal("e", echoBytesService{})
			url := srv.URLFor("e")
			if !strings.HasPrefix(url, scheme+"://") {
				t.Fatalf("URLFor = %q, want %s:// scheme preserved", url, scheme)
			}
			ref, err := GetObject(ch, url)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{16, 100 << 10} {
				payload := bytes.Repeat([]byte{byte(size)}, size)
				got, err := ref.Invoke("EchoBytes", payload)
				if err != nil {
					t.Fatalf("EchoBytes %dB over %s: %v", size, scheme, err)
				}
				if !bytes.Equal(got.([]byte), payload) {
					t.Fatalf("EchoBytes %dB over %s: payload corrupted", size, scheme)
				}
			}
		})
	}
}
