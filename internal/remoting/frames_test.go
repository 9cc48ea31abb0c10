package remoting

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/transport"
)

// keeper keeps the []byte argument it was handed, as a cache or a log
// would.
type keeper struct{ kept []byte }

func (k *keeper) Keep(b []byte) { k.kept = b }
func (k *keeper) Kept() []byte  { return k.kept }
func (k *keeper) Sink(b []byte) {}

// TestKeptArgumentSurvivesLaterCalls: a []byte parameter is the method's to
// keep. The argument aliases the receive frame (4 KiB is above
// wire.BorrowMin), so the frame must never go back to the pool, or later
// requests on the connection overwrite what the object kept.
func TestKeptArgumentSurvivesLaterCalls(t *testing.T) {
	ch := NewMultiplexedChannel(transport.TCPNetwork{})
	defer ch.Close()
	srv, err := ch.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Marshal("keeper", &keeper{})
	ref, err := GetObject(ch, srv.URLFor("keeper"))
	if err != nil {
		t.Fatal(err)
	}
	// Two calls complete the bind handshake; the rest travel compact.
	for i := 0; i < 2; i++ {
		if _, err := ref.Invoke("Sink", []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	const size = 4 << 10
	for round := 0; round < 4; round++ {
		// Stock the frame pool, so that the server reads its requests into
		// pooled frames whatever earlier tests left there.
		runtime.GC()
		runtime.GC()
		for i := 0; i < 4; i++ {
			transport.PutFrame(make([]byte, 2*size))
		}
		want := bytes.Repeat([]byte{0xA0 + byte(round)}, size)
		if _, err := ref.Invoke("Keep", want); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, err := ref.Invoke("Sink", bytes.Repeat([]byte{byte(i)}, size)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ref.Invoke("Kept")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.([]byte), want) {
			t.Fatalf("round %d: later requests overwrote the kept argument: byte 0 is %#x, want %#x", round, got.([]byte)[0], want[0])
		}
	}
}

// TestFrameOwnershipRule: after a decode that borrowed, the frame belongs
// to the decoded values and GetFrame never hands its memory out again;
// after one that copied, the next GetFrame reuses it.
func TestFrameOwnershipRule(t *testing.T) {
	// frameReused decodes a bound call carrying a payload of n bytes out of
	// a pooled frame, settles the frame by the rule, and reports whether
	// the pool then hands the frame's memory out again.
	frameReused := func(n int) (reused, borrowed bool) {
		raw, enc, err := encodeBoundCall(1, &callRequest{Seq: 7, Args: []any{make([]byte, n)}}, false)
		if err != nil {
			t.Fatal(err)
		}
		defer enc.Release()
		// GetFrame looks at one pooled buffer per call, so take out what
		// earlier tests left there. sync.Pool may also drop any single Put
		// (it does so at random under -race), so a miss is retried.
		for cap(transport.GetFrame(0)) > 0 {
		}
		for try := 0; try < 100 && !reused; try++ {
			frame := transport.GetFrame(len(raw))
			copy(frame, raw)
			if _, _, borrowed, err = decodeBoundCall(frame); err != nil {
				t.Fatal(err)
			}
			recycleFrame(frame, borrowed)
			next := transport.GetFrame(len(raw))
			reused = &next[0] == &frame[0]
		}
		return reused, borrowed
	}
	if reused, borrowed := frameReused(4 << 10); !borrowed || reused {
		t.Errorf("4 KiB argument: borrowed=%v, frame reused=%v; want borrowed and never reused", borrowed, reused)
	}
	if reused, borrowed := frameReused(100); borrowed || !reused {
		t.Errorf("100 B argument: borrowed=%v, frame reused=%v; want copied and the frame reused", borrowed, reused)
	}
}
