package remoting

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/transport"
)

// keeper keeps the arguments it was handed, as a cache or a log would.
type keeper struct {
	kept []byte
	ints []int32
	name string
	list []any
}

func (k *keeper) Keep(b []byte) { k.kept = b }
func (k *keeper) Kept() []byte  { return k.kept }
func (k *keeper) Sink(b []byte) {}

// KeepAll has, in its last two parameters, the signature of a runtime call:
// over a compact envelope its arguments after ints take the nested-call
// shape, and list is then the very slice the server's call record lent the
// decoder.
func (k *keeper) KeepAll(ints []int32, name string, list []any) {
	k.ints, k.name, k.list = ints, name, list
}
func (k *keeper) KeepTail(name string, list []any) { k.name, k.list = name, list }
func (k *keeper) Ints() []int32                    { return k.ints }
func (k *keeper) Name() string                     { return k.name }
func (k *keeper) List() []any                      { return k.list }
func (k *keeper) Sink3(a, b, c any)                {}

// TestKeptArgumentSurvivesLaterCalls: a parameter is the method's to keep.
// A 4 KiB []byte aliases the receive frame (it is above wire.BorrowMin), so
// the frame must never go back to the pool, or later requests on the
// connection overwrite what the object kept. A []int32, a string and a
// []any are values of their own, and the last of them can be the argument
// array of the server's call record, which must then not be reused either.
func TestKeptArgumentSurvivesLaterCalls(t *testing.T) {
	t.Run("small values", keptSmallValuesSurvive)
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
		raw, enc, err := encodeBoundCall(1, &callRequest{Seq: 7, Args: []any{make([]byte, n)}})
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
			if _, _, borrowed, err = decodeCall(frame); err != nil {
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

func keptSmallValuesSurvive(t *testing.T) {
	ch, srv, _ := newMuxServer(t)
	srv.Marshal("keeper", &keeper{})
	ref, err := GetObject(ch, srv.URLFor("keeper"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	check := func(round int, wantInts []int32, wantName string, wantList []any) {
		t.Helper()
		// Later requests with at least as many arguments, decoded into
		// whatever arrays the kept call's record gave back.
		for i := 0; i < 50; i++ {
			if _, err := ref.Invoke("Sink3", []int32{int32(i)}, "later", []any{i, i}); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Invoke("Sink3", "later", []any{i, i, i}, i); err != nil {
				t.Fatal(err)
			}
		}
		ints, _ := ref.Invoke("Ints")
		name, _ := ref.Invoke("Name")
		list, _ := ref.Invoke("List")
		if wantInts != nil && !reflect.DeepEqual(ints, wantInts) {
			t.Errorf("round %d: kept []int32 is now %v, want %v", round, ints, wantInts)
		}
		if name != wantName {
			t.Errorf("round %d: kept string is now %q, want %q", round, name, wantName)
		}
		if !reflect.DeepEqual(list, wantList) {
			t.Errorf("round %d: kept []any is now %v, want %v", round, list, wantList)
		}
	}
	// Rounds 0 and 1 complete the bind handshakes; the rest travel compact.
	for round := 0; round < 6; round++ {
		wantInts := []int32{int32(round), 2, 3}
		wantName := fmt.Sprintf("name-%d", round)
		wantList := []any{round, "kept", 2.5}
		if _, err := ref.Invoke("KeepAll", wantInts, wantName, wantList); err != nil {
			t.Fatal(err)
		}
		check(round, wantInts, wantName, wantList)
		// The nested-call shape itself, both ways of sending it.
		wantName += "-tail"
		wantList = []any{"tail", round}
		if round%2 == 0 {
			_, err = ref.Invoke("KeepTail", wantName, wantList)
		} else {
			_, err = ref.InvokeNestedCtx(ctx, "KeepTail", wantName, wantList)
		}
		if err != nil {
			t.Fatal(err)
		}
		check(round, nil, wantName, wantList)
	}
}
