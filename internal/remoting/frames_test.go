package remoting

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/paper/cost"
	"repro/internal/transport"
	"repro/internal/wire"
)

// poisoned turns frame poisoning on for the rest of t and installs fresh
// frame and record audits, which it returns; the record audit counts the
// channels t makes from then on. When t ends, after whatever t closes on its
// way out, it checks that every frame a read loop was handed went back to
// its connection or was borrowed, and that every call record either end
// drew went back or was let go on purpose.
func poisoned(t *testing.T) (frames *frameCounts, records *recordCounts) {
	t.Helper()
	frames, records = new(frameCounts), new(recordCounts)
	framePoison.Store(true)
	frameAudit.Store(frames)
	recordAudit.Store(records)
	t.Cleanup(func() {
		defer framePoison.Store(false)
		defer frameAudit.Store(nil)
		defer recordAudit.Store(nil)
		// Read loops and server workers count what they hold on their own
		// goroutines, as they wind down.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			out, back, borrowed := frames[frameOut].Load(), frames[frameBack].Load(), frames[frameBorrowed].Load()
			drawn, returned, dropped := records[RecordDrawn].Load(), records[RecordReturned].Load(), records[RecordDropped].Load()
			if out == back+borrowed && drawn == returned+dropped {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("frames out %d, back %d, borrowed %d; records drawn %d, returned %d, let go %d", out, back, borrowed, drawn, returned, dropped)
				return
			}
		}
	})
	return frames, records
}

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

// KeepAll keeps what it was handed. KeepTail has the signature of a runtime
// call, (method, args): a call carrying a user's method reaches it as that
// pair, and list is then the very slice the server's call record lent the
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
	poisoned(t)
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
	// Two calls declare and confirm the handle; the rest travel bound.
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

// connPair dials a listener of net at addr and returns both ends.
func connPair(t *testing.T, net transport.Network, addr string) (client, server transport.Conn) {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err = net.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestFrameOwnershipRule: the one rule for a receive frame, as a read loop
// applies it (RecvFrame, decode in borrow mode, recycleFrame, poisoning
// included). On a stream connection a frame that was copied out of goes
// back to the connection and is the memory of the next receive, every time;
// a frame a decoded value borrowed is never received into again, by that
// connection or through the pool; a frame above the transport's small-frame
// line is not kept. On mem://, which cannot take a frame back, the same rule
// runs through the pool.
func TestFrameOwnershipRule(t *testing.T) {
	poisoned(t)
	d := wire.NewDecoder(nil)
	defer d.Release()
	d.SetBorrow(true)
	// receive sends one bound call carrying arg from client and takes it off
	// server as handleConn does, returning the frame and the decoded argument.
	receive := func(t *testing.T, client, server transport.Conn, arg any) (frame []byte, got any, borrowed bool) {
		t.Helper()
		raw, enc, err := encodeBoundCall(&testEncs, 1, false, &callRequest{Seq: 7, Args: []any{arg}})
		if err != nil {
			t.Fatal(err)
		}
		err = client.Send(raw)
		enc.Release()
		if err != nil {
			t.Fatal(err)
		}
		if frame, err = transport.RecvFrame(server); err != nil {
			t.Fatal(err)
		}
		audit := countFrame(frameAudit.Load())
		var req callRequest
		if _, _, err := readBoundCall(d, frame, &req, nil); err != nil {
			t.Fatal(err)
		}
		borrowed = d.Borrowed()
		recycleFrame(audit, server, frame, borrowed)
		return frame, req.Args[0], borrowed
	}
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

	streams := map[string]func(t *testing.T) (client, server transport.Conn){
		"tcp":  func(t *testing.T) (_, _ transport.Conn) { return connPair(t, transport.TCPNetwork{}, "127.0.0.1:0") },
		"unix": func(t *testing.T) (_, _ transport.Conn) { return connPair(t, transport.UnixNetwork{}, "unix://") },
	}
	for name, pair := range streams {
		t.Run(name, func(t *testing.T) {
			client, server := pair(t)
			first, _, borrowed := receive(t, client, server, fill(100, 1))
			if borrowed {
				t.Fatal("a 100 B argument was borrowed")
			}
			for i := 0; i < 50; i++ {
				frame, got, borrowed := receive(t, client, server, fill(100, byte(i)))
				if borrowed || &frame[0] != &first[0] {
					t.Fatalf("receive %d after a copied 100 B argument: borrowed=%v, same memory=%v; want the connection's buffer again", i, borrowed, &frame[0] == &first[0])
				}
				if !bytes.Equal(got.([]byte), fill(100, byte(i))) {
					t.Fatalf("receive %d decoded %x", i, got)
				}
			}

			// Borrowed: the argument is a view of its frame, and stays what
			// it was through every later receive, large or small.
			var views [][]byte
			var frames [][]byte
			for round := 0; round < 4; round++ {
				frame, got, borrowed := receive(t, client, server, fill(4<<10, 0xA0+byte(round)))
				if !borrowed {
					t.Fatal("a 4 KiB argument was copied")
				}
				for _, old := range frames {
					if &old[0] == &frame[0] {
						t.Fatal("a borrowed frame was received into again")
					}
				}
				frames, views = append(frames, frame), append(views, got.([]byte))
				for i := 0; i < 10; i++ {
					small, _, _ := receive(t, client, server, fill(100, 0xFF))
					for _, old := range frames {
						if &old[0] == &small[0] {
							t.Fatal("a borrowed frame was received into again")
						}
					}
				}
			}
			for round, view := range views {
				if !bytes.Equal(view, fill(4<<10, 0xA0+byte(round))) {
					t.Fatalf("the argument borrowed in round %d was overwritten: byte 0 is %#x", round, view[0])
				}
			}

			// Above the small-frame line (64 KiB): copied out of, and dropped.
			big := make([]float64, 10000)
			held, _, borrowed := receive(t, client, server, big)
			next, _, _ := receive(t, client, server, big)
			if borrowed || &next[0] == &held[0] {
				t.Errorf("80 KB frame: borrowed=%v, kept and reused=%v; want neither", borrowed, &next[0] == &held[0])
			}
		})
	}

	t.Run("mem", func(t *testing.T) {
		client, server := connPair(t, transport.NewMemNetwork(), "mem://frames")
		// The frame of a copied argument is in the pool afterwards. GetFrame
		// looks at one pooled buffer per call, so take out what earlier tests
		// left there; sync.Pool may also drop any single Put (it does so at
		// random under -race), so a miss is retried.
		for cap(transport.GetFrame(0)) > 0 {
		}
		reused := false
		for try := 0; try < 100 && !reused; try++ {
			frame, _, borrowed := receive(t, client, server, fill(100, 1))
			if borrowed {
				t.Fatal("a 100 B argument was borrowed")
			}
			next := transport.GetFrame(len(frame))
			reused = &next[0] == &frame[0]
		}
		if !reused {
			t.Error("100 B argument over mem://: the frame never came back through the pool")
		}
		frame, got, borrowed := receive(t, client, server, fill(4<<10, 0xA7))
		if !borrowed {
			t.Fatal("a 4 KiB argument was copied")
		}
		for i := 0; i < 100; i++ {
			if next := transport.GetFrame(len(frame)); &next[0] == &frame[0] {
				t.Fatal("a borrowed frame came back through the pool")
			}
			receive(t, client, server, fill(100, byte(i)))
		}
		if !bytes.Equal(got.([]byte), fill(4<<10, 0xA7)) {
			t.Error("the borrowed argument was overwritten")
		}
	})
}

// TestFramesAccountedFor: over a plain stream network, over one wrapped by
// cost and by fault (wrappers, which take no frame back) and over mem://,
// calls with copied and borrowed payloads in both directions answer
// correctly, and once both ends are closed every frame a read loop was
// handed went back where it came from or was borrowed, none lost.
func TestFramesAccountedFor(t *testing.T) {
	nets := map[string]struct {
		net  transport.Network
		addr string
	}{
		"tcp":   {transport.TCPNetwork{}, "127.0.0.1:0"},
		"cost":  {cost.Network(transport.TCPNetwork{}, cost.Model{PerMessage: time.Microsecond}), "127.0.0.1:0"},
		"fault": {fault.NewInjector(1).Node(transport.TCPNetwork{}, "client"), "127.0.0.1:0"},
		"mem":   {transport.NewMemNetwork(), "mem://audit"},
	}
	for name, n := range nets {
		t.Run(name, func(t *testing.T) {
			audit, _ := poisoned(t)
			ch := NewMultiplexedChannel(n.net)
			srv, err := ch.ListenAndServe(n.addr)
			if err != nil {
				t.Fatal(err)
			}
			srv.Marshal("keeper", &keeper{})
			ref, err := GetObject(ch, srv.URLFor("keeper"))
			if err != nil {
				t.Fatal(err)
			}
			const rounds = 20
			for i := 0; i < rounds; i++ {
				for _, size := range []int{100, 4 << 10} {
					want := bytes.Repeat([]byte{byte(i)}, size)
					if _, err := ref.Invoke("Keep", want); err != nil {
						t.Fatal(err)
					}
					got, err := ref.Invoke("Kept")
					if err != nil || !bytes.Equal(got.([]byte), want) {
						t.Fatalf("round %d, %d B: kept %v, %v", i, size, got, err)
					}
				}
			}
			ch.Close()
			srv.Close()
			// At least one frame per end per call, every one of them back or
			// borrowed once the read loops have wound down.
			settled(t, audit, 8*rounds)
			out, back, borrowed := audit[frameOut].Load(), audit[frameBack].Load(), audit[frameBorrowed].Load()
			t.Logf("frames handed out %d, handed back %d, borrowed %d", out, back, borrowed)
			// A 4 KiB payload is borrowed once as an argument and once as a
			// result.
			if borrowed < 2*rounds {
				t.Errorf("%d frames borrowed, want at least %d", borrowed, 2*rounds)
			}
		})
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
	// Rounds 0 and 1 declare and confirm the handles; the rest travel bound.
	for round := 0; round < 6; round++ {
		wantInts := []int32{int32(round), 2, 3}
		wantName := fmt.Sprintf("name-%d", round)
		wantList := []any{round, "kept", 2.5}
		if _, err := ref.Invoke("KeepAll", wantInts, wantName, wantList); err != nil {
			t.Fatal(err)
		}
		check(round, wantInts, wantName, wantList)
		// The runtime-call shape on a target that is no NestedInvoker, sent
		// as a plain call and as a runtime call.
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
