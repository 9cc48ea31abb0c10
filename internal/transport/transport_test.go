package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/racetest"
)

func testNetworkRoundtrip(t *testing.T, net Network, addr string) {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for {
			msg, err := c.Recv()
			if err != nil {
				done <- nil
				return
			}
			if err := c.Send(append([]byte("echo:"), msg...)); err != nil {
				done <- err
				return
			}
		}
	}()

	c, err := net.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i := 0; i < 10; i++ {
		msg := []byte(fmt.Sprintf("hello %d", i))
		if err := c.Send(msg); err != nil {
			t.Fatalf("Send: %v", err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		want := append([]byte("echo:"), msg...)
		if !bytes.Equal(got, want) {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestTCPRoundtrip(t *testing.T) {
	testNetworkRoundtrip(t, TCPNetwork{}, "127.0.0.1:0")
}

func TestMemRoundtrip(t *testing.T) {
	testNetworkRoundtrip(t, NewMemNetwork(), "mem://echo")
}

func TestMemAutoAddr(t *testing.T) {
	net := NewMemNetwork()
	l1, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr() == l2.Addr() {
		t.Errorf("auto addresses collide: %s", l1.Addr())
	}
}

func TestMemAddrInUse(t *testing.T) {
	net := NewMemNetwork()
	if _, err := net.Listen("mem://x"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Listen("mem://x"); err == nil {
		t.Error("expected address-in-use error")
	}
}

func TestMemDialUnknown(t *testing.T) {
	net := NewMemNetwork()
	if _, err := net.Dial("mem://nowhere"); err == nil {
		t.Error("expected dial error")
	}
}

func TestMemListenerCloseFreesAddr(t *testing.T) {
	net := NewMemNetwork()
	l, err := net.Listen("mem://reuse")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := net.Listen("mem://reuse"); err != nil {
		t.Errorf("address not released after close: %v", err)
	}
}

func TestLargeMessages(t *testing.T) {
	for name, net := range map[string]Network{"tcp": TCPNetwork{}, "mem": NewMemNetwork()} {
		t.Run(name, func(t *testing.T) {
			l, err := net.Listen(listenAddr(name))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				msg, err := c.Recv()
				if err != nil {
					return
				}
				c.Send(msg)
			}()
			c, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			big := make([]byte, 1<<20)
			for i := range big {
				big[i] = byte(i * 7)
			}
			if err := c.Send(big); err != nil {
				t.Fatal(err)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, big) {
				t.Error("large message corrupted")
			}
		})
	}
}

func listenAddr(network string) string {
	if network == "tcp" {
		return "127.0.0.1:0"
	}
	return ""
}

func TestOversizeMessageRejected(t *testing.T) {
	a, _ := NewPipe("a", "b")
	huge := make([]byte, maxFrame+1)
	if err := a.Send(huge); err == nil {
		t.Error("oversize message accepted")
	}
}

func TestPipeOrdering(t *testing.T) {
	a, b := NewPipe("a", "b")
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			a.Send([]byte{byte(i)})
		}
	}()
	for i := 0; i < n; i++ {
		msg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg[0] != byte(i) {
			t.Fatalf("out of order: got %d want %d", msg[0], i)
		}
	}
}

func TestPipeSenderBufferReuse(t *testing.T) {
	a, b := NewPipe("a", "b")
	buf := []byte("first")
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX")
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first" {
		t.Errorf("sender buffer reuse leaked: %q", got)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	a, b := NewPipe("a", "b")
	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		errc <- err
	}()
	a.Close()
	if err := <-errc; err != ErrClosed {
		t.Errorf("Recv after close = %v, want ErrClosed", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	net := NewMemNetwork()
	l, err := net.Listen("mem://concurrent")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const senders, perSender = 8, 50
	received := make(chan []byte, senders*perSender)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		for i := 0; i < senders*perSender; i++ {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			received <- msg
		}
	}()
	c, err := net.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := c.Send([]byte{byte(s), byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	seen := make(map[[2]byte]bool)
	for i := 0; i < senders*perSender; i++ {
		msg := <-received
		key := [2]byte{msg[0], msg[1]}
		if seen[key] {
			t.Fatalf("duplicate message %v", key)
		}
		seen[key] = true
	}
}

// testSendBatch sends msgs in one batch and asserts the receiver sees each
// message intact, in order, with its exact bytes — frame boundaries must
// survive coalescing.
func testSendBatch(t *testing.T, net Network, addr string, msgs [][]byte) {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type recvResult struct {
		msgs [][]byte
		err  error
	}
	done := make(chan recvResult, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- recvResult{err: err}
			return
		}
		defer c.Close()
		var got [][]byte
		for range msgs {
			m, err := c.Recv()
			if err != nil {
				done <- recvResult{err: err}
				return
			}
			got = append(got, m)
		}
		done <- recvResult{msgs: got}
	}()
	c, err := net.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := SendBatch(c, msgs); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("receive: %v", res.err)
	}
	for i, m := range msgs {
		if !bytes.Equal(res.msgs[i], m) {
			t.Fatalf("message %d: got %d bytes, want %d bytes (boundary lost)", i, len(res.msgs[i]), len(m))
		}
	}
}

func batchPayload(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed + i)
	}
	return b
}

// TestSendBatchSmallTCP covers the copy path (total under smallMax):
// many small frames leave in one Write.
func TestSendBatchSmallTCP(t *testing.T) {
	var msgs [][]byte
	for i := 0; i < 100; i++ {
		msgs = append(msgs, batchPayload(10+i, i))
	}
	testSendBatch(t, TCPNetwork{}, "127.0.0.1:0", msgs)
}

// TestSendBatchLargeTCP covers the vectored path (total over
// smallMax): bodies go out through writev without an extra copy.
func TestSendBatchLargeTCP(t *testing.T) {
	msgs := [][]byte{
		batchPayload(1, 1),
		batchPayload(smallMax, 2), // alone over the copy threshold
		batchPayload(777, 3),
		batchPayload(smallMax/2, 4),
		batchPayload(3, 5),
	}
	testSendBatch(t, TCPNetwork{}, "127.0.0.1:0", msgs)
}

// TestSendBatchSingleAndEmpty: the degenerate batch sizes.
func TestSendBatchSingleAndEmpty(t *testing.T) {
	testSendBatch(t, TCPNetwork{}, "127.0.0.1:0", [][]byte{batchPayload(64, 9)})
	c, _ := NewPipe("a", "b")
	if err := SendBatch(c, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestSendBatchMemFallback: connections without batch support degrade to
// per-message sends with identical semantics.
func TestSendBatchMemFallback(t *testing.T) {
	net := NewMemNetwork()
	var msgs [][]byte
	for i := 0; i < 10; i++ {
		msgs = append(msgs, batchPayload(32+i, i))
	}
	testSendBatch(t, net, "mem://batch", msgs)
}

// TestSendBatchOversize: a single oversize message fails the whole batch
// before anything hits the wire.
func TestSendBatchOversize(t *testing.T) {
	l, err := TCPNetwork{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			defer c.Close()
			c.Recv() //nolint:errcheck
		}
	}()
	c, err := TCPNetwork{}.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	huge := make([]byte, maxFrame+1)
	if err := SendBatch(c, [][]byte{{1}, huge}); err == nil {
		t.Fatal("oversize message in batch accepted")
	}
}

// TestSendBatchConcurrentWithSend: eight goroutines share one connection
// and mix batched sends with single sends of small (copied) and large
// (vectored) messages; every frame arrives whole, so the send paths
// interleave at frame granularity only (run with -race).
func TestSendBatchConcurrentWithSend(t *testing.T) {
	l, err := TCPNetwork{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const senders, perSender = 8, 24
	sizes := []int{40, smallMax + 100, 3000, 200 << 10}
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for seen := 0; seen < senders*perSender*3; seen++ {
			m, err := RecvFrame(c)
			if err != nil {
				done <- err
				return
			}
			// Every frame is self-consistent: byte i is byte 0 plus i.
			for i := range m {
				if m[i] != byte(int(m[0])+i) {
					done <- fmt.Errorf("frame of %d bytes corrupted at byte %d", len(m), i)
					return
				}
			}
			PutFrame(m)
		}
		done <- nil
	}()
	c, err := TCPNetwork{}.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				batch := [][]byte{batchPayload(20+s, 7*s), batchPayload(30+s, 7*s)}
				if err := SendBatch(c, batch); err != nil {
					t.Error(err)
					return
				}
				if err := c.Send(batchPayload(sizes[(s+i)%len(sizes)], 31*s+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// echoConn dials a peer on net that sends every frame straight back
// (RecvFrame, Send, PutFrame — the frame is dead once Send returned).
func echoConn(t *testing.T, net Network, addr string) Conn {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := RecvFrame(c)
			if err != nil || c.Send(m) != nil {
				return
			}
			PutFrame(m)
		}
	}()
	c, err := net.Dial(l.Addr())
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); l.Close(); <-served })
	return c
}

// TestFrameSizesAroundSmallMax: messages on both sides of the line between
// the copied single Write (4+len <= smallMax) and the vectored write come
// back byte-identical, so the receiver cannot tell which path sent them.
func TestFrameSizesAroundSmallMax(t *testing.T) {
	nets := map[string]string{"tcp": "127.0.0.1:0"}
	if runtime.GOOS != "windows" {
		nets["unix"] = fmt.Sprintf("unix://sizes-%d", os.Getpid())
	}
	for name, addr := range nets {
		t.Run(name, func(t *testing.T) {
			c := echoConn(t, Auto{}, addr)
			for _, n := range []int{smallMax - 5, smallMax - 4, smallMax - 3, smallMax, 1 << 20, 17} {
				msg := batchPayload(n, n)
				if err := c.Send(msg); err != nil {
					t.Fatalf("Send %d: %v", n, err)
				}
				got, err := RecvFrame(c)
				if err != nil {
					t.Fatalf("RecvFrame %d: %v", n, err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("message of %d bytes came back changed (%d bytes)", n, len(got))
				}
				PutFrame(got)
			}
		})
	}
}

// TestSendLargeAllocatesNothing: a message above smallMax leaves through
// the connection's own prefix and vector, with no payload-sized buffer and
// no per-call slices, and a batch of them likewise.
func TestSendLargeAllocatesNothing(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if c, err := l.Accept(); err == nil {
			io.Copy(io.Discard, c) //nolint:errcheck
			c.Close()
		}
	}()
	c, err := TCPNetwork{}.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	msg := batchPayload(256<<10, 5)
	batch := [][]byte{msg, batchPayload(100, 6), msg}
	send := func() {
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		if err := SendBatch(c, batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		send() // sizes the connection's scratch
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		send()
	}
	runtime.ReadMemStats(&after)
	c.Close()
	<-drained
	// The reader on the other end of the socket shares the heap, hence a
	// bound and not zero.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
		t.Errorf("Send+SendBatch of 256 KiB messages allocated %d B per round, want < 1 KiB", per)
	}
}

// TestFramePoolKeepsSmallDropsLarge: PutFrame hands a frame of up to
// smallMax to the next GetFrame and drops a larger one.
func TestFramePoolKeepsSmallDropsLarge(t *testing.T) {
	reused := func(n int) bool {
		// GetFrame looks at one pooled buffer per call, so take out what
		// earlier tests left there. sync.Pool may also drop any single Put
		// (it does so at random under -race), so a miss is retried.
		for framePool.Get() != nil {
		}
		for try := 0; try < 100; try++ {
			f := GetFrame(n)
			PutFrame(f)
			if g := GetFrame(n); &g[0] == &f[0] {
				return true
			}
		}
		return false
	}
	if !reused(smallMax) {
		t.Errorf("a frame of smallMax bytes never came back from the pool")
	}
	if reused(smallMax + 1) {
		t.Errorf("a frame above smallMax came back from the pool")
	}
}

// TestAllocBudgetFramePool: recycling a frame costs no allocation once the
// pools are warm; the box PutFrame wraps it in comes back from GetFrame.
func TestAllocBudgetFramePool(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account, and sync.Pool drops Puts under it")
	}
	// AllocsPerRun measures on one P. Empty that P's view of the pool
	// first, so that the cycles run on the one frame put here: GetFrame
	// drops a pooled frame too small for the message rather than putting
	// it back (TestAllocBudgetSmallFrameInFront), so what an earlier test
	// left would cost the first cycles, not every cycle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for framePool.Get() != nil {
	}
	PutFrame(make([]byte, 512))
	if n := testing.AllocsPerRun(1000, func() {
		f := GetFrame(100)
		f[0] = 1
		PutFrame(f)
	}); n != 0 {
		t.Errorf("GetFrame+PutFrame: %.0f allocs per cycle, want 0", n)
	}
}

// TestAllocBudgetSmallFrameInFront: a pooled frame too small for the message
// GetFrame is asked for is dropped, and its box kept for the next PutFrame.
// Put back, it would sit in front of every larger frame on its processor:
// each GetFrame(200) would find it first and allocate, and each PutFrame
// would then find boxPool empty, 2 allocations a cycle until the next
// collection.
func TestAllocBudgetSmallFrameInFront(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account, and sync.Pool drops Puts under it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for framePool.Get() != nil {
	}
	PutFrame(make([]byte, 16))
	if n := testing.AllocsPerRun(1000, func() {
		f := GetFrame(200)
		f[0] = 1
		PutFrame(f)
	}); n != 0 {
		t.Errorf("GetFrame(200)+PutFrame behind a 16 B frame: %.0f allocs per cycle, want 0", n)
	}
}

// TestAllocBudgetConnFrames: a stream connection receives into the frame it
// was last handed back. 10,000 messages alternating 90 and 110 bytes over
// one loopback TCP pair, each received with RecvFrame and released to the
// connection, land in two frames in all, the first and the one that outgrew
// it, and a send-receive-release cycle allocates nothing. Through the
// process-wide pool the same traffic misses whenever the smaller frame sits
// in front.
func TestAllocBudgetConnFrames(t *testing.T) {
	l, err := TCPNetwork{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := TCPNetwork{}.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	msgs := [2][]byte{make([]byte, 90), make([]byte, 110)}
	frames := map[*byte]bool{}
	cycle := func(i int) {
		msg := msgs[i%2]
		msg[0] = byte(i)
		if err := client.Send(msg); err != nil {
			t.Fatal(err)
		}
		m, err := RecvFrame(server)
		if err != nil || len(m) != len(msg) || m[0] != byte(i) {
			t.Fatalf("message %d: received %d bytes, %v", i, len(m), err)
		}
		frames[&m[0]] = true
		ReleaseFrame(server, m)
	}
	for i := 0; i < 10000; i++ {
		cycle(i)
	}
	if len(frames) > 2 {
		t.Errorf("10,000 messages of 90 and 110 bytes were received into %d frames, want the first two", len(frames))
	}
	if racetest.Enabled {
		return // the race detector allocates on its own account
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() { cycle(i); i++ }); n != 0 {
		t.Errorf("send, RecvFrame, ReleaseFrame: %.0f allocs per message, want 0", n)
	}
}

// TestAllocBudgetReleasedFrameGoesToPool: a stream connection keeps one
// frame, and a frame released while it holds one as large goes to the pool.
// Two frames released in a row are what a read loop hands back when two of
// its calls held their frames until they were answered; the next GetFrame
// of their size then finds the second in the pool instead of allocating.
func TestAllocBudgetReleasedFrameGoesToPool(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account, and sync.Pool drops Puts under it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for framePool.Get() != nil {
	}
	s := &streamConn{}
	kept, other := make([]byte, 512), make([]byte, 512)
	if n := testing.AllocsPerRun(1000, func() {
		ReleaseFrame(s, kept)
		ReleaseFrame(s, other)
		other = GetFrame(512)
		kept = s.ownedFrame(512)
	}); n != 0 {
		t.Errorf("two frames released to a connection, then GetFrame: %.2f allocs per cycle, want 0", n)
	}
}
