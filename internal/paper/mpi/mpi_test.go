package mpi

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/paper/cost"
	"repro/internal/transport"
)

func newWorld(t *testing.T, size int) *World {
	t.Helper()
	w, err := NewWorld(size, transport.NewMemNetwork(), cost.Model{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// run executes body on every rank concurrently and waits, failing the test
// on the first error.
func run(t *testing.T, w *World, body func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, w.Size())
	for r := 0; r < w.Size(); r++ {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			if err := body(c); err != nil {
				errs <- fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
		}(w.Comm(r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	w := newWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		data, st, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "hello" || st.Source != 0 || st.Tag != 7 || st.Count != 5 {
			return fmt.Errorf("got %q status %+v", data, st)
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	w := newWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send out of tag order; receiver picks by tag.
			if err := c.Send(1, 2, []byte("second")); err != nil {
				return err
			}
			return c.Send(1, 1, []byte("first"))
		}
		first, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		second, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(first) != "first" || string(second) != "second" {
			return fmt.Errorf("tag matching failed: %q %q", first, second)
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	w := newWorld(t, 3)
	run(t, w, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				_, st, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				seen[st.Source] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("sources seen: %v", seen)
			}
			return nil
		default:
			return c.Send(0, c.Rank()*10, []byte{byte(c.Rank())})
		}
	})
}

func TestSelfSend(t *testing.T) {
	w := newWorld(t, 1)
	c := w.Comm(0)
	if err := c.Send(0, 3, []byte("self")); err != nil {
		t.Fatal(err)
	}
	data, st, err := c.Recv(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "self" || st.Source != 0 {
		t.Errorf("self-send got %q %+v", data, st)
	}
}

func TestPairwiseOrdering(t *testing.T) {
	w := newWorld(t, 2)
	const n = 200
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, _, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if data[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order (%d)", i, data[0])
			}
		}
		return nil
	})
}

func TestNegativeTagRejected(t *testing.T) {
	w := newWorld(t, 2)
	if err := w.Comm(0).Send(1, -5, nil); err == nil {
		t.Error("negative application tag accepted")
	}
}

func TestRankOutOfRange(t *testing.T) {
	w := newWorld(t, 2)
	if err := w.Comm(0).Send(5, 0, nil); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestIsendIrecv(t *testing.T) {
	w := newWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			req := c.Isend(1, 9, []byte("async"))
			_, _, err := req.Wait()
			return err
		}
		req := c.Irecv(0, 9)
		data, st, err := req.Wait()
		if err != nil {
			return err
		}
		if string(data) != "async" || st.Tag != 9 {
			return fmt.Errorf("got %q %+v", data, st)
		}
		if !req.Test() {
			return fmt.Errorf("Test false after Wait")
		}
		return nil
	})
}

func TestIprobe(t *testing.T) {
	w := newWorld(t, 2)
	c0, c1 := w.Comm(0), w.Comm(1)
	if c1.Iprobe(0, 4) {
		t.Error("Iprobe true before send")
	}
	if err := c0.Send(1, 4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for !c1.Iprobe(0, 4) {
		if time.Now().After(deadline) {
			t.Fatal("Iprobe never saw the message")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBarrier(t *testing.T) {
	w := newWorld(t, 4)
	var before, after sync.Map
	run(t, w, func(c *Comm) error {
		before.Store(c.Rank(), time.Now())
		if err := c.Barrier(); err != nil {
			return err
		}
		after.Store(c.Rank(), time.Now())
		return nil
	})
	// Every exit time must be >= every entry time.
	var latestEntry time.Time
	before.Range(func(_, v any) bool {
		if tv := v.(time.Time); tv.After(latestEntry) {
			latestEntry = tv
		}
		return true
	})
	after.Range(func(k, v any) bool {
		if v.(time.Time).Before(latestEntry) {
			t.Errorf("rank %v exited barrier before all ranks entered", k)
		}
		return true
	})
}

func TestBcast(t *testing.T) {
	w := newWorld(t, 4)
	run(t, w, func(c *Comm) error {
		var in []byte
		if c.Rank() == 2 {
			in = []byte("payload")
		}
		out, err := c.Bcast(2, in)
		if err != nil {
			return err
		}
		if string(out) != "payload" {
			return fmt.Errorf("bcast got %q", out)
		}
		return nil
	})
}

func TestReduceOps(t *testing.T) {
	cases := []struct {
		op   Op
		want float64
	}{
		{Sum, 0 + 1 + 2 + 3},
		{Prod, 0},
		{Max, 3},
		{Min, 0},
	}
	for _, tc := range cases {
		w := newWorld(t, 4)
		var got float64
		run(t, w, func(c *Comm) error {
			v, err := c.Reduce(0, float64(c.Rank()), tc.op)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got = v
			}
			return nil
		})
		if got != tc.want {
			t.Errorf("Reduce(op=%d) = %v, want %v", tc.op, got, tc.want)
		}
		w.Close()
	}
}

func TestAllreduce(t *testing.T) {
	w := newWorld(t, 3)
	run(t, w, func(c *Comm) error {
		v, err := c.Allreduce(float64(c.Rank()+1), Sum)
		if err != nil {
			return err
		}
		if v != 6 {
			return fmt.Errorf("allreduce = %v on rank %d", v, c.Rank())
		}
		return nil
	})
}

func TestGatherScatter(t *testing.T) {
	w := newWorld(t, 3)
	run(t, w, func(c *Comm) error {
		parts, err := c.Gather(0, []byte{byte(c.Rank() + 100)})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i, p := range parts {
				if len(p) != 1 || p[0] != byte(i+100) {
					return fmt.Errorf("gather[%d] = %v", i, p)
				}
			}
		}
		var out [][]byte
		if c.Rank() == 0 {
			out = [][]byte{{10}, {11}, {12}}
		}
		mine, err := c.Scatter(0, out)
		if err != nil {
			return err
		}
		if len(mine) != 1 || mine[0] != byte(10+c.Rank()) {
			return fmt.Errorf("scatter got %v", mine)
		}
		return nil
	})
}

func TestScatterWrongPartCount(t *testing.T) {
	w := newWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			if _, err := c.Scatter(0, [][]byte{{1}}); err == nil {
				return fmt.Errorf("scatter with wrong part count accepted")
			}
			// Unblock rank 1 with a correct scatter.
			_, err := c.Scatter(0, [][]byte{{1}, {2}})
			return err
		}
		_, err := c.Scatter(0, nil)
		return err
	})
}

func TestCollectivesRepeated(t *testing.T) {
	w := newWorld(t, 3)
	run(t, w, func(c *Comm) error {
		for round := 1; round <= 5; round++ {
			v, err := c.Allreduce(1, Sum)
			if err != nil {
				return err
			}
			if v != 3 {
				return fmt.Errorf("round %d: allreduce = %v", round, v)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestCloseUnblocksRecv(t *testing.T) {
	w, err := NewWorld(2, transport.NewMemNetwork(), cost.Model{})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := w.Comm(0).Recv(1, 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	if err := <-errc; err != ErrClosed {
		t.Errorf("Recv after close = %v, want ErrClosed", err)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	if _, err := NewWorld(0, transport.NewMemNetwork(), cost.Model{}); err == nil {
		t.Error("size 0 world accepted")
	}
}

func TestPingPongLikePaper(t *testing.T) {
	// The Fig. 8a inner loop: rank 0 sends an int array, rank 1 echoes.
	w := newWorld(t, 2)
	payload := make([]int32, 1024)
	for i := range payload {
		payload[i] = int32(i)
	}
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			var b Buffer
			b.PackInt32s(payload)
			if err := c.Send(1, 0, b.Bytes()); err != nil {
				return err
			}
			data, _, err := c.Recv(1, 0)
			if err != nil {
				return err
			}
			got, err := NewUnpackBuffer(data).UnpackInt32s()
			if err != nil {
				return err
			}
			if len(got) != len(payload) || got[1023] != 1023 {
				return fmt.Errorf("echo mismatch")
			}
			return nil
		}
		data, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		return c.Send(0, 0, data)
	})
}

func TestPackUnpackRoundtrip(t *testing.T) {
	var b Buffer
	b.PackInt32(-7)
	b.PackInt64(1 << 40)
	b.PackFloat64(math.Pi)
	b.PackString("packed")
	b.PackBytes([]byte{1, 2})
	b.PackInt32s([]int32{5, 6, 7})
	b.PackFloat64s([]float64{1.5})

	u := NewUnpackBuffer(b.Bytes())
	if v, _ := u.UnpackInt32(); v != -7 {
		t.Errorf("int32 = %d", v)
	}
	if v, _ := u.UnpackInt64(); v != 1<<40 {
		t.Errorf("int64 = %d", v)
	}
	if v, _ := u.UnpackFloat64(); v != math.Pi {
		t.Errorf("float64 = %v", v)
	}
	if v, _ := u.UnpackString(); v != "packed" {
		t.Errorf("string = %q", v)
	}
	if v, _ := u.UnpackBytes(); !bytes.Equal(v, []byte{1, 2}) {
		t.Errorf("bytes = %v", v)
	}
	if v, _ := u.UnpackInt32s(); len(v) != 3 || v[2] != 7 {
		t.Errorf("int32s = %v", v)
	}
	if v, _ := u.UnpackFloat64s(); len(v) != 1 || v[0] != 1.5 {
		t.Errorf("float64s = %v", v)
	}
	if _, err := u.UnpackInt32(); err == nil {
		t.Error("unpack past end should fail")
	}
}

func TestPackQuick(t *testing.T) {
	f := func(i32 int32, i64 int64, f64 float64, s string, bs []byte, is []int32) bool {
		if f64 != f64 {
			return true // NaN
		}
		var b Buffer
		b.PackInt32(i32)
		b.PackInt64(i64)
		b.PackFloat64(f64)
		b.PackString(s)
		b.PackBytes(bs)
		b.PackInt32s(is)
		u := NewUnpackBuffer(b.Bytes())
		g32, err := u.UnpackInt32()
		if err != nil || g32 != i32 {
			return false
		}
		g64, err := u.UnpackInt64()
		if err != nil || g64 != i64 {
			return false
		}
		gf, err := u.UnpackFloat64()
		if err != nil || gf != f64 {
			return false
		}
		gs, err := u.UnpackString()
		if err != nil || gs != s {
			return false
		}
		gb, err := u.UnpackBytes()
		if err != nil || !bytes.Equal(gb, bs) {
			return false
		}
		gi, err := u.UnpackInt32s()
		if err != nil || len(gi) != len(is) {
			return false
		}
		for i := range is {
			if gi[i] != is[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCostModelCharged(t *testing.T) {
	w, err := NewWorld(2, transport.NewMemNetwork(), cost.Model{PerMessage: 4 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Comm(1).Recv(0, 0)
	}()
	start := time.Now()
	if err := w.Comm(0).Send(1, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	<-done
	if elapsed := time.Since(start); elapsed < 7*time.Millisecond {
		t.Errorf("cost model under-charged: %v", elapsed)
	}
}
