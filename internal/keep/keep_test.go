package keep

import (
	"sync"
	"sync/atomic"
	"testing"
)

// box is the test's value: reset empties n and counts itself, and refuses
// to let a store keep a box marked big.
type box struct {
	n      int
	resets int
	big    bool
	held   atomic.Bool
}

func newKind() *Kind[box] {
	return NewKind(func(b *box) bool {
		b.n = 0
		b.resets++
		return !b.big
	})
}

// pooled reports whether v reaches k's pool after put: it draws from the
// pool until v comes back. A pool may drop what it is given (it does so at
// random under the race detector), so put runs again before each try.
func pooled(k *Kind[box], v *box, put func()) bool {
	for range 100 {
		put()
		if k.Get() == v {
			return true
		}
	}
	return false
}

// TestStoreKeepsTwoFirstCome: the first two values given back fill the two
// places, in that order, reset; Get hands them out before anything pooled.
// A third overflows to the pool.
func TestStoreKeepsTwoFirstCome(t *testing.T) {
	k := newKind()
	var s Store[box]
	a, b, c := s.Get(k), s.Get(k), s.Get(k)
	if a == b || b == c || a == c {
		t.Fatal("an empty store handed out one value twice")
	}
	if a.resets != 1 {
		t.Errorf("a fresh value was reset %d times, want once", a.resets)
	}
	a.n, b.n = 1, 2
	s.Put(k, a)
	s.Put(k, b)
	if s[0].Load() != a || s[1].Load() != b {
		t.Fatal("the first two values given back were not the ones kept, in order")
	}
	if a.n != 0 || b.n != 0 || a.resets != 2 {
		t.Errorf("kept values not reset: n %d and %d, resets %d", a.n, b.n, a.resets)
	}
	if !pooled(k, c, func() { s.Put(k, c) }) {
		t.Error("a value given back to a full store never reached the pool")
	}
	if s[0].Load() != a || s[1].Load() != b {
		t.Error("overflow displaced a kept value")
	}
	if got := s.Get(k); got != a {
		t.Errorf("Get returned %p, want the first kept %p", got, a)
	}
	if got := s.Get(k); got != b {
		t.Errorf("Get returned %p, want the second kept %p", got, b)
	}
	if s[0].Load() != nil || s[1].Load() != nil {
		t.Error("values handed out are still kept")
	}
}

// TestStoreRefusedGoesToPool: a value its reset refuses is not kept, even
// with both places free, and goes to the pool instead.
func TestStoreRefusedGoesToPool(t *testing.T) {
	k := newKind()
	var s Store[box]
	v := s.Get(k)
	v.big = true
	if !pooled(k, v, func() { s.Put(k, v) }) {
		t.Error("a refused value never reached the pool")
	}
	if s[0].Load() != nil || s[1].Load() != nil {
		t.Error("the store kept a value its reset refused")
	}
}

// TestStoreNeverSharesAValue: goroutines drawing from one store and giving
// back never hold one value at the same time. Run it under the race
// detector, which also reports the plain writes to n if two holders meet.
func TestStoreNeverSharesAValue(t *testing.T) {
	k := newKind()
	var s Store[box]
	var wg sync.WaitGroup
	var shared atomic.Int64
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				v := s.Get(k)
				if !v.held.CompareAndSwap(false, true) {
					shared.Add(1)
					continue
				}
				v.n = g*10000 + i
				if v.n != g*10000+i {
					shared.Add(1)
				}
				v.held.Store(false)
				s.Put(k, v)
			}
		}()
	}
	wg.Wait()
	if n := shared.Load(); n != 0 {
		t.Errorf("%d draws found their value held by another goroutine", n)
	}
}
