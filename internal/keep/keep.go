// Package keep is the one store for what a call reuses: a value its owner
// (a proxy, a lane, a server connection) keeps between calls, outside the
// sync.Pool that every garbage collection empties, so that a caller who
// calls again after a collection finds it where it left it. What an owner
// does not keep overflows to a pool that every owner of the type shares.
// This is data ownership as McKenney's perfbook describes it: the common
// case touches only the owner's places, and the shared pool is the slow path.
package keep

import (
	"sync"
	"sync/atomic"
)

// Kind is what every store of T shares: the pool that takes what no store
// keeps, and the reset rule a value passes on its way back.
type Kind[T any] struct {
	pool  sync.Pool
	reset func(*T) bool
}

// NewKind returns the kind of T whose reset rule is reset: it empties a
// value that nothing uses any more, so that it pins nothing, and reports
// whether a store may keep it; a value it refuses goes to the pool. A fresh
// value is T's zero value passed through reset, so reset alone says what a
// value looks like when it is handed out.
func NewKind[T any](reset func(*T) bool) *Kind[T] {
	k := &Kind[T]{reset: reset}
	k.pool.New = func() any {
		v := new(T)
		reset(v)
		return v
	}
	return k
}

// Get returns a value from the pool.
func (k *Kind[T]) Get() *T { return k.pool.Get().(*T) }

// Put resets v and gives it to the pool, whatever reset says.
func (k *Kind[T]) Put(v *T) {
	k.reset(v)
	k.pool.Put(v)
}

// Store is what one owner keeps of a kind: two places, filled first-come,
// because a value often comes back after the next call has already taken
// the other. A collection does not empty them. The zero value is empty and
// ready; it must not be copied.
type Store[T any] [2]atomic.Pointer[T]

// Get returns a kept value, or one from k's pool when the store keeps none.
// Either goes back through Put.
func (s *Store[T]) Get(k *Kind[T]) *T {
	for i := range s {
		if s[i].Load() != nil {
			if v := s[i].Swap(nil); v != nil {
				return v
			}
		}
	}
	return k.Get()
}

// Put takes back v, which nothing reads or writes any more: reset, and kept
// while a place is free and reset allows it; pooled otherwise.
func (s *Store[T]) Put(k *Kind[T], v *T) {
	if k.reset(v) {
		for i := range s {
			if s[i].CompareAndSwap(nil, v) {
				return
			}
		}
	}
	k.pool.Put(v)
}
