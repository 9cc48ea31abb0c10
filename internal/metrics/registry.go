// Package metrics holds what the runtime measures. A Registry is one node's
// counters, each a named cell that everyone counting that event adds to:
// the runtime owns one per node (a remoting.Channel's, which its server and
// its core runtime both count into), and core.Stats is a view over it.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a cumulative count, safe for concurrent use. Hold the pointer
// Registry.Counter returns to count on a hot path without a lookup.
type Counter struct{ v atomic.Int64 }

// Add adds n to the count.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Registry is a set of counters by name. The zero value is ready to use,
// and it is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// Counter returns the counter named name, creating it at zero on first
// use: every caller naming it shares one cell.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		if r.counters == nil {
			r.counters = make(map[string]*Counter)
		}
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}
