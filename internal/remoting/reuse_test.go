package remoting

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/racetest"
)

// heldEcho echoes its argument once the round's gate opens, so a test can
// hold a lane full of calls in flight.
type heldEcho struct {
	started atomic.Int64
	mu      sync.Mutex
	gate    chan struct{}
}

func (h *heldEcho) Echo(v int) int {
	h.mu.Lock()
	gate := h.gate
	h.mu.Unlock()
	h.started.Add(1)
	<-gate
	return v
}

// Now echoes at once.
func (h *heldEcho) Now(v int) int { return v }

func init() {
	dispatch.RegisterInvokers(&heldEcho{}, map[string]dispatch.Invoker{
		"Now": func(_ context.Context, obj any, args []any) (any, error) {
			v, err := dispatch.Arg[int](obj, "Now", args, 0)
			if err != nil {
				return nil, err
			}
			return obj.(*heldEcho).Now(v), nil
		},
	})
}

// TestWaiterReuseIsSafe: 64 callers share one lane, a third of them give
// up while their call is in flight, and the server then answers every
// call, abandoned ones included. No surviving caller may receive anything
// but its own echo, in this round or a later one: a waiter whose late reply
// is still on its way must never have gone back to the pool.
func TestWaiterReuseIsSafe(t *testing.T) {
	ch, srv, _ := newMuxServer(t)
	ch.MuxLanes = 1
	h := &heldEcho{}
	srv.Marshal("h", h)
	ref, _ := GetObject(ch, srv.URLFor("h"))

	const callers = 64
	for round := 0; round < 8; round++ {
		gate := make(chan struct{})
		h.mu.Lock()
		h.gate = gate
		h.mu.Unlock()
		h.started.Store(0)

		var wg sync.WaitGroup
		var cancels []context.CancelFunc
		for i := 0; i < callers; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			doomed := i%3 == 0
			if doomed {
				cancels = append(cancels, cancel)
			}
			want := round*callers + i
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := ref.InvokeCtx(ctx, "Echo", want)
				switch {
				case doomed && errors.Is(err, context.Canceled):
				case err != nil:
					t.Errorf("round %d caller %d: %v", round, want, err)
				case v != want:
					t.Errorf("round %d: caller %d received %v", round, want, v)
				}
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for h.started.Load() < callers {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d calls reached the server", round, h.started.Load(), callers)
			}
			time.Sleep(time.Millisecond)
		}
		for _, cancel := range cancels {
			cancel()
		}
		close(gate)
		wg.Wait()
	}
}

// TestAllocBudgetBoundCall holds a bound remoting call on an in-process
// transport, both ends counted, to its budget.
func TestAllocBudgetBoundCall(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	ch, srv, _ := newMuxServer(t)
	h := &heldEcho{}
	srv.Marshal("h", h)
	ref, _ := GetObject(ch, srv.URLFor("h"))
	ctx := context.Background()
	args := []any{7}
	call := func() {
		if v, err := ref.InvokeCtx(ctx, "Now", args...); err != nil || v != 7 {
			t.Fatalf("Now = %v, %v", v, err)
		}
	}
	for i := 0; i < 4; i++ {
		call() // declare and confirm the handle, warm the pools
	}
	if n := testing.AllocsPerRun(500, call); n > 5 {
		t.Errorf("bound call: %.0f allocs, budget 5", n)
	} else {
		t.Logf("bound call: %.0f allocs", n)
	}
}
