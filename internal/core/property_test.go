package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// modelObj is the reference model: operations applied sequentially.
type modelObj struct {
	vals []int
}

// The property: for ANY sequence of Post("Add", v) and sync Invoke("Values")
// operations, under ANY configuration (placement, aggregation), the observed
// value sequences equal the model's — i.e. per-object asynchronous calls
// are executed exactly once, in order, and sync calls are correctly
// ordered after them. This is the SCOOPP semantics the optimisations must
// preserve (aggregation and agglomeration are transparent).

type opSeq struct {
	ops []op
}

type op struct {
	add   bool
	value int
}

// Generate implements quick.Generator: sequences of 1-40 mixed operations.
func (opSeq) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(40)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{add: r.Intn(4) != 0, value: r.Intn(1000)}
	}
	return reflect.ValueOf(opSeq{ops: ops})
}

// runScenario executes the op sequence against a fresh cluster config and
// compares every sync observation with the model.
func runScenario(t *testing.T, seq opSeq, mutate func(cfg *Config)) error {
	t.Helper()
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		if mutate != nil {
			mutate(cfg)
		}
	})
	p, err := rts[0].NewParallelObject("counter")
	if err != nil {
		return err
	}
	model := modelObj{}
	for i, o := range seq.ops {
		if o.add {
			p.Post("Add", o.value)
			model.vals = append(model.vals, o.value)
			continue
		}
		res, err := p.Invoke("Values")
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		got, err := asIntSlice(res)
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if len(got) != len(model.vals) {
			return fmt.Errorf("op %d: observed %d values, model has %d", i, len(got), len(model.vals))
		}
		for j := range got {
			if got[j] != model.vals[j] {
				return fmt.Errorf("op %d: value %d = %d, model %d", i, j, got[j], model.vals[j])
			}
		}
	}
	p.Wait()
	if err := p.AsyncErr(); err != nil {
		return err
	}
	return nil
}

func TestPropertySequentialConsistencyRemote(t *testing.T) {
	f := func(seq opSeq) bool {
		err := runScenario(t, seq, func(cfg *Config) {
			cfg.Placement = &forceNode{node: 1}
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPropertySequentialConsistencyAggregated(t *testing.T) {
	f := func(seq opSeq) bool {
		err := runScenario(t, seq, func(cfg *Config) {
			cfg.Placement = &forceNode{node: 1}
			cfg.Aggregation = AggregationConfig{MaxCalls: 5}
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPropertySequentialConsistencyAgglomerated(t *testing.T) {
	f := func(seq opSeq) bool {
		err := runScenario(t, seq, func(cfg *Config) {
			cfg.Agglomeration = AlwaysAgglomerate{}
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPropertySequentialConsistencyLocal(t *testing.T) {
	f := func(seq opSeq) bool {
		err := runScenario(t, seq, func(cfg *Config) {
			cfg.Placement = LocalOnly{}
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAggregationConservation: for any MaxCalls and any post count,
// batches × sizes account for every call (none lost, none duplicated).
func TestPropertyAggregationConservation(t *testing.T) {
	f := func(rawMax uint8, rawPosts uint8) bool {
		maxCalls := int(rawMax%16) + 2 // 2..17
		posts := int(rawPosts%120) + 1 // 1..120
		rts := startNodes(t, 2, func(i int, cfg *Config) {
			cfg.Placement = &forceNode{node: 1}
			cfg.Aggregation = AggregationConfig{MaxCalls: maxCalls}
		})
		p, err := rts[0].NewParallelObject("counter")
		if err != nil {
			t.Log(err)
			return false
		}
		for i := 0; i < posts; i++ {
			p.Post("Add", 1)
		}
		p.Wait()
		got, err := p.Invoke("Total")
		if err != nil {
			t.Log(err)
			return false
		}
		if got != posts {
			t.Logf("maxCalls=%d posts=%d total=%v", maxCalls, posts, got)
			return false
		}
		st := rts[0].Stats()
		wantBatches := int64(posts+maxCalls-1) / int64(maxCalls)
		// A sync barrier flushes a partial batch, so the batch count is
		// exactly ceil(posts/maxCalls).
		if st.BatchesSent != wantBatches {
			t.Logf("batches=%d want %d", st.BatchesSent, wantBatches)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAggregationTimerDelivers: every buffered call is eventually
// delivered by the MaxDelay timer even when the buffer never fills.
func TestPropertyAggregationTimerDelivers(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
		cfg.Aggregation = AggregationConfig{MaxCalls: 1000, MaxDelay: 10 * time.Millisecond}
	})
	p, err := rts[0].NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Post("Add", 1)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		// Bypass the flush-on-sync path to observe the timer.
		res, err := p.endpoint().InvokeNestedCtx(context.Background(), nil, "Invoke1", "Total", nil)
		if err != nil {
			t.Fatal(err)
		}
		if res == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timer never flushed: total = %v", res)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
