package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// modelObj is the reference model: operations applied sequentially.
type modelObj struct {
	vals []int
}

// The property: for ANY sequence of Post("Add", v) and sync Invoke("Values")
// operations, under ANY configuration (placement, agglomeration), the observed
// value sequences equal the model's — i.e. per-object asynchronous calls
// are executed exactly once, in order, and sync calls are correctly
// ordered after them. This is the SCOOPP semantics the optimisations must
// preserve (aggregation and agglomeration are transparent).

type opSeq struct {
	ops []op
}

type op struct {
	add    bool
	value  int
	method string // the post's method, Add when empty
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
			p.Post(cmp.Or(o.method, "Add"), o.value)
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

// mixedSeq is an opSeq whose posts switch now and then between Add and
// Append, two names for one operation: the posts of one method batch, and a
// switch ends the batch.
type mixedSeq struct{ opSeq }

func (mixedSeq) Generate(r *rand.Rand, size int) reflect.Value {
	seq := opSeq{}.Generate(r, size).Interface().(opSeq)
	methods, m := [2]string{"Add", "Append"}, 0
	for i := range seq.ops {
		if r.Intn(4) == 0 {
			m = 1 - m
		}
		seq.ops[i].method = methods[m]
	}
	return reflect.ValueOf(mixedSeq{seq})
}

func TestPropertySequentialConsistencyAggregated(t *testing.T) {
	f := func(seq mixedSeq) bool {
		err := runScenario(t, seq.opSeq, func(cfg *Config) {
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

// TestPropertyAggregationConservation: for any post count, every post
// executes once, and the batch counters account for the posts that left in
// batches: at least two and at most maxBatch a batch.
func TestPropertyAggregationConservation(t *testing.T) {
	f := func(rawPosts uint8) bool {
		posts := int(rawPosts%120) + 1 // 1..120
		rts := startNodes(t, 2, func(i int, cfg *Config) {
			cfg.Placement = &forceNode{node: 1}
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
			t.Logf("posts=%d total=%v", posts, got)
			return false
		}
		st := rts[0].Stats()
		if st.CallsAggregated > int64(posts) || 2*st.BatchesSent > st.CallsAggregated || st.CallsAggregated > maxBatch*st.BatchesSent {
			t.Logf("posts=%d: %d batches carried %d posts", posts, st.BatchesSent, st.CallsAggregated)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
