package parc_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/parc"
)

// member is the skeleton-test workload class. Setup gives each group member
// an identity, so a result says which member computed it.
type member struct {
	id, failOn, calls int
}

// Setup names the member and the Step input it rejects (0: none).
func (m *member) Setup(id, failOn int) { m.id, m.failOn = id, failOn }

// Tag returns x marked with the member's identity.
func (m *member) Tag(x int) int { return m.id*1000 + x }

// Work returns the member's identity, or, given a tag, sleeps millis and
// fails with it.
func (m *member) Work(millis int, tag string) (int, error) {
	if tag == "" {
		return m.id, nil
	}
	time.Sleep(time.Duration(millis) * time.Millisecond)
	return 0, errors.New(tag)
}

// Step is a pipeline stage: it appends the member's identity as a decimal
// digit, or rejects the input it was set up to.
func (m *member) Step(v int) (int, error) {
	m.calls++
	if v == m.failOn {
		return 0, fmt.Errorf("stage %d rejects %d", m.id, v)
	}
	return v*10 + m.id, nil
}

// Calls returns how many Step calls reached the member.
func (m *member) Calls() int { return m.calls }

// startMembers boots a 3-node cluster and a group of n members with
// identities 1..n; failOn[id] is the Step input member id rejects.
func startMembers(t *testing.T, n int, failOn map[int]int) *parc.Group[member] {
	t.Helper()
	cl, err := parc.StartCluster(parc.WithNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	parc.Register[member](cl, "member")
	g, err := parc.NewGroup[member](cl, "member", n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := g.Object(i).Invoke(context.Background(), "Setup", i+1, failOn[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestScatterGatherMemberOrder: member i receives argsFor(i), and Gather
// returns the results in member order.
func TestScatterGatherMemberOrder(t *testing.T) {
	ctx := context.Background()
	g := startMembers(t, 6, nil)
	rs := parc.Scatter[int](ctx, g, "Tag", func(i int) []any { return []any{i * 7} })
	vals, err := parc.Gather(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != g.Size() {
		t.Fatalf("gathered %d values from %d members", len(vals), g.Size())
	}
	for i, v := range vals {
		if want := (i+1)*1000 + i*7; v != want {
			t.Errorf("slot %d = %d, want %d (member %d given %d)", i, v, want, i+1, i*7)
		}
	}
}

// TestMapReduceFoldsInMemberOrder folds with a combine that is neither
// commutative nor associative; only the left-to-right member order gives
// the expected digits.
func TestMapReduceFoldsInMemberOrder(t *testing.T) {
	ctx := context.Background()
	g := startMembers(t, 5, nil)
	got, err := parc.MapReduce(ctx, g, "Work",
		func(int) []any { return []any{0, ""} },
		"fold:", func(acc string, id int) string { return fmt.Sprintf("%s%d", acc, id) })
	if err != nil {
		t.Fatal(err)
	}
	if got != "fold:12345" {
		t.Errorf("MapReduce = %q, want %q", got, "fold:12345")
	}
}

// TestGatherJoinsErrorsInInputOrder fails two members, the earlier one
// later in time: the joined error lists them in member order, not in
// completion order, and no values come back.
func TestGatherJoinsErrorsInInputOrder(t *testing.T) {
	ctx := context.Background()
	g := startMembers(t, 5, nil)
	rs := parc.Scatter[int](ctx, g, "Work", func(i int) []any {
		switch i {
		case 1:
			return []any{60, "member two failed"}
		case 3:
			return []any{0, "member four failed"}
		}
		return []any{0, ""}
	})
	vals, err := parc.Gather(ctx, rs)
	if err == nil {
		t.Fatalf("Gather = %v, nil; want the joined errors", vals)
	}
	if vals != nil {
		t.Errorf("Gather returned values %v beside an error", vals)
	}
	two := strings.Index(err.Error(), "member two failed")
	four := strings.Index(err.Error(), "member four failed")
	if two < 0 || four < 0 || two > four {
		t.Errorf("joined error does not list both failures in member order: %q", err)
	}
}

// TestPipelineKeepsItemOrder streams items through 3 stages: every item
// visits the stages in order, and the futures come back in item order.
func TestPipelineKeepsItemOrder(t *testing.T) {
	ctx := context.Background()
	g := startMembers(t, 3, nil)
	items := make([]any, 20)
	for k := range items {
		items[k] = k + 1
	}
	for k, r := range parc.Pipeline[int](ctx, g, "Step", items) {
		v, err := r.Get(ctx)
		if want := (k+1)*1000 + 123; err != nil || v != want {
			t.Errorf("item %d = %d, %v; want %d", k+1, v, err, want)
		}
	}
}

// TestPipelineErrorShortCircuits rejects one item at stage 2: its future
// carries that error, stage 3 never sees it, and the other items finish.
func TestPipelineErrorShortCircuits(t *testing.T) {
	ctx := context.Background()
	g := startMembers(t, 3, map[int]int{2: 21}) // item 2 is 21 after stage 1
	out := parc.Pipeline[int](ctx, g, "Step", []any{1, 2, 3})
	for k, r := range out {
		v, err := r.Get(ctx)
		if k == 1 {
			if err == nil || !strings.Contains(err.Error(), "stage 2 rejects 21") {
				t.Errorf("item 2 = %d, %v; want stage 2's rejection", v, err)
			}
			continue
		}
		if want := (k+1)*1000 + 123; err != nil || v != want {
			t.Errorf("item %d = %d, %v; want %d", k+1, v, err, want)
		}
	}
	for i, want := range []int{3, 3, 2} {
		calls, err := parc.Call[int](ctx, g.Object(i), "Calls")
		if err != nil {
			t.Fatal(err)
		}
		if calls != want {
			t.Errorf("stage %d saw %d items, want %d", i+1, calls, want)
		}
	}
}

// TestSkeletonsOverEmptyGroup pins what each skeleton answers for a group
// with no members: Gather an empty slice, MapReduce its zero, and Pipeline,
// which has no stage to run an item through, an error per item. That error
// is ErrWhenAnyEmpty, a name borrowed from WhenAny.
func TestSkeletonsOverEmptyGroup(t *testing.T) {
	ctx := context.Background()
	g := parc.GroupOf[member]()
	noArgs := func(int) []any { return nil }
	if vals, err := parc.Gather(ctx, parc.Scatter[int](ctx, g, "Tag", noArgs)); err != nil || len(vals) != 0 {
		t.Errorf("Gather over no members = %v, %v; want empty, nil", vals, err)
	}
	sum, err := parc.MapReduce(ctx, g, "Tag", noArgs, 7, func(acc, v int) int { return acc + v })
	if err != nil || sum != 7 {
		t.Errorf("MapReduce over no members = %d, %v; want its zero 7, nil", sum, err)
	}
	out := parc.Pipeline[int](ctx, g, "Step", []any{1, 2})
	if len(out) != 2 {
		t.Fatalf("Pipeline returned %d futures for 2 items", len(out))
	}
	for k, r := range out {
		if _, err := r.Get(ctx); !errors.Is(err, parc.ErrWhenAnyEmpty) {
			t.Errorf("item %d err = %v, want ErrWhenAnyEmpty", k+1, err)
		}
	}
}
