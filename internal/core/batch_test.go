package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/remoting"
	"repro/internal/wire"
)

// tokenLog is an orderLog that also notes the idempotency token of the
// frame each call came in (the calls of one batch share their frame's), and
// fails a call whose value is negative.
type tokenLog struct {
	orderLog
	perToken map[remoting.CallToken]int
}

func (l *tokenLog) Tagged(ctx context.Context, v int) error {
	tok, _ := remoting.TokenFromContext(ctx)
	l.mu.Lock()
	l.seen = append(l.seen, v)
	l.perToken[tok]++
	l.mu.Unlock()
	if v < 0 {
		return fmt.Errorf("tokenLog: %d", v)
	}
	return nil
}

// Down is Tagged failing with ErrNodeDown, as a call whose own nested call
// found its peer down does.
func (l *tokenLog) Down(ctx context.Context, v int) error {
	if err := l.Tagged(ctx, v); err != nil {
		return fmt.Errorf("%w: %w", err, errs.ErrNodeDown)
	}
	return nil
}

// heldTokenLog places one tokenLog on node 1, with node 0 stamping a token
// on every call, and posts Hold(1) through node 0's proxy: until l.open,
// every post after it queues behind it.
func heldTokenLog(t *testing.T) (*Proxy, *tokenLog, []*Runtime) {
	t.Helper()
	l := &tokenLog{
		orderLog: orderLog{entered: make(chan struct{}, 4), release: make(chan struct{})},
		perToken: map[remoting.CallToken]int{},
	}
	t.Cleanup(l.open)
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
		cfg.IdempotentCalls = true
	})
	for _, rt := range rts {
		rt.RegisterClass("batchlog", func() any { return l })
	}
	p, err := rts[0].NewParallelObject("batchlog")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Fatal("want a remote object")
	}
	p.Post("Hold", 1)
	select {
	case <-l.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Hold never started running")
	}
	return p, l, rts
}

// TestPostsBatchInIssueOrderUnderTheCap: 100,000 posts queued behind a held
// object all execute, in issue order, in batches of maxBatch, none larger.
func TestPostsBatchInIssueOrderUnderTheCap(t *testing.T) {
	const n = 100_000
	p, l, rts := heldTokenLog(t)
	for i := 0; i < n; i++ {
		p.Post("Tagged", 2+i)
	}
	l.open()
	p.Wait()
	if err := p.AsyncErr(); err != nil {
		t.Fatal(err)
	}
	seen := l.order()
	if len(seen) != n+1 {
		t.Fatalf("%d calls executed, want %d", len(seen), n+1)
	}
	for i, v := range seen {
		if v != 1+i {
			t.Fatalf("execution %d was post %d: issue order violated", i, v)
		}
	}
	for tok, calls := range l.perToken {
		if calls > maxBatch {
			t.Errorf("the frame with token %v carried %d posts, over the cap of %d", tok, calls, maxBatch)
		}
	}
	if st := rts[0].Stats(); st.BatchesSent != n/maxBatch || st.CallsAggregated != n {
		t.Errorf("%d batches carried %d posts, want %d carrying %d", st.BatchesSent, st.CallsAggregated, n/maxBatch, n)
	}
}

// TestLonePostRunsWithoutWait: a post with nothing in flight leaves at once;
// nothing (a Wait, a blocking call, more posts) has to follow it.
func TestLonePostRunsWithoutWait(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	p, err := rts[0].NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	p.Post("Add", 5)
	deadline := time.Now().Add(2 * time.Second)
	for {
		// Straight at the endpoint, outside the proxy's call order.
		got, err := p.endpoint().InvokeNestedCtx(context.Background(), "Invoke1", "Total", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got == 5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the post has not run after 2 s: Total = %v", got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchMemberErrorSkipsNone: posts that fail inside a batch skip none of
// the posts after them, and the first failure reaches AsyncErr.
func TestBatchMemberErrorSkipsNone(t *testing.T) {
	p, l, rts := heldTokenLog(t)
	vals := []int{2, -3, 4, -5, 6}
	for _, v := range vals {
		p.Post("Tagged", v)
	}
	l.open()
	p.Wait()
	if got, want := l.order(), append([]int{1}, vals...); !slices.Equal(got, want) {
		t.Errorf("executed %v, want %v", got, want)
	}
	if err := p.AsyncErr(); err == nil || !strings.Contains(err.Error(), "tokenLog: -3") {
		t.Errorf("AsyncErr = %v, want the first failure, tokenLog: -3", err)
	}
	if st := rts[0].Stats(); st.BatchesSent != 1 || st.CallsAggregated != int64(len(vals)) {
		t.Errorf("%d batches carried %d posts, want 1 carrying %d", st.BatchesSent, st.CallsAggregated, len(vals))
	}
}

// TestBatchMemberNodeDownRunsOthersOnce: a post of a batch that fails with
// ErrNodeDown is its own failure, not a refusal of the batch: the batch is
// not re-run, so every other post runs exactly once, and the failure still
// reaches AsyncErr.
func TestBatchMemberNodeDownRunsOthersOnce(t *testing.T) {
	p, l, _ := heldTokenLog(t)
	vals := []int{2, -3, 4}
	for _, v := range vals {
		p.Post("Down", v)
	}
	l.open()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.WaitCtx(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got, want := l.order(), append([]int{1}, vals...); !slices.Equal(got, want) {
		t.Errorf("executed %v, want %v", got, want)
	}
	if err := p.AsyncErr(); err == nil || !strings.Contains(err.Error(), "tokenLog: -3") {
		t.Errorf("AsyncErr = %v, want the failure of post -3", err)
	}
}

// TestMethodNodeDownRunsOnce: a lone call whose own method fails with
// ErrNodeDown ran, so neither a post nor a blocking call runs it again; with
// a token the failure is recorded, and the error still reaches its caller.
func TestMethodNodeDownRunsOnce(t *testing.T) {
	p, l, _ := heldTokenLog(t)
	l.open()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.WaitCtx(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	p.Post("Down", -3)
	if err := p.WaitCtx(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := p.AsyncErr(); err == nil || !strings.Contains(err.Error(), "tokenLog: -3") {
		t.Errorf("AsyncErr = %v, want the failure of post -3", err)
	}
	if _, err := p.InvokeCtx(ctx, "Down", -5); err == nil || !strings.Contains(err.Error(), "tokenLog: -5") {
		t.Errorf("Invoke = %v, want the failure of call -5", err)
	}
	if got, want := l.order(), []int{1, -3, -5}; !slices.Equal(got, want) {
		t.Errorf("executed %v, want %v", got, want)
	}
}

// vfailObj is a replicated virtual class whose Append fails on a negative
// value.
type vfailObj struct{ Vals []int64 }

func (o *vfailObj) Append(v int64) error {
	if v < 0 {
		return fmt.Errorf("vfail: %d", v)
	}
	o.Vals = append(o.Vals, v)
	return nil
}

func (o *vfailObj) Len() int { return len(o.Vals) }

// TestBatchMemberErrorStillReplicates is SPEC guarantee 3 for a batch with a
// failing post: the posts that ran change the object, so their effects reach
// the replica before the batch's reply, as a successful batch's do.
func TestBatchMemberErrorStillReplicates(t *testing.T) {
	rts := startNodes(t, 3, nil)
	for _, rt := range rts {
		rt.RegisterVirtualClass("vfail", func() any { return &vfailObj{} }, VirtualConfig{Replicas: 1})
	}
	owner, _ := rts[0].VirtualOwner("vfail", "b")
	p, err := rts[(owner+1)%len(rts)].VirtualObject("vfail", "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Len"); err != nil {
		t.Fatal(err)
	}
	lists := []any{[]any{int64(1)}, []any{int64(-2)}, []any{int64(3)}}
	if _, err := p.endpoint().InvokeNestedCtx(context.Background(), "InvokeBatch", "Append", lists); err == nil || !strings.Contains(err.Error(), "vfail: -2") {
		t.Fatalf("batch returned %v, want the failure of its second post", err)
	}
	uri := virtualURI("vfail", "b")
	var replicas int
	for _, rt := range rts {
		rt.replMu.Lock()
		st := rt.replicas[uri]
		rt.replMu.Unlock()
		if st == nil {
			continue
		}
		replicas++
		v, err := wire.BinFmt{}.Unmarshal(st.state)
		if err != nil {
			t.Fatal(err)
		}
		if o, ok := v.(*vfailObj); !ok || !slices.Equal(o.Vals, []int64{1, 3}) || st.seq != 4 {
			t.Errorf("replica on node %d holds %#v at seq %d, want the posts 1 and 3 at seq 4", rt.cfg.NodeID, v, st.seq)
		}
	}
	if replicas != 1 {
		t.Errorf("%d replicas, want 1", replicas)
	}
}

// TestBatchWithTokenExecutesOnce is SPEC guarantee 2 for a batch of posts:
// a batch sent again with its token (a re-run after its reply was lost) is
// answered from the record, and its posts execute once.
func TestBatchWithTokenExecutesOnce(t *testing.T) {
	c := &counterObj{}
	w := startNodes(t, 1, nil)[0].wrap("counter", c, "")
	ctx := remoting.ContextWithToken(context.Background(), remoting.CallToken{Client: 1, Seq: 1})
	for i := 0; i < 2; i++ {
		if n, err := w.InvokeBatch(ctx, "Add", []any{[]any{1}, []any{2}}); n != 2 || err != nil {
			t.Fatalf("attempt %d: %d, %v; want 2, nil", i+1, n, err)
		}
	}
	if got := c.Total(); got != 3 {
		t.Errorf("Total = %d after the batch was sent twice, want 3", got)
	}
}

// batchArg is a struct argument whose type name a batch spells once and
// refers back to.
type batchArg struct {
	S string
	N int
}

func init() { wire.Register(batchArg{}) }

// TestCoalesceBatchesPostsOfOneMethod: a queued post's turn takes the posts
// of its method queued right behind it, up to maxBatch, and the batch they
// leave in encodes to the bytes of the same argument lists boxed one by one
// into an InvokeBatch list. A post of another method or a call with a
// future ends the batch.
func TestCoalesceBatchesPostsOfOneMethod(t *testing.T) {
	p := &Proxy{rt: startNodes(t, 1, nil)[0]}
	var o callOrder
	queue := func(method string, args []any, withFuture bool) *attempt {
		var fut *Future // a post's
		if withFuture {
			fut = new(Future)
		}
		a := p.draw(fut, nil)
		a.rec.SetCall(context.Background(), "Invoke1", method, args)
		if o.tail == nil {
			o.queue = a
		} else {
			o.tail.next = a
		}
		o.tail = a
		return a
	}
	// turn takes the next call off the queue, as next does, and reports the
	// runtime call and arguments it leaves with.
	turn := func() (string, []any) {
		o.mu.Lock()
		a := o.take()
		o.mu.Unlock()
		_, call, _, args := a.rec.Call()
		return call, args
	}
	var boxed []any
	for i := 0; i < maxBatch+1; i++ {
		args := []any{i, fmt.Sprint(i), batchArg{S: "s", N: i}, &batchArg{N: -i}, []byte{byte(i)}, nil, []any{i, "x"}}
		boxed = append(boxed, args)
		queue("Add", args, false)
	}
	queue("Sub", []any{1}, false)
	queue("Sub", []any{2}, true)
	queue("Sub", []any{3}, false)

	call, args := turn()
	if call != "InvokeBatch" || len(args) != maxBatch {
		t.Fatalf("first turn: %s of %d, want InvokeBatch of %d", call, len(args), maxBatch)
	}
	encode := func(l []any) []byte {
		e := wire.NewEncoder()
		defer e.Release()
		e.AnySlice(l)
		if e.Err() != nil {
			t.Fatal(e.Err())
		}
		return bytes.Clone(e.Bytes())
	}
	if got, want := encode(args), encode(boxed[:maxBatch]); !bytes.Equal(got, want) {
		t.Errorf("the batch encodes to\n%x\nthe boxed lists to\n%x", got, want)
	}
	// The last Add, then each Sub: the one with a future neither joins the
	// post before it nor takes the one after it.
	for i, n := range []int{len(boxed[maxBatch].([]any)), 1, 1, 1} {
		if call, args := turn(); call != "Invoke1" || len(args) != n {
			t.Errorf("turn %d: %s of %d arguments, want Invoke1 of %d", 2+i, call, len(args), n)
		}
	}
	if o.queue != nil || o.tail != nil {
		t.Error("calls left in the queue")
	}
	if st := p.rt.Stats(); st.BatchesSent != 1 || st.CallsAggregated != maxBatch {
		t.Errorf("%d batches carried %d posts, want 1 carrying %d", st.BatchesSent, st.CallsAggregated, maxBatch)
	}
}
