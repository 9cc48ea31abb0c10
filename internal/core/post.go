package core

// This file holds a proxy's posts, calls with no result.

import (
	"context"

	"repro/internal/errs"
)

// Post performs an asynchronous method call with no result (the paper's
// "asynchronous (when no value is returned)" calls). Posts to one proxy
// execute in order; on a remote proxy, the posts queued behind the one in
// flight leave together, as one batch (method-call aggregation).
func (p *Proxy) Post(method string, args ...any) {
	p.PostCtx(context.Background(), method, args...) //nolint:errcheck // errors flow to AsyncErr
}

// PostCtx is Post bounded by ctx. It returns an error only for immediate
// local failures (context already done, object destroyed); execution errors
// still flow to AsyncErr, preserving fire-and-forget semantics. For local
// active objects a queued call whose ctx ends before execution is skipped.
func (p *Proxy) PostCtx(ctx context.Context, method string, args ...any) error {
	p.rt.asyncCalls.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		p.noteAsyncError(err)
		return err
	}
	switch mode, act := p.state(); mode {
	case modeAgglomerated:
		// Agglomeration turned this object passive: the "async" call
		// executes synchronously and serially, which is precisely the
		// parallelism-removal optimisation.
		if _, err := p.invokeInCaller(ctx, method, args); err != nil {
			p.noteAsyncError(err)
		}
		return nil
	case modeLocalActive:
		// Execution failures (which may legitimately wrap a MovedError
		// from some other object) go straight to AsyncErr from the actor
		// loop; an enqueue-time forward is only returned, and is a routing
		// event, not a failure — re-post remotely.
		err := act.enqueue(actorTask{ctx: ctx, method: method, args: args, to: (*postErrors)(p)})
		if mv, ok := movedOf(err, p.uri); ok {
			return p.follow(mv, method, args)
		}
		if err != nil {
			p.noteAsyncError(err)
		}
		return err
	default:
		return p.postRemote(method, args)
	}
}

// follow re-posts a local post whose object moved before running it, at the
// forward's location.
func (p *Proxy) follow(mv *errs.MovedError, method string, args []any) error {
	p.redirectMoved(mv)
	return p.postRemote(method, args)
}

// postErrors is the proxy as what a mailbox tells the outcome of its local
// posts: a failure goes to AsyncErr. A forward does not come here: the
// mailbox posts the task again (actorTask.refuse).
type postErrors Proxy

func (p *postErrors) Complete(_ any, err error) {
	if err != nil {
		(*Proxy)(p).noteAsyncError(err)
	}
}

// postRemote issues one post in the proxy's call order as an attempt with
// no future, drawn from the proxy's store: the order holds the attempt, and
// the call is sent in the runtime-call shape, so no list is built around its
// arguments, and a post allocates nothing of the runtime's own. A post is
// never sent straight: it starts alone when nothing is in flight, and
// otherwise waits its turn, which the posts of its method queued right
// behind it share (callOrder.next).
func (p *Proxy) postRemote(method string, args []any) error {
	a := p.draw(nil, nil)
	a.rec.SetCall(context.Background(), "Invoke1", method, args)
	a.submitRemote()
	return nil
}
