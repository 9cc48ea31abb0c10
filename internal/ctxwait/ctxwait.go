// Package ctxwait provides the shape for abandoning a blocking drain when a
// context ends, used by the actor mailbox.
package ctxwait

import "context"

// Drain runs wait (a blocking drain with no result) and returns nil when
// it finishes, or ctx.Err() when ctx ends first — in which case wait keeps
// running in the background until its own completion.
func Drain(ctx context.Context, wait func()) error {
	if ctx == nil || ctx.Done() == nil {
		wait()
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
