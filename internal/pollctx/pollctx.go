// Package pollctx provides a context that expires at a chosen poll instead
// of at a chosen time: tests use it to reach a search's deadline path
// deterministically, on any machine, without racing the clock.
package pollctx

import (
	"context"
	"sync"
	"sync/atomic"
)

// Context is a live context whose Err returns a fixed error from its
// limit-th call on, and nil before. Done closes at that call, so contexts
// derived from it expire with it. The poll count is atomic: walkers on
// several goroutines may poll one Context.
type Context struct {
	context.Context
	limit int64
	err   error
	polls atomic.Int64
	done  chan struct{}
	once  sync.Once
}

// New returns a Context whose Err returns err from its limit-th call on.
func New(limit int, err error) *Context {
	return &Context{Context: context.Background(), limit: int64(limit), err: err, done: make(chan struct{})}
}

// Err counts the poll and reports the expiry once the limit is reached.
func (c *Context) Err() error {
	if c.polls.Add(1) < c.limit {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return c.err
}

// Done closes when Err first reports the expiry.
func (c *Context) Done() <-chan struct{} { return c.done }

// Polls returns how many times Err has been called.
func (c *Context) Polls() int { return int(c.polls.Load()) }
