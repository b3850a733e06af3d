// Package batch provides the request-coalescing primitive shared by the
// repo's gateways: the argo model-API proxy, the serve retrieval server
// and the shard router. Concurrent Do() calls are packed into batches and
// handed to a single batch function, amortising per-call overhead across a
// campaign's worth of concurrent workers.
//
// Dispatch is greedy: the dispatcher blocks for one item, then takes
// whatever else is already queued, up to MaxBatch, and runs the batch at
// once — no timer, no admission window. Items that arrive while a batch
// runs form the next batch, so batch size follows queue depth: an idle
// coalescer answers a lone call immediately, and a loaded one batches
// whatever queued while the previous batch ran.
//
// The coalescer guarantees that every accepted item is answered exactly
// once, even when Close races concurrent Do calls (see the closeMu
// commentary), which is what lets callers treat Do as an ordinary blocking
// RPC.
package batch

import (
	"context"
	"errors"
	"sync"
)

// Config parameterises a Coalescer.
type Config struct {
	// MaxBatch is the largest batch handed to the batch function
	// (default 16).
	MaxBatch int
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
}

// Stats is a snapshot of coalescer accounting.
type Stats struct {
	Items    int64 // items accepted and dispatched
	Batches  int64 // batch-function invocations
	MaxBatch int   // largest batch dispatched
}

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("batch: coalescer closed")

// errShortBatch surfaces a batch function that violated its contract.
var errShortBatch = errors.New("batch: batch function returned too few results")

// Func services one batch. It must return exactly one result per item,
// index-aligned with the input slice.
type Func[Q, R any] func(items []Q) []R

type item[Q, R any] struct {
	q    Q
	done chan result[R]
}

type result[R any] struct {
	r   R
	err error
}

// Coalescer packs concurrent Do calls into batched Func invocations.
type Coalescer[Q, R any] struct {
	cfg   Config
	run   Func[Q, R]
	queue chan item[Q, R]
	done  chan struct{}
	wg    sync.WaitGroup

	// closeMu serialises enqueue against shutdown: Do holds the read side
	// across its enqueue, so Close cannot finish draining while an item is
	// in flight into the queue (a select races its two ready cases
	// randomly, so without this an item could be enqueued after the
	// dispatcher's final drain and never be answered).
	closeMu sync.RWMutex
	closed  bool

	mu    sync.Mutex
	stats Stats
}

// New starts a coalescer around run.
func New[Q, R any](cfg Config, run Func[Q, R]) *Coalescer[Q, R] {
	cfg.fill()
	c := &Coalescer[Q, R]{
		cfg:   cfg,
		run:   run,
		queue: make(chan item[Q, R], cfg.MaxBatch*4),
		done:  make(chan struct{}),
	}
	c.wg.Add(1)
	go c.dispatchLoop()
	return c
}

// Do submits one item and blocks for its result. After Close it fails with
// ErrClosed; a cancelled context abandons the wait (the item may still be
// served as part of an already-formed batch).
func (c *Coalescer[Q, R]) Do(ctx context.Context, q Q) (R, error) {
	it := item[Q, R]{q: q, done: make(chan result[R], 1)}
	// Hold the read side across the enqueue: either we observe the closed
	// flag and refuse, or the enqueue completes before Close can run its
	// final drain — so every accepted item is always answered.
	c.closeMu.RLock()
	if c.closed {
		c.closeMu.RUnlock()
		var zero R
		return zero, ErrClosed
	}
	select {
	case c.queue <- it:
		c.closeMu.RUnlock()
	case <-ctx.Done():
		c.closeMu.RUnlock()
		var zero R
		return zero, ctx.Err()
	}
	select {
	case res := <-it.done:
		return res.r, res.err
	case <-ctx.Done():
		var zero R
		return zero, ctx.Err()
	}
}

// Close drains and stops the coalescer. Do calls after Close fail.
func (c *Coalescer[Q, R]) Close() {
	c.closeMu.Lock()
	if c.closed {
		c.closeMu.Unlock()
		return
	}
	c.closed = true
	c.closeMu.Unlock()
	close(c.done)
	c.wg.Wait()
	// Catch any item whose enqueue won the race against the dispatcher's
	// own drain.
	c.failRemaining()
}

// Stats returns a snapshot of the coalescer counters.
func (c *Coalescer[Q, R]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// dispatchLoop collects pending items into batches and services them:
// block for the first item, then drain what is already queued without
// waiting.
func (c *Coalescer[Q, R]) dispatchLoop() {
	defer c.wg.Done()
	for {
		// Block for the first item (or shutdown).
		var first item[Q, R]
		select {
		case first = <-c.queue:
		case <-c.done:
			c.failRemaining()
			return
		}
		pendings := []item[Q, R]{first}
	drain:
		for len(pendings) < c.cfg.MaxBatch {
			select {
			case it := <-c.queue:
				pendings = append(pendings, it)
			default:
				break drain
			}
		}
		c.serveBatch(pendings)
	}
}

// serveBatch invokes the batch function and delivers index-aligned
// results. A short result slice is a contract violation: the uncovered
// items fail rather than hang.
func (c *Coalescer[Q, R]) serveBatch(pendings []item[Q, R]) {
	items := make([]Q, len(pendings))
	for i, it := range pendings {
		items[i] = it.q
	}
	c.mu.Lock()
	c.stats.Items += int64(len(pendings))
	c.stats.Batches++
	if len(pendings) > c.stats.MaxBatch {
		c.stats.MaxBatch = len(pendings)
	}
	c.mu.Unlock()

	results := c.run(items)
	for i, it := range pendings {
		if i < len(results) {
			it.done <- result[R]{r: results[i]}
		} else {
			it.done <- result[R]{err: errShortBatch}
		}
	}
}

// failRemaining answers queued items with ErrClosed.
func (c *Coalescer[Q, R]) failRemaining() {
	for {
		select {
		case it := <-c.queue:
			it.done <- result[R]{err: ErrClosed}
		default:
			return
		}
	}
}
