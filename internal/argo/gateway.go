// Package argo implements the batched model-API gateway standing in for the
// Argo-Proxy service the paper routes GPT-4.1 calls through ("chunks are fed
// to GPT-4.1 in batches through the Argo-Proxy API").
//
// The gateway provides the orchestration semantics an HPC generation
// campaign needs from a model endpoint:
//
//   - request coalescing: concurrent Call()s are packed into batches of up
//     to MaxBatch — provided by the shared internal/batch coalescer, which
//     the serve retrieval server and the router reuse. A call on an idle
//     gateway is dispatched at once; calls that arrive while a batch is
//     in the handler form the next batch;
//   - token-bucket rate limiting across batches;
//   - bounded retries with exponential backoff and deterministic jitter for
//     transient failures (the schedule is the shared internal/retry.Policy,
//     which the router's shard fan-out reuses), aborted immediately when
//     the gateway closes;
//   - an optional net/http JSON transport (server.go) so the same handler
//     can sit behind a real socket.
package argo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/retry"
)

// Request is one unit of model work. Payload is opaque to the gateway.
type Request struct {
	ID      string `json:"id"`
	Op      string `json:"op"` // e.g. "generate-mcq", "trace", "judge"
	Payload []byte `json:"payload"`
}

// Response carries the handler's output for one request. Transient
// failures set Retry, telling the gateway the request may be retried.
type Response struct {
	ID      string `json:"id"`
	Payload []byte `json:"payload,omitempty"`
	Err     string `json:"err,omitempty"`
	Retry   bool   `json:"retry,omitempty"`
}

// BatchHandler services one batch. It must return exactly one response per
// request, in any order, keyed by ID.
type BatchHandler func(ctx context.Context, batch []Request) []Response

// Config parameterises a Gateway.
type Config struct {
	MaxBatch    int           // max requests per handler call (default 16)
	MaxRetries  int           // retry budget per request for transient failures (default 3)
	BaseBackoff time.Duration // first retry delay (default 1ms, doubles per attempt)
	// RatePerSec limits handler dispatches per second; 0 disables.
	RatePerSec float64
	// Burst is the token-bucket depth when rate limiting (default 1).
	Burst int
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = time.Millisecond
	}
	if c.Burst <= 0 {
		c.Burst = 1
	}
}

// Stats is a snapshot of gateway accounting. Batches counts handler
// invocations including retry rounds, so it can exceed the coalescer's
// dispatch count.
type Stats struct {
	Requests   int64
	Batches    int64
	Retries    int64
	Failures   int64
	MaxBatched int
}

// ErrGatewayClosed is returned by Call after Close.
var ErrGatewayClosed = errors.New("argo: gateway closed")

// Gateway batches concurrent requests into handler calls. Coalescing is
// delegated to internal/batch; the gateway layers the model-endpoint
// semantics (rate limiting, retry with backoff, ID-keyed handler contract)
// on top.
type Gateway struct {
	cfg     Config
	policy  retry.Policy
	handler BatchHandler
	co      *batch.Coalescer[Request, Response]
	limiter *bucket

	// ctx gates every wait inside the retry machinery (backoff sleeps,
	// rate-limiter waits): Close cancels it first, so a closing gateway
	// stops retrying within one tick instead of sleeping out the whole
	// backoff schedule before the coalescer can drain.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	stats Stats
}

// NewGateway starts a gateway around handler.
func NewGateway(cfg Config, handler BatchHandler) *Gateway {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		cfg: cfg,
		// cfg.fill already resolved the retry knobs (including the
		// negative-means-zero rule), so the policy is used as-is, without
		// retry.Policy.Fill re-mapping an explicit 0 back to the default.
		policy:  retry.Policy{MaxRetries: cfg.MaxRetries, BaseBackoff: cfg.BaseBackoff},
		handler: handler,
		limiter: newBucket(cfg.RatePerSec, cfg.Burst),
		ctx:     ctx,
		cancel:  cancel,
	}
	g.co = batch.New(batch.Config{MaxBatch: cfg.MaxBatch}, g.serveBatch)
	return g
}

// Close drains and stops the gateway. Calls after Close fail. Pending
// retry chains abort at their next backoff tick: the current handler
// attempt finishes (the drain guarantee), but no further attempts run and
// their requests fail with a retry-aborted error.
func (g *Gateway) Close() {
	g.cancel()
	g.co.Close()
}

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Call submits one request and blocks for its response. Transient failures
// are retried internally up to the configured budget; exhaustion surfaces
// as an error.
func (g *Gateway) Call(ctx context.Context, req Request) (Response, error) {
	resp, err := g.co.Do(ctx, req)
	if err != nil {
		if errors.Is(err, batch.ErrClosed) {
			return Response{}, ErrGatewayClosed
		}
		return Response{}, err
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("argo: %s: %s", req.ID, resp.Err)
	}
	return resp, nil
}

// CallAll submits requests concurrently (letting the gateway batch them)
// and returns responses in request order.
func (g *Gateway) CallAll(ctx context.Context, reqs []Request) ([]Response, error) {
	out := make([]Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = g.Call(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// serveBatch is the coalescer's batch function: one rate-limiter token per
// coalesced batch, then the retry loop.
func (g *Gateway) serveBatch(reqs []Request) []Response {
	if err := g.limiter.wait(g.ctx); err != nil {
		return g.failAll(reqs, err)
	}
	return g.serveAttempt(reqs, 0)
}

// failAll answers every request with the same terminal error — the shape a
// batch takes when the gateway is cancelled mid-wait.
func (g *Gateway) failAll(reqs []Request, err error) []Response {
	out := make([]Response, len(reqs))
	for i, req := range reqs {
		g.countFailure()
		out[i] = Response{ID: req.ID, Err: "argo: aborted: " + err.Error()}
	}
	return out
}

// serveAttempt invokes the handler once, resolves terminal responses, and
// re-serves transient failures with backoff until the retry budget is
// spent. Results are index-aligned with reqs, as the coalescer requires —
// which means batchmates of a retried request wait for the retry chain
// (bounded by sum-of-backoffs, ~a few ms at the default BaseBackoff)
// instead of receiving their already-computed responses early, the one
// semantic trade-off of delegating delivery to the shared coalescer.
func (g *Gateway) serveAttempt(reqs []Request, attempt int) []Response {
	g.mu.Lock()
	g.stats.Batches++
	if attempt == 0 {
		g.stats.Requests += int64(len(reqs))
	}
	if len(reqs) > g.stats.MaxBatched {
		g.stats.MaxBatched = len(reqs)
	}
	g.mu.Unlock()

	responses := g.handler(g.ctx, reqs)
	byID := make(map[string]Response, len(responses))
	for _, resp := range responses {
		byID[resp.ID] = resp
	}

	out := make([]Response, len(reqs))
	var retryReqs []Request
	var retryIdx []int
	for i, req := range reqs {
		resp, ok := byID[req.ID]
		if !ok {
			// Handler contract violations (missing IDs) become failures.
			g.countFailure()
			out[i] = Response{ID: req.ID, Err: "argo: handler returned no response"}
			continue
		}
		if resp.Retry && attempt < g.cfg.MaxRetries {
			retryReqs = append(retryReqs, req)
			retryIdx = append(retryIdx, i)
			continue
		}
		if resp.Err != "" {
			g.countFailure()
		}
		out[i] = resp
	}
	if len(retryReqs) > 0 {
		g.mu.Lock()
		g.stats.Retries += int64(len(retryReqs))
		g.mu.Unlock()
		// Exponential backoff with deterministic jitter from the attempt
		// number (no wall-clock randomness, keeping runs reproducible) —
		// the schedule now lives in the shared retry.Policy. The sleep
		// aborts the moment the gateway's context is cancelled, so Close
		// never waits out the remaining schedule.
		if err := retry.Sleep(g.ctx, g.policy.Backoff(attempt)); err != nil {
			failed := g.failAll(retryReqs, err)
			for j, i := range retryIdx {
				out[i] = failed[j]
			}
			return out
		}
		retried := g.serveAttempt(retryReqs, attempt+1)
		for j, i := range retryIdx {
			out[i] = retried[j]
		}
	}
	return out
}

func (g *Gateway) countFailure() {
	g.mu.Lock()
	g.stats.Failures++
	g.mu.Unlock()
}

// bucket is a token-bucket rate limiter; nil-safe when disabled.
type bucket struct {
	interval time.Duration
	tokens   int
	depth    int
	last     time.Time
	mu       sync.Mutex
}

func newBucket(ratePerSec float64, burst int) *bucket {
	if ratePerSec <= 0 {
		return nil
	}
	return &bucket{
		interval: time.Duration(float64(time.Second) / ratePerSec),
		tokens:   burst,
		depth:    burst,
		last:     time.Now(),
	}
}

// wait blocks until a token is available or ctx is cancelled (the second
// of the two historical time.Sleep sites that used to ride out their full
// delay even while the gateway was closing).
func (b *bucket) wait(ctx context.Context) error {
	if b == nil {
		return nil
	}
	for {
		b.mu.Lock()
		now := time.Now()
		refill := int(now.Sub(b.last) / b.interval)
		if refill > 0 {
			b.tokens += refill
			if b.tokens > b.depth {
				b.tokens = b.depth
			}
			b.last = b.last.Add(time.Duration(refill) * b.interval)
		}
		if b.tokens > 0 {
			b.tokens--
			b.mu.Unlock()
			return nil
		}
		sleep := b.interval - now.Sub(b.last)
		b.mu.Unlock()
		if sleep < time.Microsecond {
			sleep = time.Microsecond
		}
		if err := retry.Sleep(ctx, sleep); err != nil {
			return err
		}
	}
}
