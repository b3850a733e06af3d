package argo

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoHandler answers every request with its payload.
func echoHandler(_ context.Context, batch []Request) []Response {
	out := make([]Response, len(batch))
	for i, r := range batch {
		out[i] = Response{ID: r.ID, Payload: r.Payload}
	}
	return out
}

func TestCallRoundTrip(t *testing.T) {
	g := NewGateway(Config{}, echoHandler)
	defer g.Close()
	resp, err := g.Call(context.Background(), Request{ID: "r1", Op: "echo", Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "hello" {
		t.Fatalf("payload %q", resp.Payload)
	}
}

func TestBatching(t *testing.T) {
	var maxBatch int32
	handler := func(ctx context.Context, batch []Request) []Response {
		for {
			m := atomic.LoadInt32(&maxBatch)
			if int32(len(batch)) <= m || atomic.CompareAndSwapInt32(&maxBatch, m, int32(len(batch))) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return echoHandler(ctx, batch)
	}
	g := NewGateway(Config{MaxBatch: 8}, handler)
	defer g.Close()
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{ID: fmt.Sprintf("r%d", i)}
	}
	if _, err := g.CallAll(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&maxBatch) < 2 {
		t.Fatalf("no coalescing observed (max batch %d)", maxBatch)
	}
	if g.Stats().Requests != 64 {
		t.Fatalf("stats requests %d", g.Stats().Requests)
	}
}

func TestCallAllOrder(t *testing.T) {
	g := NewGateway(Config{MaxBatch: 4}, echoHandler)
	defer g.Close()
	reqs := make([]Request, 20)
	for i := range reqs {
		reqs[i] = Request{ID: fmt.Sprintf("r%d", i), Payload: []byte(fmt.Sprint(i))}
	}
	resps, err := g.CallAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if string(r.Payload) != fmt.Sprint(i) {
			t.Fatalf("response %d carries %q", i, r.Payload)
		}
	}
}

func TestTransientRetry(t *testing.T) {
	var calls sync.Map
	handler := func(_ context.Context, batch []Request) []Response {
		out := make([]Response, len(batch))
		for i, r := range batch {
			n, _ := calls.LoadOrStore(r.ID, new(int32))
			c := atomic.AddInt32(n.(*int32), 1)
			if c < 3 {
				out[i] = Response{ID: r.ID, Err: "overloaded", Retry: true}
			} else {
				out[i] = Response{ID: r.ID, Payload: []byte("ok")}
			}
		}
		return out
	}
	g := NewGateway(Config{MaxRetries: 5, BaseBackoff: 100 * time.Microsecond}, handler)
	defer g.Close()
	resp, err := g.Call(context.Background(), Request{ID: "flaky"})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "ok" {
		t.Fatalf("payload %q", resp.Payload)
	}
	if g.Stats().Retries < 2 {
		t.Fatalf("retries %d", g.Stats().Retries)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	handler := func(_ context.Context, batch []Request) []Response {
		out := make([]Response, len(batch))
		for i, r := range batch {
			out[i] = Response{ID: r.ID, Err: "always down", Retry: true}
		}
		return out
	}
	g := NewGateway(Config{MaxRetries: 2, BaseBackoff: 50 * time.Microsecond}, handler)
	defer g.Close()
	_, err := g.Call(context.Background(), Request{ID: "doomed"})
	if err == nil || !strings.Contains(err.Error(), "always down") {
		t.Fatalf("err = %v", err)
	}
	if g.Stats().Failures == 0 {
		t.Fatal("failure not counted")
	}
}

func TestPermanentErrorNoRetry(t *testing.T) {
	var calls int32
	handler := func(_ context.Context, batch []Request) []Response {
		atomic.AddInt32(&calls, 1)
		out := make([]Response, len(batch))
		for i, r := range batch {
			out[i] = Response{ID: r.ID, Err: "malformed payload"}
		}
		return out
	}
	g := NewGateway(Config{MaxRetries: 5}, handler)
	defer g.Close()
	if _, err := g.Call(context.Background(), Request{ID: "bad"}); err == nil {
		t.Fatal("permanent error not surfaced")
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
}

func TestMissingResponseBecomesError(t *testing.T) {
	handler := func(_ context.Context, batch []Request) []Response { return nil }
	g := NewGateway(Config{}, handler)
	defer g.Close()
	_, err := g.Call(context.Background(), Request{ID: "lost"})
	if err == nil || !strings.Contains(err.Error(), "no response") {
		t.Fatalf("err = %v", err)
	}
}

func TestClosedGateway(t *testing.T) {
	g := NewGateway(Config{}, echoHandler)
	g.Close()
	if _, err := g.Call(context.Background(), Request{ID: "x"}); err != ErrGatewayClosed {
		t.Fatalf("err = %v", err)
	}
	g.Close() // idempotent
}

func TestRateLimiting(t *testing.T) {
	var stamps []time.Time
	var mu sync.Mutex
	handler := func(ctx context.Context, batch []Request) []Response {
		mu.Lock()
		stamps = append(stamps, time.Now())
		mu.Unlock()
		return echoHandler(ctx, batch)
	}
	// 1 batch per request (MaxBatch 1) at 200 batches/sec → ≥5ms spacing.
	g := NewGateway(Config{MaxBatch: 1, RatePerSec: 200, Burst: 1}, handler)
	defer g.Close()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := g.Call(context.Background(), Request{ID: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 5 dispatches at 200/s with burst 1: at least ~20ms.
	if elapsed < 15*time.Millisecond {
		t.Fatalf("rate limiter ineffective: %v for 5 calls", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stamps) != 5 {
		t.Fatalf("%d batches", len(stamps))
	}
}

func TestContextCancelledCall(t *testing.T) {
	block := make(chan struct{})
	handler := func(ctx context.Context, batch []Request) []Response {
		<-block
		return echoHandler(ctx, batch)
	}
	g := NewGateway(Config{}, handler)
	defer func() {
		close(block)
		g.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := g.Call(ctx, Request{ID: "slow"})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPTransport(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g := NewGateway(Config{MaxBatch: 4}, HTTPHandler("http://"+srv.Addr(), nil))
	defer g.Close()
	reqs := make([]Request, 10)
	for i := range reqs {
		reqs[i] = Request{ID: fmt.Sprintf("h%d", i), Payload: []byte(fmt.Sprint(i * 2))}
	}
	resps, err := g.CallAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if string(r.Payload) != fmt.Sprint(i*2) {
			t.Fatalf("resp %d: %q", i, r.Payload)
		}
	}
}

func TestHTTPTransportServerDown(t *testing.T) {
	g := NewGateway(Config{MaxRetries: 1, BaseBackoff: 100 * time.Microsecond},
		HTTPHandler("http://127.0.0.1:1", nil)) // nothing listens on port 1
	defer g.Close()
	_, err := g.Call(context.Background(), Request{ID: "x"})
	if err == nil {
		t.Fatal("unreachable server succeeded")
	}
}

func BenchmarkGatewayThroughput(b *testing.B) {
	g := NewGateway(Config{MaxBatch: 64}, echoHandler)
	defer g.Close()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			_, _ = g.Call(context.Background(), Request{ID: fmt.Sprint(i)})
		}
	})
}

func TestServerShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	handler := func(ctx context.Context, batch []Request) []Response {
		close(started)
		time.Sleep(50 * time.Millisecond)
		return echoHandler(ctx, batch)
	}
	srv, err := NewServer("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGateway(Config{MaxRetries: 1}, HTTPHandler("http://"+srv.Addr(), nil))
	defer g.Close()
	done := make(chan error, 1)
	go func() {
		_, err := g.Call(context.Background(), Request{ID: "inflight", Payload: []byte("x")})
		done <- err
	}()
	<-started
	// Shutdown while the request is being handled: it must complete, not
	// be dropped with a connection reset.
	if err := srv.Close(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request dropped across shutdown: %v", err)
	}
}

// TestCloseAbortsBackoffWithinOneTick is the regression test for the two
// historical time.Sleep sites in the retry machinery (the backoff between
// attempts and the rate-limiter wait): a gateway closed mid-backoff must
// stop retrying immediately instead of sleeping out the remaining
// schedule — with a 30s base backoff, anything under a couple of seconds
// proves the sleep was interrupted.
func TestCloseAbortsBackoffWithinOneTick(t *testing.T) {
	attempted := make(chan struct{}, 16)
	handler := func(_ context.Context, batch []Request) []Response {
		out := make([]Response, len(batch))
		for i, req := range batch {
			out[i] = Response{ID: req.ID, Err: "transient", Retry: true}
		}
		select {
		case attempted <- struct{}{}:
		default:
		}
		return out
	}
	g := NewGateway(Config{MaxBatch: 1, MaxRetries: 5, BaseBackoff: 30 * time.Second}, handler)

	done := make(chan error, 1)
	go func() {
		_, err := g.Call(context.Background(), Request{ID: "doomed"})
		done <- err
	}()
	<-attempted // first attempt ran; the gateway is now in its 30s backoff
	start := time.Now()
	g.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close blocked %v on a pending backoff", elapsed)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("retry-aborted call returned nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call still pending after Close")
	}
}

// TestCloseAbortsRateLimiterWait covers the bucket.wait sleep site: a
// gateway rate-limited to one dispatch per minute must still close
// promptly while a batch is queued behind the empty token bucket.
func TestCloseAbortsRateLimiterWait(t *testing.T) {
	g := NewGateway(Config{MaxBatch: 1, RatePerSec: 1.0 / 60, Burst: 1}, echoHandler)
	// First call spends the burst token.
	if _, err := g.Call(context.Background(), Request{ID: "r0"}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.Call(context.Background(), Request{ID: "r1"})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the batch reach the bucket wait
	start := time.Now()
	g.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close blocked %v on the rate-limiter wait", elapsed)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("aborted rate-limited call returned nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call still pending after Close")
	}
}
