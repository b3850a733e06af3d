package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// double answers each int with its double.
func double(items []int) []int {
	out := make([]int, len(items))
	for i, v := range items {
		out[i] = v * 2
	}
	return out
}

func TestDoRoundTrip(t *testing.T) {
	c := New(Config{}, double)
	defer c.Close()
	got, err := c.Do(context.Background(), 21)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestCoalescing(t *testing.T) {
	var maxBatch int32
	run := func(items []int) []int {
		for {
			m := atomic.LoadInt32(&maxBatch)
			if int32(len(items)) <= m || atomic.CompareAndSwapInt32(&maxBatch, m, int32(len(items))) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return double(items)
	}
	c := New(Config{MaxBatch: 8}, run)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make([]error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Do(context.Background(), i)
			if err == nil && got != i*2 {
				err = fmt.Errorf("item %d answered %d", i, got)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if atomic.LoadInt32(&maxBatch) < 2 {
		t.Fatalf("no coalescing observed (max batch %d)", maxBatch)
	}
	st := c.Stats()
	if st.Items != 64 || st.Batches < 8 || st.MaxBatch > 8 {
		t.Fatalf("stats %+v", st)
	}
}

func TestResultsAlignedUnderConcurrency(t *testing.T) {
	c := New(Config{MaxBatch: 4}, double)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if got, err := c.Do(context.Background(), i); err != nil || got != i*2 {
				t.Errorf("item %d: got %d err %v", i, got, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestClosed(t *testing.T) {
	c := New(Config{}, double)
	c.Close()
	if _, err := c.Do(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err %v", err)
	}
	c.Close() // idempotent
}

func TestCloseAnswersEveryAcceptedItem(t *testing.T) {
	// Hammer Close against concurrent Do: every call must either complete
	// or fail with ErrClosed — never hang.
	for round := 0; round < 20; round++ {
		c := New(Config{MaxBatch: 4}, double)
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := c.Do(context.Background(), i)
				if err == nil && got != i*2 {
					t.Errorf("item %d answered %d", i, got)
				} else if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("item %d: %v", i, err)
				}
			}(i)
		}
		c.Close()
		wg.Wait()
	}
}

func TestContextCancelled(t *testing.T) {
	block := make(chan struct{})
	c := New(Config{}, func(items []int) []int {
		<-block
		return double(items)
	})
	defer func() { close(block); c.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := c.Do(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v", err)
	}
}

func TestShortResultSliceFails(t *testing.T) {
	c := New(Config{}, func(items []int) []int { return nil })
	defer c.Close()
	if _, err := c.Do(context.Background(), 1); err == nil {
		t.Fatal("short batch result did not surface as an error")
	}
}

// gatedRun is a batch function whose first invocation signals entered and
// then blocks until release is closed, so a test can queue items behind a
// running batch without any timing window. It records every batch size.
type gatedRun struct {
	entered chan struct{}
	release chan struct{}

	mu    sync.Mutex
	sizes []int
}

func newGatedRun() *gatedRun {
	return &gatedRun{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedRun) run(items []int) []int {
	g.mu.Lock()
	g.sizes = append(g.sizes, len(items))
	first := len(g.sizes) == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
	return double(items)
}

func (g *gatedRun) batchSizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.sizes...)
}

// waitFor yields until cond holds, failing the test if it never does.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// doAsync submits items from their own goroutines; each Do's outcome lands
// in errs/got at the item's index.
func doAsync(c *Coalescer[int, int], wg *sync.WaitGroup, items []int, got []int, errs []error) {
	for i, v := range items {
		wg.Add(1)
		go func(i, v int) {
			defer wg.Done()
			got[i], errs[i] = c.Do(context.Background(), v)
		}(i, v)
	}
}

func TestIdleCoalescerRunsLoneItemAlone(t *testing.T) {
	g := newGatedRun()
	close(g.release)
	c := New(Config{MaxBatch: 8}, g.run)
	defer c.Close()
	if got, err := c.Do(context.Background(), 5); err != nil || got != 10 {
		t.Fatalf("got %d err %v", got, err)
	}
	if sizes := g.batchSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("lone Do on an idle coalescer ran as batches %v, want [1]", sizes)
	}
	if st := c.Stats(); st.Items != 1 || st.Batches != 1 || st.MaxBatch != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestQueuedItemsFormNextBatches(t *testing.T) {
	const maxBatch, queued = 4, 6
	g := newGatedRun()
	c := New(Config{MaxBatch: maxBatch}, g.run)
	defer c.Close()

	var wg sync.WaitGroup
	got, errs := make([]int, queued+1), make([]error, queued+1)
	doAsync(c, &wg, []int{100}, got[:1], errs[:1])
	<-g.entered // the first batch is now running, and blocked
	items := make([]int, queued)
	for i := range items {
		items[i] = i
	}
	doAsync(c, &wg, items, got[1:], errs[1:])
	waitFor(t, "items to queue behind the running batch", func() bool { return len(c.queue) == queued })
	close(g.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if got[0] != 200 {
		t.Fatalf("first item answered %d", got[0])
	}
	for i, v := range items {
		if got[i+1] != v*2 {
			t.Fatalf("item %d answered %d", v, got[i+1])
		}
	}
	want := []int{1, maxBatch, queued - maxBatch}
	if sizes := g.batchSizes(); fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
}

func TestCloseWhileBatchRunsAnswersEveryAcceptedItem(t *testing.T) {
	const queued = 6
	g := newGatedRun()
	c := New(Config{MaxBatch: 4}, g.run)

	var wg sync.WaitGroup
	got, errs := make([]int, queued+1), make([]error, queued+1)
	doAsync(c, &wg, []int{100}, got[:1], errs[:1])
	<-g.entered
	items := make([]int, queued)
	for i := range items {
		items[i] = i
	}
	doAsync(c, &wg, items, got[1:], errs[1:])
	waitFor(t, "items to queue behind the running batch", func() bool { return len(c.queue) == queued })

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	waitFor(t, "Close to begin", func() bool {
		c.closeMu.RLock()
		defer c.closeMu.RUnlock()
		return c.closed
	})
	if _, err := c.Do(context.Background(), 99); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close began: %v", err)
	}
	close(g.release)
	wg.Wait()
	<-closed

	if errs[0] != nil || got[0] != 200 {
		t.Fatalf("running batch's item: got %d err %v", got[0], errs[0])
	}
	var served, refused int64
	for i, v := range items {
		switch err := errs[i+1]; {
		case err == nil && got[i+1] == v*2:
			served++
		case errors.Is(err, ErrClosed):
			refused++
		default:
			t.Fatalf("item %d: got %d err %v", v, got[i+1], err)
		}
	}
	if st := c.Stats(); st.Items != served+1 || served+refused != queued {
		t.Fatalf("stats %+v: served %d refused %d of %d queued", st, served, refused, queued)
	}
}
