package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/rag"
	"repro/internal/vecstore"
)

// testChunks builds n synthetic chunks with distinct, retrievable texts
// (the hash-based embedder only needs token overlap, not semantics).
func testChunks(n int) []chunk.Chunk {
	topics := []string{"galaxy rotation curves", "stellar nucleosynthesis yields",
		"exoplanet transit photometry", "cosmic microwave background anisotropy",
		"interstellar dust extinction", "supernova light curve decay"}
	out := make([]chunk.Chunk, n)
	for i := range out {
		out[i] = chunk.Chunk{
			ID:    fmt.Sprintf("c%04d", i),
			DocID: fmt.Sprintf("d%03d", i/8),
			Index: i % 8,
			Text: fmt.Sprintf("%s measurement series %d with calibration run %d and residual %d",
				topics[i%len(topics)], i, i*7%13, i*3%11),
			Tokens: 12,
		}
	}
	return out
}

func testServer(t testing.TB, n int, cfg Config) (*Server, *rag.ChunkStore, []chunk.Chunk) {
	t.Helper()
	chunks := testChunks(n)
	store := rag.BuildChunkStore(nil, chunks, 0)
	s := New(store, cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, store, chunks
}

// gate holds batches inside a route's backend: the first RetrieveBatch
// through it closes entered, and every call blocks until open is called.
// Tests wait on entered instead of sleeping for a request to arrive.
type gate struct {
	entered chan struct{}
	release chan struct{}
	in, out sync.Once
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) open() { g.out.Do(func() { close(g.release) }) }

// gatedStore is a route store whose RetrieveBatch passes through a gate.
// It does not implement rag.StagedRetriever, so the route calls
// RetrieveBatch; snapshots derived by a swap keep the gate.
type gatedStore struct {
	rag.Facade
	g *gate
}

func (s gatedStore) RetrieveBatch(queries []string, k int, exclude []string) [][]rag.Hit {
	s.g.in.Do(func() { close(s.g.entered) })
	<-s.g.release
	return s.Facade.RetrieveBatch(queries, k, exclude)
}

func (s gatedStore) WithIndex(index vecstore.Index) (rag.Facade, error) {
	st, err := s.Facade.WithIndex(index)
	if err != nil {
		return nil, err
	}
	return gatedStore{st, s.g}, nil
}

// gatedServer is testServer with the chunk route behind a gate. The gate
// opens at cleanup, before the server closes, so a failing test cannot
// leave the drain waiting on a held batch.
func gatedServer(t testing.TB, n int, cfg Config) (*Server, *rag.ChunkStore, []chunk.Chunk, *gate) {
	t.Helper()
	chunks := testChunks(n)
	store := rag.BuildChunkStore(nil, chunks, 0)
	g := newGate()
	s := NewMulti(cfg)
	if err := s.Mount(RouteChunks, gatedStore{rag.NewChunkFacade(store), g}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	t.Cleanup(g.open)
	return s, store, chunks, g
}

// joinSignal is a context that closes waiting on its first Done call. A
// flightGroup joiner first consults ctx.Done() once it is attached to the
// leader's flight, so waiting tells a test that the joiner has joined.
type joinSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newJoinSignal() *joinSignal {
	return &joinSignal{Context: context.Background(), waiting: make(chan struct{})}
}

func (c *joinSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

func TestSearchEndToEnd(t *testing.T) {
	s, _, chunks := testServer(t, 64, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)

	hz, err := c.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Vectors != 64 || hz.Epoch != 0 {
		t.Fatalf("healthz %+v", hz)
	}
	if rh, ok := hz.Routes[RouteChunks]; !ok || rh.Vectors != 64 || rh.Epoch != 0 {
		t.Fatalf("healthz routes %+v", hz.Routes)
	}

	// Querying a chunk's own text must return that chunk first, on both
	// the legacy alias and the named route.
	resp, err := c.Search(chunks[17].Text, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 || resp.Results[0].ID != chunks[17].ID {
		t.Fatalf("results %+v", resp.Results)
	}
	if resp.Results[0].Text != chunks[17].Text {
		t.Fatal("chunk text not carried on the wire")
	}
	if resp.Results[0].Group != chunks[17].DocID {
		t.Fatal("doc id not carried on the wire")
	}
	named, err := c.SearchRoute(RouteChunks, chunks[17].Text, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if named.Route != RouteChunks || named.Results[0].ID != chunks[17].ID {
		t.Fatalf("named route response %+v", named)
	}

	// Batch endpoint answers in query order.
	bresp, err := c.SearchBatch([]string{chunks[3].Text, chunks[40].Text}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 2 ||
		bresp.Results[0][0].ID != chunks[3].ID ||
		bresp.Results[1][0].ID != chunks[40].ID {
		t.Fatalf("batch results %+v", bresp.Results)
	}

	mtext, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter serve.chunks.requests", "histogram serve.chunks.batch.size", "gauge serve.chunks.index.vectors 64"} {
		if !strings.Contains(mtext, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, mtext)
		}
	}
}

func TestCoalescingUnderConcurrentClients(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheCap = 0 // every request must reach the kernel
	s, _, chunks := testServer(t, 128, cfg)
	c := NewClient("http://"+s.Addr(), nil)

	const clients = 48
	queries := make([]string, clients*8)
	for i := range queries {
		queries[i] = chunks[i%len(chunks)].Text + fmt.Sprintf(" variant %d", i)
	}
	rep := RunLoad(LoadConfig{Concurrency: clients, Requests: len(queries), Queries: queries, K: 4},
		func(q string, k int) error {
			_, err := c.Search(q, k)
			return err
		})
	if rep.Failures != 0 {
		t.Fatalf("%d failed requests", rep.Failures)
	}
	snap := s.Registry().Snapshot()
	batches, queued := snap.Counter("serve.chunks.batches"), snap.Counter("serve.chunks.batch.queries")
	if queued != int64(len(queries)) {
		t.Fatalf("batched queries %d, want %d", queued, len(queries))
	}
	mean := float64(queued) / float64(batches)
	if mean <= 1 {
		t.Fatalf("no coalescing under %d concurrent clients: %d batches for %d queries (mean %.2f)",
			clients, batches, queued, mean)
	}
	if snap.Histogram("serve.chunks.batch.size").Total != batches {
		t.Fatal("batch-size histogram out of sync with batch counter")
	}
	t.Logf("mean batch %.2f over %d batches, qps %.0f", mean, batches, rep.QPS)
}

func TestCacheHitMissAccounting(t *testing.T) {
	s, _, chunks := testServer(t, 32, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)

	first, err := c.Search(chunks[5].Text, 3)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first lookup reported cached")
	}
	second, err := c.Search(chunks[5].Text, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat lookup not served from cache")
	}
	if len(first.Results) != len(second.Results) || first.Results[0].ID != second.Results[0].ID {
		t.Fatal("cached result differs from computed one")
	}
	// Different k is a different cache entry.
	if _, err := c.Search(chunks[5].Text, 5); err != nil {
		t.Fatal(err)
	}
	snap := s.Registry().Snapshot()
	if h, m := snap.Counter("serve.chunks.cache.hits"), snap.Counter("serve.chunks.cache.misses"); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", h, m)
	}
}

func TestHotSwapUnderLoad(t *testing.T) {
	s, store, chunks := testServer(t, 96, DefaultConfig())

	// Two on-disk generations of the same corpus: the initial flat index
	// and a second copy (what a rebuilt/retrained index deploy looks like).
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.vsf")
	pathB := filepath.Join(dir, "b.vsf")
	if err := store.SaveIndex(pathA); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveIndex(pathB); err != nil {
		t.Fatal(err)
	}

	c := NewClient("http://"+s.Addr(), nil)
	stop := make(chan struct{})
	var failures, requests, torn atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := chunks[(w*31+i)%len(chunks)]
				resp, err := c.Search(q.Text, 3)
				requests.Add(1)
				if err != nil {
					failures.Add(1)
					continue
				}
				// Consistency across swaps: both generations hold the same
				// corpus, so the top hit is always the queried chunk.
				if len(resp.Results) == 0 || resp.Results[0].ID != q.ID {
					torn.Add(1)
				}
			}
		}(w)
	}

	const swaps = 6
	paths := [2]string{pathA, pathB}
	for i := 0; i < swaps; i++ {
		time.Sleep(5 * time.Millisecond)
		snap, err := s.SwapFromFile(paths[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if snap.Epoch != uint64(i+1) {
			t.Fatalf("epoch %d after swap %d", snap.Epoch, i+1)
		}
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	// A connection the transport dialed but never used sits in StateNew on
	// the server, which Shutdown only reaps after 5s; close it here so the
	// cleanup drain does not wait that out.
	c.HTTPClient().CloseIdleConnections()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed requests across %d during hot swaps", n, requests.Load())
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d inconsistent results across %d during hot swaps", n, requests.Load())
	}
	reg := s.Registry().Snapshot()
	if reg.Counter("serve.chunks.swaps") != swaps || reg.Gauge("serve.chunks.index.epoch") != swaps {
		t.Fatalf("swap accounting: swaps=%d epoch=%d",
			reg.Counter("serve.chunks.swaps"), reg.Gauge("serve.chunks.index.epoch"))
	}
	t.Logf("%d requests, %d swaps, zero failures", requests.Load(), swaps)
}

func TestSwapRejectsBadInput(t *testing.T) {
	s, _, chunks := testServer(t, 16, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)
	if _, err := c.Swap(filepath.Join(t.TempDir(), "missing.vsf")); err == nil {
		t.Fatal("swap from a missing file succeeded")
	}
	if _, err := s.SwapIndex(vecstore.NewFlat(7), "bad-dim"); err == nil {
		t.Fatal("swap to a mismatched index succeeded")
	}
	// Same dimension, different corpus: keys don't resolve in the store's
	// metadata, which would silently serve empty results.
	foreign := vecstore.NewFlat(s.Snapshot().Store.Index().Dim())
	foreign.Add(make([]float32, foreign.Dim()), "alien-0001")
	if _, err := s.SwapIndex(foreign, "foreign"); err == nil {
		t.Fatal("foreign-corpus index accepted")
	}
	if got := s.Snapshot().Epoch; got != 0 {
		t.Fatalf("failed swaps advanced the epoch to %d", got)
	}
	// Still serving.
	if _, err := c.Search(chunks[0].Text, 1); err != nil {
		t.Fatal(err)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	// The gate holds the request inside the backend until shutdown has
	// begun, so shutdown provably overlaps an in-flight request.
	s, _, chunks, g := gatedServer(t, 16, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)
	draining := make(chan struct{}, 1) // cleanup's Close shuts down again
	s.httpSrv.RegisterOnShutdown(func() {
		select {
		case draining <- struct{}{}:
		default:
		}
	})

	done := make(chan error, 1)
	go func() {
		resp, err := c.Search(chunks[1].Text, 2)
		if err == nil && len(resp.Results) == 0 {
			err = fmt.Errorf("empty results")
		}
		done <- err
	}()
	<-g.entered // the request is now inside the backend
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdown := make(chan error, 1)
	go func() { shutdown <- s.Shutdown(ctx) }()
	<-draining // listeners are closed; Shutdown now waits for the request
	g.open()
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request dropped across shutdown: %v", err)
	}
}

func TestSearchDirectAPI(t *testing.T) {
	// The in-process path (no HTTP) that bench-serve's baseline uses.
	chunks := testChunks(32)
	store := rag.BuildChunkStore(nil, chunks, 0)
	s := New(store, DefaultConfig())
	defer s.Close()
	res, cached, epoch, err := s.Search(context.Background(), chunks[9].Text, 2)
	if err != nil || cached || epoch != 0 || len(res) != 2 || res[0].ID != chunks[9].ID {
		t.Fatalf("res=%v cached=%v epoch=%d err=%v", res, cached, epoch, err)
	}
	res2, cached2, epoch2, err := s.Search(context.Background(), chunks[9].Text, 2)
	if err != nil || !cached2 || epoch2 != 0 || res2[0].ID != chunks[9].ID {
		t.Fatalf("repeat: cached=%v epoch=%d err=%v", cached2, epoch2, err)
	}
}

func TestCancelledLeaderDoesNotPoisonJoiners(t *testing.T) {
	// The gate holds the leader's fill inside the backend, keeping its
	// flight open while the leader is cancelled and a joiner attaches.
	s, _, chunks, g := gatedServer(t, 16, DefaultConfig())

	lctx, lcancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := s.Search(lctx, chunks[2].Text, 2)
		leaderDone <- err
	}()
	<-g.entered // the leader's flight is registered and its batch is held
	lcancel()   // the leader's client disconnects mid-flight

	jctx := newJoinSignal()
	type answer struct {
		res []rag.Hit
		err error
	}
	joined := make(chan answer, 1)
	go func() {
		res, _, _, err := s.Search(jctx, chunks[2].Text, 2)
		joined <- answer{res, err}
	}()
	<-jctx.waiting // the joiner is attached to the leader's flight
	g.open()
	j := <-joined
	if j.err != nil {
		t.Fatalf("healthy joiner poisoned by leader cancellation: %v", j.err)
	}
	if len(j.res) == 0 || j.res[0].ID != chunks[2].ID {
		t.Fatalf("joiner results %v", j.res)
	}
	if n := s.Registry().Snapshot().Counter("serve.chunks.flight.shared"); n != 1 {
		t.Fatalf("joiner did not share the leader's flight (flight.shared %d)", n)
	}
	// The flight itself ran detached, so even the leader gets the result.
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

func TestBatchEndpointBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatchQueries = 4
	s, _, chunks := testServer(t, 16, cfg)
	c := NewClient("http://"+s.Addr(), nil)
	if _, err := c.SearchBatch([]string{chunks[0].Text, chunks[1].Text}, 2); err != nil {
		t.Fatal(err)
	}
	oversize := make([]string, 5)
	for i := range oversize {
		oversize[i] = chunks[i].Text
	}
	if _, err := c.SearchBatch(oversize, 2); err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("oversized batch not rejected: %v", err)
	}
}
