package router

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/rag"
	"repro/internal/retry"
	"repro/internal/serve"
)

// fleet is a set of in-process fault-injectable shard backends over a
// modulo-partitioned corpus.
type fleet struct {
	gates  []*serve.FaultGate
	urls   []string
	parts  [][]chunk.Chunk
	corpus []chunk.Chunk
}

func testFleet(t testing.TB, nShards, nChunks int) *fleet {
	t.Helper()
	corpus := testCorpus(nChunks)
	f := &fleet{parts: partition(corpus, nShards), corpus: corpus}
	for _, part := range f.parts {
		s := serve.New(rag.BuildChunkStore(nil, part, 0), serve.DefaultConfig())
		gate, err := s.StartFaulty("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		f.gates = append(f.gates, gate)
		f.urls = append(f.urls, "http://"+s.Addr())
	}
	return f
}

// testRouter starts a router over the fleet with timings tight enough
// that trip/probe/recovery all happen within a test run.
func testRouter(t testing.TB, f *fleet) *Client {
	t.Helper()
	r, err := New(Config{
		Shards:        f.urls,
		ShardTimeout:  2 * time.Second,
		Retry:         retry.Policy{MaxRetries: 1, BaseBackoff: time.Millisecond},
		Breaker:       BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond},
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return NewClient("http://"+r.Addr(), nil)
}

func TestRouterEndToEnd(t *testing.T) {
	f := testFleet(t, 3, 48)
	c := testRouter(t, f)

	// Healthy fleet: full fan-out, not degraded, and the router's merged
	// answer equals a single unsharded store's, bit for bit.
	resp, err := c.Search(f.corpus[5].Text, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.ShardsOK != 3 || resp.ShardsTotal != 3 {
		t.Fatalf("healthy response marked degraded: %+v", resp)
	}
	if resp.Results[0].ID != f.corpus[5].ID {
		t.Fatalf("self-query missed: %+v", resp.Results)
	}

	queries := []string{f.corpus[0].Text, f.corpus[31].Text, "supernova decay calibration"}
	want := storeSearch(f.corpus, queries, 10)
	bresp, err := c.SearchBatch(queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	if bresp.Degraded {
		t.Fatalf("healthy batch marked degraded: ok=%d", bresp.ShardsOK)
	}
	for qi := range queries {
		if !reflect.DeepEqual(bresp.Results[qi], want[qi]) {
			t.Fatalf("query %d:\nrouter: %+v\nexact:  %+v", qi, bresp.Results[qi], want[qi])
		}
	}

	hz, err := c.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.ShardsOK != 3 || len(hz.Shards) != 3 {
		t.Fatalf("healthz %+v", hz)
	}

	// Kill shard1 cold. Every response from here to recovery must be a
	// 200 — degraded with the exact top-k over the survivors, never a 5xx.
	f.gates[1].Set(serve.FaultDown)
	survivors := append(append([]chunk.Chunk(nil), f.parts[0]...), f.parts[2]...)
	wantDeg := storeSearch(survivors, []string{f.corpus[1].Text}, 5)[0]
	deadline := time.Now().Add(5 * time.Second)
	tripped := false
	for time.Now().Before(deadline) {
		resp, err := c.SearchRouteCtx(t.Context(), serve.RouteChunks, f.corpus[1].Text, 5, "")
		if err != nil {
			t.Fatalf("outage must degrade, not error: %v", err)
		}
		if !resp.Degraded || resp.ShardsOK != 2 || resp.ShardsTotal != 3 {
			t.Fatalf("response during outage: %+v", resp)
		}
		if !reflect.DeepEqual(resp.Results, wantDeg) {
			t.Fatalf("degraded results not exact over survivors:\ngot:  %+v\nwant: %+v", resp.Results, wantDeg)
		}
		hz, err = c.Healthz()
		if err != nil {
			t.Fatal(err)
		}
		if sh := hz.Shards["shard1"]; sh.Trips >= 1 {
			tripped = true
			if hz.Status != "degraded" {
				t.Fatalf("healthz status %q with tripped shard", hz.Status)
			}
			if sh.Breaker == "closed" {
				t.Fatalf("shard1 breaker %q after trip", sh.Breaker)
			}
			break
		}
	}
	if !tripped {
		t.Fatal("shard1 breaker never tripped")
	}

	// Revive the shard: the health prober's half-open probe must close the
	// breaker and restore full-recall responses without client traffic
	// paying for the recovery.
	f.gates[1].Clear()
	recovered := false
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		hz, err = c.Healthz()
		if err != nil {
			t.Fatal(err)
		}
		if hz.Status == "ok" && hz.ShardsOK == 3 {
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("breaker never closed after revival: %+v", hz)
	}
	resp, err = c.Search(f.corpus[1].Text, 5)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.ShardsOK != 3 {
		t.Fatalf("post-recovery response: %+v", resp)
	}
	if resp.Results[0].ID != f.corpus[1].ID {
		t.Fatalf("revived shard's chunk missing: %+v", resp.Results)
	}
}

func TestRouterAllShardsFailed(t *testing.T) {
	f := testFleet(t, 2, 16)
	c := testRouter(t, f)
	for _, g := range f.gates {
		g.Set(serve.FaultError)
	}
	// Not one shard answered: the only case the router 5xxes.
	_, err := c.Search(f.corpus[0].Text, 3)
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Status != 503 {
		t.Fatalf("err=%v, want router 503", err)
	}
	if _, err := c.SearchBatch([]string{f.corpus[0].Text}, 3); !errors.As(err, &se) || se.Status != 503 {
		t.Fatalf("batch err=%v, want router 503", err)
	}
	// The two failed requests tripped both breakers (threshold 2), so the
	// fleet heals via half-open probes after Clear, not instantly.
	for _, g := range f.gates {
		g.Clear()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := c.Search(f.corpus[0].Text, 3)
		if err == nil && !resp.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never recovered: err=%v resp=%+v", err, resp)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRouterRequestValidation(t *testing.T) {
	f := testFleet(t, 2, 16)
	c := testRouter(t, f)
	var se *serve.StatusError
	if _, err := c.Search("", 3); !errors.As(err, &se) || se.Status != 400 {
		t.Fatalf("empty query: err=%v, want 400", err)
	}
	big := make([]string, 2000)
	for i := range big {
		big[i] = "q"
	}
	if _, err := c.SearchBatch(big, 3); !errors.As(err, &se) || se.Status != 413 {
		t.Fatalf("oversized batch: err=%v, want 413", err)
	}
	if _, err := c.SearchRouteBatchCtx(t.Context(), serve.RouteChunks, []string{"a", "b"}, 3, []string{"only-one"}); !errors.As(err, &se) || se.Status != 400 {
		t.Fatalf("mismatched exclude: err=%v, want 400", err)
	}
}
