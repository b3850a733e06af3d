package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/rag"
	"repro/internal/retry"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/vecstore"
)

// Serving workload parameters. Each fixed rate sits well below the
// workload's sustained rate on a 2-core host, so p50 and p99 describe
// normal service rather than a queue; each latency limit is what the
// traced run's sustained-rate search holds p99 under.
const (
	missScale   = 0.05  // 7,496 chunks: 5.8 MB of FP16 codes, larger than L2
	missRate    = 200.0 // requests per second
	missLimitMS = 50.0

	hotScale       = 0.01 // 1,521 chunks: the corpus fits in L2
	hotRate        = 600.0
	hotPool        = 2048 // distinct read keys, 8x the per-route cache
	hotCacheCap    = 256
	hotCompactAt   = 256
	hotZipfS       = 1.1
	hotInsertEvery = 8 // one request in 8 is an insert
	// hotInsertBatch is the chunks per insert. Inserts only grow the live
	// route: with 4 chunks per insert it grew from 1,521 to about 7,500
	// rows in a 20 s run, its scan cost climbed with it and each run's
	// p99 rose from 3 to 7.5 ms between its first and last second. One
	// chunk per insert keeps the growth to about 2x.
	hotInsertBatch = 1
	liveRoute      = "live"

	fanoutScale   = 0.05
	fanoutShards  = 3
	fanoutRate    = 200.0
	fanoutLimitMS = 50.0
)

// probeRequests is the size of one sustained-rate probe: enough for its
// p99 to have ten samples beyond it.
const probeRequests = 1000

// recallEvery keeps one response in this many for the correctness checks.
const recallEvery = 10

// sustainedRate runs the sustained-rate search over fresh queries from
// first on: it estimates capacity with a short closed loop, then offers
// open-loop probes of probeRequests queries each for about budget
// seconds. A probe passes when its p99 stays within limitMS with no
// failures and its generator lateness does not grow by more than half the
// limit.
func sustainedRate(ctx context.Context, cfg *runConfig, rep *runReport, limitMS, budget float64,
	first int, search func(ctx context.Context, q int) error) error {
	est, next, err := closedLoop(ctx, cfg.inflight, 500*time.Millisecond, first, search)
	if err != nil {
		return fmt.Errorf("capacity estimate: %w", err)
	}
	rs := rateSearch{Start: 0.85 * est, Step: 0.04, Probes: max(4, int(budget*est/probeRequests))}
	rate, trail, err := rs.run(ctx, func(ctx context.Context, rate float64) (bool, error) {
		base := next
		next += probeRequests
		res := openLoop{Rate: rate, N: probeRequests, InFlight: cfg.inflight}.run(ctx, func(ctx context.Context, i int) error {
			return search(ctx, base+i)
		})
		lat := res.latencies(nil)
		ok := res.failures() == 0 && len(lat) > 0 && tailOf(lat, 99).Value <= limitMS && res.latenessGrowth() <= limitMS/2
		return ok, ctx.Err()
	})
	if err != nil {
		return err
	}
	rep.note("sustained-rate search: closed-loop estimate %.0f/s, probes %v", est, trail)
	rep.add("serve.sustained_qps", rate, len(trail))
	return nil
}

// distinctFixture is what a distinct-query serving workload serves from;
// serve-miss and router-fanout differ only in it.
type distinctFixture struct {
	kb       *corpus.KB
	search   searchFunc
	close    func()
	registry *metrics.Registry
	// check books the workload's correctness checks on the kept calls of
	// the fixed-rate phase.
	check func(rep *runReport, pl *phaseLog)
	// traced reports the workload's own layers from the traced phase's
	// spans, its registry window and a sample of its queries.
	traced func(rep *runReport, sl *spanLayers, before, after metrics.RegistrySnapshot, queries []string)
}

// runDistinct runs a serving workload whose every request is a fresh
// query, so the query cache never hits: a warm-up, then the fixed-rate
// phase. Traced, it runs the fixed-rate phase again with timing on and
// then the sustained-rate search.
func runDistinct(ctx context.Context, cfg *runConfig, rep *runReport, rate, limitMS float64,
	build func(rec *recorder) (*distinctFixture, error)) error {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var fx *distinctFixture
	setups, closeFx, err := timedSetups(cfg, rec, func(r *recorder) (func(), error) {
		f, err := build(r)
		if err != nil {
			return nil, err
		}
		fx = f
		return f.close, nil
	})
	if err != nil {
		return err
	}
	defer closeFx()
	qg := newQueryGen(fx.kb, cfg.seed)
	search := func(ctx context.Context, q int) error {
		_, err := fx.search(ctx, serve.RouteChunks, qg.query(q), false)
		return err
	}
	_, next, err := closedLoop(ctx, cfg.inflight, 300*time.Millisecond, 0, search)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	n := int(rate * cfg.seconds)
	phase := func(timing bool) (*phaseLog, *loadResult) {
		base := next
		next += n
		pl := newPhaseLog(n)
		res := openLoop{Rate: rate, N: n, InFlight: cfg.inflight}.run(ctx, func(ctx context.Context, i int) error {
			return pl.searchCall(ctx, fx.search, i, serve.RouteChunks, qg.query(base+i), timing, i%recallEvery == 0)
		})
		return pl, res
	}
	pl, res := phase(false)
	heap := liveHeapMB()
	rep.check("fixed-rate reads", n, res.failures(), "request errors")
	fx.check(rep, pl)
	if ctx.Err() != nil {
		return errInterrupted
	}

	if !cfg.trace {
		rep.add("setup_s", median(setups), len(setups))
		rep.add("heap_live_mb", heap, 1)
		addTail(rep, "p50_ms", "p99_ms", res.latencies(nil))
		noteLateness(rep, res)
		return nil
	}

	before := fx.registry.Snapshot()
	goBefore := readGo()
	tpl, tres := phase(true)
	goAfter := readGo()
	after := fx.registry.Snapshot()
	rep.check("traced reads", n, tres.failures(), "request errors")
	sl := foldSpans(tpl, tres)
	queries := make([]string, min(n, 512))
	for i := range queries {
		queries[i] = qg.query(i)
	}
	fx.traced(rep, sl, before, after, queries)
	sl.addCommon(rep)
	addGoLayer(rep, goBefore, goAfter, n)
	rep.add("trace.overhead_ratio", median(tres.latencies(nil))/median(res.latencies(nil))-1, n)
	addSetupLayers(rep, rec)
	return sustainedRate(ctx, cfg, rep, limitMS, cfg.seconds/2, next, search)
}

// runServeMiss: an open loop of distinct queries on the chunks route of a
// corpus larger than L2. The query cache never hits, so the coalescer
// queue, embedding, scan and HTTP carry the latency.
func runServeMiss(ctx context.Context, cfg *runConfig, rep *runReport) error {
	return runDistinct(ctx, cfg, rep, missRate, missLimitMS, func(r *recorder) (*distinctFixture, error) {
		co := corpusStages(core.DefaultConfig(missScale), r, -1)
		var store *rag.ChunkStore
		r.do("rag.build", -1, func() { store = rag.BuildChunkStore(nil, co.chunks, 0) })
		srv, err := startChunkServer(store)
		if err != nil {
			return nil, err
		}
		client := serve.NewClient("http://"+srv.Addr(), nil)
		refs := &refCache{of: func(route string) *vecstore.Flat { return flatOf(srv, route) }}
		return &distinctFixture{
			kb:       co.kb,
			search:   serveSearch(client),
			close:    func() { client.HTTPClient().CloseIdleConnections(); srv.Close() },
			registry: srv.Registry(),
			check: func(rep *runReport, pl *phaseLog) {
				recallCheck(rep, pl, refs.get)
			},
			traced: func(rep *runReport, sl *spanLayers, before, after metrics.RegistrySnapshot, queries []string) {
				sl.p50(rep, "serve.queue_ms.p50", "queue")
				sl.p99(rep, "serve.queue_ms.p99", "queue")
				sl.p50(rep, "serve.embed_ms.p50", "embed")
				sl.p50(rep, "serve.scan_ms.p50", "scan")
				sl.p99(rep, "serve.scan_ms.p99", "scan")
				sl.p50(rep, "serve.merge_ms.p50", "merge")
				sl.p50(rep, "serve.cache_ms.p50", "cache")
				prefix := serve.MetricPrefix(serve.RouteChunks)
				enc := histDelta(before.Histogram(prefix+"stage.encode"), after.Histogram(prefix+"stage.encode"))
				rep.add("serve.encode_ms.p50", ms(enc.Quantile(0.5)), int(enc.Total))
				addBatchLayers(rep, before, after, prefix)
				addKernelLayers(rep, flatOf(srv, serve.RouteChunks), queries)
			},
		}, nil
	})
}

// addBatchLayers reports a route's coalescing and cache counters over a
// window.
func addBatchLayers(rep *runReport, before, after metrics.RegistrySnapshot, prefix string) {
	batches := counterDelta(before, after, prefix+"batches")
	if batches > 0 {
		rep.add("serve.mean_batch", float64(counterDelta(before, after, prefix+"batch.queries"))/float64(batches), int(batches))
	}
	hits, misses := counterDelta(before, after, prefix+"cache.hits"), counterDelta(before, after, prefix+"cache.misses")
	if hits+misses > 0 {
		rep.add("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	rep.add("serve.flight_shared", float64(counterDelta(before, after, prefix+"flight.shared")), 1)
}

// runServeHotRW: a zipf-keyed open loop over a corpus that fits in L2,
// spread over the chunks route, the three reasoning-trace routes and a
// live route, with one request in eight a one-chunk insert on the live
// route and auto-compaction on. The cache, singleflight, memtable and
// compaction do the work; inserts keep invalidating the live route's
// cache entries.
func runServeHotRW(ctx context.Context, cfg *runConfig, rep *runReport) error {
	var pt *pipeTrace
	if cfg.trace {
		pt = &pipeTrace{rec: newRecorder(), root: -1}
	}
	var srv *serve.Server
	var kb *corpus.KB
	var rec *recorder
	if pt != nil {
		rec = pt.rec
	}
	setups, closeSrv, err := timedSetups(cfg, rec, func(r *recorder) (func(), error) {
		var a *core.Artifacts
		var err error
		if r != nil {
			a, err = replayGenerate(core.DefaultConfig(hotScale), pt)
		} else {
			a, err = core.BuildBenchmark(core.DefaultConfig(hotScale))
		}
		if err != nil {
			return nil, err
		}
		scfg := serve.DefaultConfig()
		scfg.CacheCap, scfg.CompactAt = hotCacheCap, hotCompactAt
		s := serve.NewMulti(scfg)
		if err := s.Mount(serve.RouteChunks, rag.NewChunkFacade(a.ChunkStore)); err != nil {
			return nil, err
		}
		if err := s.MountTraceStores(a.TraceStores); err != nil {
			return nil, err
		}
		// The live route shares the chunk index; its writes go to a
		// memtable and compact into a copy, so the chunks route stays
		// read-only.
		live := rag.WrapChunkStore(nil, a.ChunkStore.Index(), a.Chunks)
		live.EnableLive()
		if err := s.Mount(liveRoute, rag.NewChunkFacade(live)); err != nil {
			return nil, err
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		srv, kb = s, a.KB
		return func() { s.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer closeSrv()
	client := serve.NewClient("http://"+srv.Addr(), nil)
	defer client.HTTPClient().CloseIdleConnections()
	search := serveSearch(client)
	routes := srv.Routes()
	qg := newQueryGen(kb, cfg.seed)
	pool := make([]string, hotPool)
	for i := range pool {
		pool[i] = qg.query(i)
	}
	zipf := rng.NewZipf(hotPool, hotZipfS)

	n := int(hotRate * cfg.seconds)
	var (
		mu       sync.Mutex
		acked    []string
		insertID int
		memMax   int
	)
	isInsert := func(i int) bool { return i%hotInsertEvery == hotInsertEvery-1 }
	phase := func(tag string, timing bool) (*phaseLog, *loadResult) {
		pl := newPhaseLog(n)
		res := openLoop{Rate: hotRate, N: n, InFlight: cfg.inflight}.run(ctx, func(ctx context.Context, i int) error {
			if isInsert(i) {
				mu.Lock()
				first := insertID
				insertID += hotInsertBatch
				mu.Unlock()
				batch := make([]serve.AddChunk, hotInsertBatch)
				for j := range batch {
					id := first + j
					batch[j] = serve.AddChunk{ID: fmt.Sprintf("ins-%d-%d", cfg.seed, id), DocID: "ingest",
						Text: fmt.Sprintf("live ingestion payload %d of run %d with checksum %d", id, cfg.seed, id*7%101)}
				}
				resp, err := client.AddRoute(liveRoute, batch)
				if err != nil {
					return err
				}
				mu.Lock()
				for j := 0; j < resp.Added; j++ {
					acked = append(acked, batch[j].Text)
				}
				memMax = max(memMax, resp.MemRows)
				mu.Unlock()
				return nil
			}
			r := rng.New(cfg.seed).SplitN(tag, i)
			route := routes[r.Intn(len(routes))]
			return pl.searchCall(ctx, search, i, route, pool[zipf.Sample(r)], timing, route != liveRoute && i%recallEvery == 0)
		})
		return pl, res
	}

	before := srv.Registry().Snapshot()
	goBefore := readGo()
	pl, res := phase("hot", false)
	goAfter := readGo()
	after := srv.Registry().Snapshot()
	heap := liveHeapMB()
	inserts := 0
	for i := range res.Failed {
		if isInsert(i) {
			inserts++
		}
	}
	rep.check("fixed-rate reads and inserts", n, res.failures(), "request errors")
	refs := &refCache{of: func(route string) *vecstore.Flat { return flatOf(srv, route) }}
	recallCheck(rep, pl, refs.get)
	lost, err := auditInserts(ctx, client, acked)
	if err != nil {
		return err
	}
	rep.check("acked inserts retrievable after the final compaction", len(acked), lost, "lost inserts")

	if !cfg.trace {
		rep.add("setup_s", median(setups), len(setups))
		rep.add("heap_live_mb", heap, 1)
		addTail(rep, "p50_ms", "p99_ms", res.latencies(func(i int) bool { return !isInsert(i) }))
		noteLateness(rep, res)
		return nil
	}
	addTail(rep, "ingest.insert_ms.p50", "ingest.insert_ms.p99", res.latencies(isInsert))

	var hits, misses, shared int64
	for _, route := range routes {
		p := serve.MetricPrefix(route)
		hits += counterDelta(before, after, p+"cache.hits")
		misses += counterDelta(before, after, p+"cache.misses")
		shared += counterDelta(before, after, p+"flight.shared")
	}
	if hits+misses > 0 {
		rep.add("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	rep.add("serve.flight_shared", float64(shared), 1)
	lp := serve.MetricPrefix(liveRoute)
	lh, lm := counterDelta(before, after, lp+"cache.hits"), counterDelta(before, after, lp+"cache.misses")
	if lh+lm > 0 {
		rep.add("ingest.live_hit_ratio", float64(lh)/float64(lh+lm), int(lh+lm))
	}
	rep.add("ingest.inserts", float64(len(acked)), inserts)
	rep.add("ingest.lost", float64(lost), len(acked))
	rep.add("ingest.compactions", float64(counterDelta(before, srv.Registry().Snapshot(), lp+"compactions")), 1)
	rep.add("ingest.memrows_max", float64(memMax), inserts)
	addGoLayer(rep, goBefore, goAfter, n)

	// The traced phase reads the same key pool with timing on.
	tpl, tres := phase("hot-traced", true)
	rep.check("traced reads and inserts", n, tres.failures(), "request errors")
	sl := foldSpans(tpl, tres)
	sl.p50(rep, "serve.cache_ms.p50", "cache")
	sl.p50(rep, "serve.queue_ms.p50", "queue")
	sl.p99(rep, "serve.queue_ms.p99", "queue")
	sl.p50(rep, "serve.embed_ms.p50", "embed")
	sl.p50(rep, "serve.scan_ms.p50", "scan")
	sl.p99(rep, "serve.scan_ms.p99", "scan")
	sl.p50(rep, "serve.merge_ms.p50", "merge")
	sl.addCommon(rep)
	reads := func(i int) bool { return !isInsert(i) }
	rep.add("trace.overhead_ratio", median(tres.latencies(reads))/median(res.latencies(reads))-1, n)
	addSetupLayers(rep, pt.rec)
	addKernelLayers(rep, flatOf(srv, serve.RouteChunks), pool[:512])
	return nil
}

// auditInserts drains the live route's memtable with forced compactions
// and then looks every acked insert up by its own text: the deterministic
// encoder ranks an exact-text match first, so a lost row is a top-1 miss.
func auditInserts(ctx context.Context, client *serve.Client, acked []string) (int, error) {
	// A forced compaction is skipped while a background one runs, so
	// repeat it until the memtable is empty.
	for attempt := 0; ; attempt++ {
		resp, err := client.CompactRoute(liveRoute)
		if err != nil {
			return 0, fmt.Errorf("final compaction: %w", err)
		}
		if resp.MemRows == 0 {
			break
		}
		if attempt == 100 {
			return 0, fmt.Errorf("final compaction: %d memtable rows left after %d attempts", resp.MemRows, attempt+1)
		}
		if err := retry.Sleep(ctx, 10*time.Millisecond); err != nil {
			return 0, err
		}
	}
	lost := 0
	const batch = 256
	for i := 0; i < len(acked); i += batch {
		texts := acked[i:min(i+batch, len(acked))]
		resp, err := client.SearchRouteBatchCtx(ctx, liveRoute, texts, 1, nil)
		if err != nil {
			return 0, fmt.Errorf("insert audit: %w", err)
		}
		for j, text := range texts {
			if len(resp.Results[j]) != 1 || resp.Results[j][0].Text != text {
				lost++
			}
		}
	}
	return lost, nil
}
