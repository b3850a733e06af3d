package main

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/metrics"
	"repro/internal/rag"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/vecstore"
)

// fleet is the router-fanout fixture: shard servers over a modulo
// partition of the corpus and a router over them, all in process.
type fleet struct {
	shards []*serve.Server
	flats  []*vecstore.Flat
	router *router.Router
}

func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.shards {
		s.Close()
	}
}

// startFleet partitions chunks modulo fanoutShards, as ragserve -shard
// does, builds and serves one store per shard and starts the router.
func startFleet(chunks []chunk.Chunk, rec *recorder) (*fleet, error) {
	parts := make([][]chunk.Chunk, fanoutShards)
	for i, ch := range chunks {
		parts[i%fanoutShards] = append(parts[i%fanoutShards], ch)
	}
	f := &fleet{}
	urls := make([]string, fanoutShards)
	for i, part := range parts {
		var store *rag.ChunkStore
		rec.do("rag.build", -1, func() { store = rag.BuildChunkStore(nil, part, 0) })
		s, err := startChunkServer(store)
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards = append(f.shards, s)
		f.flats = append(f.flats, store.Index().(*vecstore.Flat))
		urls[i] = "http://" + s.Addr()
	}
	r, err := router.New(router.Config{Shards: urls})
	if err == nil {
		err = r.Start("127.0.0.1:0")
	}
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = r
	return f, nil
}

// unsharded assembles one Flat holding every shard's stored vectors, the
// index an unsharded server would search.
func (f *fleet) unsharded() *vecstore.Flat {
	all := vecstore.NewFlat(f.flats[0].Dim())
	buf := make([]float32, all.Dim())
	for _, fl := range f.flats {
		for id := 0; id < fl.Len(); id++ {
			fl.VectorInto(buf, id)
			all.Add(buf, fl.Key(id))
		}
	}
	return all
}

// runRouterFanout: an open loop of distinct queries through the router to
// three healthy in-process shards. The router's own coalescer, scatter,
// merge and HTTP plumbing sit on top of each shard's serving stack.
func runRouterFanout(ctx context.Context, cfg *runConfig, rep *runReport) error {
	return runDistinct(ctx, cfg, rep, fanoutRate, fanoutLimitMS, func(r *recorder) (*distinctFixture, error) {
		co := corpusStages(core.DefaultConfig(fanoutScale), r, -1)
		fl, err := startFleet(co.chunks, r)
		if err != nil {
			return nil, err
		}
		client := router.NewClient("http://"+fl.router.Addr(), nil)
		return &distinctFixture{
			kb: co.kb,
			search: func(ctx context.Context, route, q string, timing bool) (serve.SearchResponse, error) {
				resp, err := client.SearchRouteReqCtx(ctx, route, serve.SearchRequest{Query: q, K: serveK, Timing: timing})
				if err == nil && resp.Degraded {
					err = fmt.Errorf("degraded response from a healthy fleet (%d of %d shards)", resp.ShardsOK, resp.ShardsTotal)
				}
				return serve.SearchResponse{Results: resp.Results, Timing: resp.Timing}, err
			},
			close:    fl.close,
			registry: fl.router.Registry(),
			check: func(rep *runReport, pl *phaseLog) {
				all := fl.unsharded()
				ref := newReference(all)
				recallCheck(rep, pl, func(string) *reference { return ref })
				checkBitIdentical(rep, pl, all)
			},
			traced: func(rep *runReport, sl *spanLayers, before, after metrics.RegistrySnapshot, queries []string) {
				sl.p50(rep, "router.queue_ms.p50", "queue")
				sl.p50(rep, "router.scatter_ms.p50", "scatter")
				sl.p50(rep, "router.merge_ms.p50", "merge")
				if len(sl.skew) > 0 {
					rep.add("router.shard_skew_ms.p99", tailOf(sl.skew, 99).Value, len(sl.skew))
				}
				var retries int64
				for _, name := range fl.router.Shards() {
					retries += counterDelta(before, after, router.ShardMetricPrefix(name)+"retries")
				}
				rep.add("router.retries", float64(retries), 1)
				rep.add("router.breaker_trips", float64(fl.router.BreakerTrips()), 1)
				addKernelLayers(rep, fl.flats[0], queries)
			},
		}, nil
	})
}

// checkBitIdentical books one check per kept router response: its ids and
// float32 scores must equal an unsharded Flat search of the same query,
// bit for bit, with exact score ties ordered by id on both sides.
func checkBitIdentical(rep *runReport, pl *phaseLog, all *vecstore.Flat) {
	enc := embed.NewDefault()
	var n, bad int
	for _, c := range pl.calls {
		if c.ids == nil {
			continue
		}
		n++
		want := all.SearchBatch([][]float32{enc.Encode(c.query)}, serveK)[0]
		got := make([]vecstore.Result, len(c.ids))
		for i := range c.ids {
			got[i] = vecstore.Result{Key: c.ids[i], Score: c.scores[i]}
		}
		if !sameResults(got, want) {
			bad++
		}
	}
	rep.check("router results bit-identical to an unsharded Flat search", n, bad, "mismatched ids or scores")
}

func sameResults(a, b []vecstore.Result) bool {
	if len(a) != len(b) {
		return false
	}
	order := func(rs []vecstore.Result) {
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].Score != rs[j].Score {
				return rs[i].Score > rs[j].Score
			}
			return rs[i].Key < rs[j].Key
		})
	}
	a, b = append([]vecstore.Result(nil), a...), append([]vecstore.Result(nil), b...)
	order(a)
	order(b)
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}
