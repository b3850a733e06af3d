package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/metrics"
	"repro/internal/rag"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/vecstore"
)

// serveK is the retrieval depth of every serving request.
const serveK = 5

// servingSetupReps is how many times a serving workload builds its corpus,
// index and servers; setup_s is their median. Only the last build serves.
const servingSetupReps = 5

// queryGen draws a run's query texts from its seed: a knowledge-base
// question stem, two seeded subject terms and the request number, so every
// query of a run is distinct and a different seed gives different queries.
type queryGen struct {
	seed  uint64
	stems []string
	terms []string
}

func newQueryGen(kb *corpus.KB, seed uint64) *queryGen {
	g := &queryGen{seed: seed}
	for _, f := range kb.AllFacts() {
		g.stems = append(g.stems, f.QuestionStem())
		g.terms = append(g.terms, f.Subject)
	}
	return g
}

func (g *queryGen) query(i int) string {
	r := rng.New(g.seed).SplitN("query", i)
	return fmt.Sprintf("%s %s %s q%d", g.stems[r.Intn(len(g.stems))], g.terms[r.Intn(len(g.terms))],
		g.terms[r.Intn(len(g.terms))], i)
}

// timedSetups builds a workload's serving fixture servingSetupReps times
// and returns each build's duration in seconds; the first build is timed
// from process start. Every build but the last is torn down at once. The
// last build records its set-up spans in rec when rec is non-nil.
func timedSetups(cfg *runConfig, rec *recorder, build func(rec *recorder) (closeFn func(), err error)) ([]float64, func(), error) {
	var setups []float64
	var closeLast func()
	for i := 0; i < servingSetupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = cfg.start
		}
		var r *recorder
		if i == servingSetupReps-1 {
			r = rec
		}
		closeFn, err := build(r)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < servingSetupReps-1 {
			closeFn()
		} else {
			closeLast = closeFn
		}
	}
	return setups, closeLast, nil
}

// addSetupLayers reports the traced set-up's stage spans.
func addSetupLayers(rep *runReport, rec *recorder) {
	for _, s := range []string{"corpus.render", "spdf.parse", "chunk.split", "rag.build"} {
		rep.add(s+"_ms", ms(rec.dur(s)), 1)
	}
}

// startChunkServer mounts store as the chunks route of a fresh server with
// the serving defaults, on an ephemeral loopback port.
func startChunkServer(store *rag.ChunkStore) (*serve.Server, error) {
	srv := serve.NewMulti(serve.DefaultConfig())
	if err := srv.Mount(serve.RouteChunks, rag.NewChunkFacade(store)); err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

// call is one client request's record for the trace analysis and the
// correctness checks.
type call struct {
	rtt    time.Duration
	timing *serve.TimingInfo
	ids    []string
	scores []float32
	query  string
	route  string
}

// phaseLog keeps the calls of an open-loop phase by request index.
type phaseLog struct {
	calls []call
}

func newPhaseLog(n int) *phaseLog { return &phaseLog{calls: make([]call, n)} }

// searchFunc issues one search for q on route, with the server's stage
// spans in the reply when timing is set.
type searchFunc func(ctx context.Context, route, q string, timing bool) (serve.SearchResponse, error)

// serveSearch searches a serving tier through client.
func serveSearch(client *serve.Client) searchFunc {
	return func(ctx context.Context, route, q string, timing bool) (serve.SearchResponse, error) {
		return client.SearchRouteReqCtx(ctx, route, serve.SearchRequest{Query: q, K: serveK, Timing: timing})
	}
}

// searchCall issues one search on route and records it at slot i.
func (pl *phaseLog) searchCall(ctx context.Context, search searchFunc, i int, route, q string, timing, keep bool) error {
	start := time.Now()
	resp, err := search(ctx, route, q, timing)
	c := &pl.calls[i]
	c.rtt = time.Since(start)
	if err != nil {
		return err
	}
	c.timing = resp.Timing
	c.route = route
	if keep {
		c.query = q
		c.ids = make([]string, len(resp.Results))
		c.scores = make([]float32, len(resp.Results))
		for j, r := range resp.Results {
			c.ids[j], c.scores[j] = r.ID, r.Score
		}
	}
	return nil
}

// noteLateness logs how late the generator ran during a fixed-rate phase.
func noteLateness(rep *runReport, res *loadResult) {
	rep.note("generator lateness: p50 %.3fms, max %.3fms, growth %.3fms over %d requests",
		median(msAll(res.Lateness)), res.maxLateness(), res.latenessGrowth(), len(res.Lateness))
}

// addTail reports lat, in the order it was taken, as p50 (its windowed
// median) and p99 (its windowed tail).
func addTail(rep *runReport, p50, p99 string, lat []float64) {
	if len(lat) == 0 {
		return
	}
	rep.add(p50, windowedMedian(lat), len(lat))
	t := windowedTail(lat)
	if t.Pct < 99 {
		rep.note("%s: %d samples support only p%g; reported that instead", p99, len(lat), t.Pct)
	}
	rep.add(p99, t.Value, len(lat))
}

// spanLayers folds the server timelines of a traced phase into per-layer
// numbers. Spans named "<shard>.<stage>" are a router's grafted shard
// timelines: they nest inside its scatter span, so they count toward the
// shard skew but not toward the request's attributed time.
type spanLayers struct {
	byName map[string][]float64 // ms per span name
	http   []float64            // client round trip minus the server spans
	skew   []float64            // slowest shard minus median shard, ms
	e2e    float64              // summed due-time latency, ms
	unattr float64              // summed latency no layer accounts for, ms
}

func foldSpans(pl *phaseLog, res *loadResult) *spanLayers {
	sl := &spanLayers{byName: map[string][]float64{}}
	for i, c := range pl.calls {
		if res.Failed[i] || c.timing == nil {
			continue
		}
		var own float64
		shards := map[string]float64{}
		for _, sp := range c.timing.Spans {
			d := float64(sp.DurUS) / 1e3
			sl.byName[sp.Name] = append(sl.byName[sp.Name], d)
			if shard, _, nested := strings.Cut(sp.Name, "."); nested {
				shards[shard] += d
				continue
			}
			own += d
		}
		rtt := ms(c.rtt)
		sl.http = append(sl.http, rtt-own)
		// Layers: the generator's slip, the HTTP leg (round trip minus the
		// server's own span of the request) and the server stages. What
		// none of them covers is the server's time between stages plus the
		// client's own glue.
		e2e := ms(res.Latency[i])
		transport := rtt - float64(c.timing.TotalUS)/1e3
		sl.e2e += e2e
		sl.unattr += e2e - ms(res.Lateness[i]) - transport - own
		if len(shards) > 1 {
			var per []float64
			for _, d := range shards {
				per = append(per, d)
			}
			sort.Float64s(per)
			sl.skew = append(sl.skew, per[len(per)-1]-median(per))
		}
	}
	return sl
}

func (sl *spanLayers) p50(rep *runReport, metric, span string) {
	if v := sl.byName[span]; len(v) > 0 {
		rep.add(metric, median(v), len(v))
	}
}

func (sl *spanLayers) p99(rep *runReport, metric, span string) {
	if v := sl.byName[span]; len(v) > 0 {
		rep.add(metric, tailOf(v, 99).Value, len(v))
	}
}

func (sl *spanLayers) addCommon(rep *runReport) {
	if len(sl.http) > 0 {
		rep.add("serve.http_ms.p50", median(sl.http), len(sl.http))
	}
	if sl.e2e > 0 {
		rep.add("trace.unattributed_ratio", sl.unattr/sl.e2e, len(sl.http))
	}
}

// counterDelta is a registry counter's change between two snapshots.
func counterDelta(before, after metrics.RegistrySnapshot, name string) int64 {
	return after.Counter(name) - before.Counter(name)
}

// histDelta is the histogram of observations made between two snapshots.
func histDelta(before, after metrics.Snapshot) metrics.Snapshot {
	d := after
	d.Counts = append([]int64(nil), after.Counts...)
	for i := range d.Counts {
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	d.Total = after.Total - before.Total
	return d
}

// recallCheck compares the kept calls of a phase with the float64
// reference of the index each was served from and books one check per
// call. refOf returns nil for routes the reference does not cover.
func recallCheck(rep *runReport, pl *phaseLog, refOf func(route string) *reference) {
	enc := embed.NewDefault()
	var sum float64
	var n, bad int
	for _, c := range pl.calls {
		if c.ids == nil {
			continue
		}
		ref := refOf(c.route)
		if ref == nil {
			continue
		}
		r := ref.recall(enc.Encode(c.query), c.ids, serveK)
		sum += r
		n++
		if r < 1 {
			bad++
		}
	}
	if n == 0 {
		rep.check("recall sample", 1, 1, "no sampled responses")
		return
	}
	rep.check("recall@k against float64 reference", n, bad, fmt.Sprintf("mean recall %.4f", sum/float64(n)))
}

// flatOf returns a route's current index as a Flat, or nil.
func flatOf(srv *serve.Server, route string) *vecstore.Flat {
	snap, ok := srv.RouteSnapshot(route)
	if !ok {
		return nil
	}
	f, _ := snap.Store.Index().(*vecstore.Flat)
	return f
}

// refCache builds each route's reference once.
type refCache struct {
	refs map[string]*reference
	of   func(route string) *vecstore.Flat
}

func (rc *refCache) get(route string) *reference {
	if r, ok := rc.refs[route]; ok {
		return r
	}
	var r *reference
	if f := rc.of(route); f != nil {
		r = newReference(f)
	}
	if rc.refs == nil {
		rc.refs = map[string]*reference{}
	}
	rc.refs[route] = r
	return r
}
