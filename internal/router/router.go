// Package router is the fault-tolerant shard-scatter/gather tier in front
// of a fleet of ragserve backends: the corpus is partitioned across N
// shards (corpusgen-style modulo split), every incoming search is
// coalesced into a micro-batch, scattered to all shards concurrently and
// merged back into the exact global top-k — the scan.go segment-merge
// discipline lifted across the network.
//
// The headline is the robustness layer wrapped around every shard call:
//
//   - a per-shard deadline, context-propagated end to end (router attempt
//     ctx → HTTP request → backend handler → backend coalescer);
//   - bounded retries with the shared internal/retry backoff policy
//     (exponential, deterministic jitter), 5xx and transport errors only;
//   - a per-shard circuit breaker (consecutive-failure trip, cooldown,
//     half-open probe driven by the background health prober);
//   - graceful degradation: when a shard is down, tripped or timing out,
//     clients get the exact merged top-k over the surviving shards with
//     degraded:true and shards_ok/shards_total on the wire — never a 5xx
//     while at least one shard answers.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/batch"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/serve"
)

// Config parameterises a Router.
type Config struct {
	// Shards are the backend base URLs ("http://host:port"), one per
	// corpus partition. Order defines the shard names (shard0, shard1, …).
	Shards []string
	// Routes are the route names the router serves; every shard must
	// mount all of them (default: just "chunks").
	Routes []string
	// MaxBatch caps the coalesced micro-batch scattered per shard call
	// (default 32). A request on an idle route is scattered at once;
	// requests that queue while a batch is out form the next one.
	MaxBatch int
	// DefaultK / MaxK bound the retrieval depth as on the backends.
	DefaultK int
	MaxK     int
	// MaxBatchQueries bounds one explicit batch request (default 1024).
	MaxBatchQueries int
	// ShardTimeout is the per-attempt deadline of one shard call
	// (default 2s). It propagates to the backend as the request context.
	ShardTimeout time.Duration
	// Retry is the per-shard retry policy (5xx/transport errors only);
	// zero value takes the retry defaults (3 retries, 1ms base backoff).
	Retry retry.Policy
	// Breaker is the per-shard circuit-breaker configuration.
	Breaker BreakerConfig
	// ProbeInterval is the health prober's period (default 500ms). The
	// prober polls every shard's /healthz and is what closes a tripped
	// breaker again once the shard reports "ok".
	ProbeInterval time.Duration
	// SlowLog is the per-route retention of slowest traces served at
	// GET /debug/slowlog/<route> (0 selects obs.DefaultSlowLogSize).
	SlowLog int
	// Debug mounts net/http/pprof under /debug/pprof/ (opt-in).
	Debug bool
	// Registry receives the router's metrics; nil creates a private one.
	Registry *metrics.Registry
	// HTTPClient is shared by all shard clients; nil gets the serve
	// client default (30s timeout, pooled transport).
	HTTPClient *http.Client
}

func (c *Config) fill() {
	if len(c.Routes) == 0 {
		c.Routes = []string{serve.RouteChunks}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.DefaultK <= 0 {
		c.DefaultK = 5
	}
	if c.MaxK <= 0 {
		c.MaxK = 100
	}
	if c.MaxBatchQueries <= 0 {
		c.MaxBatchQueries = 1024
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Second
	}
	c.Retry = c.Retry.Fill()
	c.Breaker.fill()
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
}

// errAllShardsFailed is the only condition the router answers with a 5xx:
// not one shard produced results for the batch.
var errAllShardsFailed = errors.New("router: all shards failed")

// errShardTripped marks a call skipped because the shard's breaker is
// open — not an attempt, so it neither retries nor re-records a failure.
var errShardTripped = errors.New("router: shard breaker open")

// shard is one backend and its failure-handling state.
type shard struct {
	name   string
	url    string
	client *serve.Client
	br     *breaker

	probe   atomic.Value // string: ok | degraded | unreachable | unknown
	lastErr atomic.Value // lastError

	mRequests, mFailures, mRetries, mRejects *metrics.Counter
	gState, gTrips                           *metrics.Gauge
	hLatency                                 *metrics.Histogram
}

// lastError is a shard's most recent failure as /healthz reports it:
// bounded text plus when it happened, so an operator can tell a fresh
// outage from one the breaker recovered from minutes ago.
type lastError struct {
	msg string
	at  time.Time
}

// maxLastErrLen bounds the error text retained per shard — wrapped
// transport errors repeat the full URL per attempt and would otherwise
// bloat every /healthz reply.
const maxLastErrLen = 200

// setLastErr records a failure, truncating on a rune boundary.
func (sh *shard) setLastErr(err error) {
	msg := err.Error()
	if len(msg) > maxLastErrLen {
		cut := maxLastErrLen
		for cut > 0 && !utf8.RuneStart(msg[cut]) {
			cut--
		}
		msg = msg[:cut] + "…"
	}
	sh.lastErr.Store(lastError{msg: msg, at: time.Now()})
}

// route is the per-route serving state: its own coalescer and metrics,
// mirroring the backend design so one route's traffic cannot stall
// another's.
type route struct {
	name string
	co   *batch.Coalescer[job, result]
	slow *obs.SlowLog

	mRequests, mDegraded, mErrors           *metrics.Counter
	mBatches, mBatchedQueries               *metrics.Counter
	hLatency                                *metrics.Histogram
	hBatch                                  *metrics.Histogram
	hStageQueue, hStageScatter, hStageMerge *metrics.Histogram
	hStageEncode                            *metrics.Histogram
}

type job struct {
	query   string
	k       int
	exclude string

	// Tracing mirrors the serve tier: enq starts the queue span, tr lets
	// the batch function attribute the shared scatter/merge stages back to
	// every member request (nil for untraced programmatic callers).
	enq time.Time
	tr  *obs.Trace
}

type result struct {
	results     []serve.SearchResult
	degraded    bool
	shardsOK    int
	shardsTotal int
	err         error
}

// Router is the scatter/gather front-end over a static shard map.
type Router struct {
	cfg    Config
	reg    *metrics.Registry
	shards []*shard
	routes map[string]*route

	ctx        context.Context
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	proberOnce sync.Once

	httpSrv *http.Server
	ln      net.Listener
}

// MetricPrefix returns a route's metrics namespace ("router.<name>." with
// path separators mapped to dots), mirroring serve.MetricPrefix.
func MetricPrefix(routeName string) string {
	return "router." + strings.ReplaceAll(routeName, "/", ".") + "."
}

// ShardMetricPrefix returns a shard's metrics namespace
// ("router.shard.<name>.").
func ShardMetricPrefix(shardName string) string {
	return "router.shard." + shardName + "."
}

// New builds a router over cfg.Shards. It does not contact the shards;
// the health prober starts with Start (or Handler) and the breakers start
// closed.
func New(cfg Config) (*Router, error) {
	cfg.fill()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Router{cfg: cfg, reg: reg, routes: make(map[string]*route, len(cfg.Routes)), ctx: ctx, cancel: cancel}
	for i, url := range cfg.Shards {
		name := fmt.Sprintf("shard%d", i)
		p := ShardMetricPrefix(name)
		sh := &shard{
			name:      name,
			url:       url,
			client:    serve.NewClient(url, cfg.HTTPClient),
			br:        newBreaker(cfg.Breaker),
			mRequests: reg.Counter(p + "requests"),
			mFailures: reg.Counter(p + "failures"),
			mRetries:  reg.Counter(p + "retries"),
			mRejects:  reg.Counter(p + "breaker.rejects"),
			gState:    reg.Gauge(p + "breaker.state"),
			gTrips:    reg.Gauge(p + "breaker.trips"),
			hLatency:  reg.Histogram(p + "latency"),
		}
		sh.probe.Store("unknown")
		r.shards = append(r.shards, sh)
	}
	for _, name := range cfg.Routes {
		p := MetricPrefix(name)
		rt := &route{
			name:            name,
			slow:            obs.NewSlowLog(cfg.SlowLog),
			mRequests:       reg.Counter(p + "requests"),
			mDegraded:       reg.Counter(p + "degraded"),
			mErrors:         reg.Counter(p + "errors"),
			mBatches:        reg.Counter(p + "batches"),
			mBatchedQueries: reg.Counter(p + "batch.queries"),
			hLatency:        reg.Histogram(p + "latency"),
			hBatch:          reg.SizeHistogram(p + "batch.size"),
			hStageQueue:     reg.Histogram(p + "stage.queue"),
			hStageScatter:   reg.Histogram(p + "stage.scatter"),
			hStageMerge:     reg.Histogram(p + "stage.merge"),
			hStageEncode:    reg.Histogram(p + "stage.encode"),
		}
		rt.co = batch.New(batch.Config{MaxBatch: cfg.MaxBatch}, func(jobs []job) []result {
			return r.runBatch(rt, jobs)
		})
		r.routes[name] = rt
	}
	return r, nil
}

// Registry exposes the router's metrics registry.
func (r *Router) Registry() *metrics.Registry { return r.reg }

// Routes lists the served route names, sorted.
func (r *Router) Routes() []string {
	out := make([]string, 0, len(r.routes))
	for name := range r.routes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Shards reports the shard map (name → URL) in shard order.
func (r *Router) Shards() []string {
	out := make([]string, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.url
	}
	return out
}

// BreakerTrips sums the trip count across all shards (the bench
// harness's breaker accounting).
func (r *Router) BreakerTrips() int64 {
	var n int64
	for _, sh := range r.shards {
		n += sh.br.Trips()
	}
	return n
}

// runBatch is a route's coalescer batch function: scatter the whole
// micro-batch to every shard concurrently, then merge per query.
func (r *Router) runBatch(rt *route, jobs []job) []result {
	t0 := time.Now()
	queries := make([]string, len(jobs))
	var excludes []string
	maxK := 0
	// The fan-out leader is the first traced member: its id rides the
	// X-Trace-Id header to every shard, and the shards' span timelines are
	// grafted back onto its trace. The other members still get the shared
	// queue/scatter/merge spans — they did wait for the same fan-out.
	var lead *obs.Trace
	for i, j := range jobs {
		queries[i] = j.query
		if j.k > maxK {
			maxK = j.k
		}
		if j.exclude != "" && excludes == nil {
			excludes = make([]string, len(jobs))
		}
		if !j.enq.IsZero() {
			wait := t0.Sub(j.enq)
			rt.hStageQueue.Observe(wait)
			j.tr.AddSpan("queue", j.enq, wait)
		}
		if lead == nil && j.tr != nil {
			lead = j.tr
		}
	}
	if excludes != nil {
		for i, j := range jobs {
			excludes[i] = j.exclude
		}
	}
	scatterStart := time.Now()
	perShard, okFlags, timings := r.scatter(rt, queries, maxK, excludes, lead)
	scatterDur := time.Since(scatterStart)
	rt.hStageScatter.Observe(scatterDur)
	for _, j := range jobs {
		j.tr.AddSpan("scatter", scatterStart, scatterDur)
	}
	r.attachShardTimings(lead, scatterStart, timings)
	ok := 0
	for _, f := range okFlags {
		if f {
			ok++
		}
	}
	outs := make([]result, len(jobs))
	if ok == 0 {
		for i := range outs {
			outs[i] = result{err: errAllShardsFailed, shardsTotal: len(r.shards)}
		}
		return outs
	}
	degraded := ok < len(r.shards)
	mergeStart := time.Now()
	lists := make([][]serve.SearchResult, 0, ok)
	for qi := range jobs {
		lists = lists[:0]
		for si := range r.shards {
			if okFlags[si] {
				lists = append(lists, perShard[si][qi])
			}
		}
		outs[qi] = result{
			results:     MergeTopK(lists, jobs[qi].k),
			degraded:    degraded,
			shardsOK:    ok,
			shardsTotal: len(r.shards),
		}
	}
	mergeDur := time.Since(mergeStart)
	rt.hStageMerge.Observe(mergeDur)
	for _, j := range jobs {
		j.tr.AddSpan("merge", mergeStart, mergeDur)
	}
	return outs
}

// attachShardTimings grafts the ok shards' remote span timelines onto the
// fan-out leader's trace, anchored at the instant the scatter began —
// clock skew between router and shard cannot reorder the merged timeline.
func (r *Router) attachShardTimings(lead *obs.Trace, at time.Time, timings []*serve.TimingInfo) {
	if lead == nil {
		return
	}
	for si, ti := range timings {
		if ti != nil {
			lead.AttachAt(r.shards[si].name+".", at, ti.Spans)
		}
	}
}

// scatter issues one batch-search per shard concurrently and returns each
// shard's per-query result lists, a per-shard success flag, and each ok
// shard's span timeline (nil when the shard failed). tr is the fan-out
// leader's trace; its id propagates to every shard call.
func (r *Router) scatter(rt *route, queries []string, k int, excludes []string, tr *obs.Trace) ([][][]serve.SearchResult, []bool, []*serve.TimingInfo) {
	rt.mBatches.Inc()
	rt.mBatchedQueries.Add(int64(len(queries)))
	rt.hBatch.ObserveN(int64(len(queries)))
	perShard := make([][][]serve.SearchResult, len(r.shards))
	okFlags := make([]bool, len(r.shards))
	timings := make([]*serve.TimingInfo, len(r.shards))
	var wg sync.WaitGroup
	for i, sh := range r.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			resp, err := r.callShard(sh, rt.name, queries, k, excludes, tr)
			if err == nil {
				perShard[i], okFlags[i], timings[i] = resp.Results, true, resp.Timing
			}
		}(i, sh)
	}
	wg.Wait()
	return perShard, okFlags, timings
}

// callShard runs one shard call under the robustness stack: breaker
// admission, per-attempt deadline, bounded retry on transient failures.
// The shard is always asked for timing — a few hundred extra bytes per
// micro-batch buys the cross-tier span timeline unconditionally, so the
// slowlog never misses the shard-side breakdown of a slow fan-out.
func (r *Router) callShard(sh *shard, routeName string, queries []string, k int, excludes []string, tr *obs.Trace) (serve.BatchSearchResponse, error) {
	if !sh.br.Allow() {
		sh.mRejects.Inc()
		return serve.BatchSearchResponse{}, errShardTripped
	}
	sh.mRequests.Inc()
	start := time.Now()
	var resp serve.BatchSearchResponse
	attempts := 0
	err := r.cfg.Retry.Do(obs.WithTrace(r.ctx, tr), func(ctx context.Context) error {
		if attempts > 0 {
			sh.mRetries.Inc()
		}
		attempts++
		actx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
		defer cancel()
		var e error
		resp, e = sh.client.SearchRouteBatchReqCtx(actx, routeName,
			serve.BatchSearchRequest{Queries: queries, K: k, Exclude: excludes, Timing: true})
		return e
	}, retryableError)
	sh.hLatency.Observe(time.Since(start))
	if err == nil && len(resp.Results) != len(queries) {
		err = fmt.Errorf("router: shard %s returned %d result sets for %d queries", sh.name, len(resp.Results), len(queries))
	}
	if err != nil {
		sh.mFailures.Inc()
		sh.setLastErr(err)
		sh.br.Record(false)
		r.publishShardGauges(sh)
		return serve.BatchSearchResponse{}, err
	}
	sh.br.Record(true)
	r.publishShardGauges(sh)
	return resp, nil
}

func (r *Router) publishShardGauges(sh *shard) {
	sh.gState.Set(int64(sh.br.State()))
	sh.gTrips.Set(sh.br.Trips())
}

// retryableError classifies a shard error: 5xx and transport failures
// (connection refused, per-attempt deadline) are transient and worth the
// backoff; a 4xx is the router's own malformed request, and a cancelled
// parent context means the router is shutting down — neither retries.
func retryableError(err error) bool {
	var se *serve.StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return !errors.Is(err, context.Canceled)
}

// probeLoop polls every shard's /healthz each ProbeInterval. It is the
// recovery path of the breaker state machine: when a breaker has cooled
// into half-open, the probe is the single admitted trial, so client
// traffic never pays the latency of poking a possibly-still-dead shard —
// degraded responses continue until a probe proves the shard back.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
		}
		for _, sh := range r.shards {
			r.probeShard(sh)
		}
	}
}

// probeShard fetches one shard's /healthz and, when the breaker is open
// past its cooldown, uses the outcome as the half-open probe. A shard
// reporting "degraded" (a route with zero vectors) counts as a failed
// probe: it is alive but cannot serve its slice of the corpus.
func (r *Router) probeShard(sh *shard) {
	ctx, cancel := context.WithTimeout(r.ctx, r.cfg.ProbeInterval)
	hz, err := sh.client.HealthzCtx(ctx)
	cancel()
	status := "unreachable"
	if err == nil {
		status = hz.Status
	}
	sh.probe.Store(status)
	if err != nil {
		sh.setLastErr(err)
	}
	if sh.br.AllowProbe() {
		sh.br.Record(err == nil && status == "ok")
	}
	r.publishShardGauges(sh)
}

// search answers one query through the route's coalescer.
func (r *Router) search(ctx context.Context, rt *route, query string, k int, exclude string) (result, error) {
	if k <= 0 {
		k = r.cfg.DefaultK
	}
	if k > r.cfg.MaxK {
		k = r.cfg.MaxK
	}
	rt.mRequests.Inc()
	start := time.Now()
	defer func() { rt.hLatency.Observe(time.Since(start)) }()
	out, err := rt.co.Do(ctx, job{query: query, k: k, exclude: exclude, enq: time.Now(), tr: obs.FromContext(ctx)})
	if err != nil {
		return result{}, err
	}
	if out.err != nil {
		return result{}, out.err
	}
	if out.degraded {
		rt.mDegraded.Inc()
	}
	return out, nil
}

// Handler returns the HTTP API. Per configured route <name>:
//
//	POST /v1/<name>/search        → {"results","degraded","shards_ok","shards_total","route"}
//	POST /v1/<name>/search/batch  → {"results":[[…],…],"degraded",…}
//
// plus the chunks-route legacy aliases /v1/search and /v1/search/batch
// (when "chunks" is routed) and the shared endpoints:
//
//	GET /healthz   per-shard breaker state, probe status, trip counts
//	GET /metrics   text exposition of the registry
//
// and the debug surface:
//
//	GET /debug/slowlog/<route>   {"route","slowest":[trace records]}
//	GET /debug/pprof/...         net/http/pprof (only with Config.Debug)
//
// Calling Handler (or Start) also starts the background health prober.
func (r *Router) Handler() http.Handler {
	r.startProber()
	mux := http.NewServeMux()
	for name, rt := range r.routes {
		mux.HandleFunc("POST /v1/"+name+"/search", r.searchHandler(rt))
		mux.HandleFunc("POST /v1/"+name+"/search/batch", r.batchHandler(rt))
	}
	if rt, ok := r.routes[serve.RouteChunks]; ok {
		mux.HandleFunc("POST /v1/search", r.searchHandler(rt))
		mux.HandleFunc("POST /v1/search/batch", r.batchHandler(rt))
	}
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /debug/slowlog/{route...}", r.handleSlowlog)
	if r.cfg.Debug {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleSlowlog serves a route's retained slowest traces.
func (r *Router) handleSlowlog(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("route")
	rt, ok := r.routes[name]
	if !ok {
		http.Error(w, fmt.Sprintf("router: unknown route %q (routed: %s)", name, strings.Join(r.Routes(), ", ")),
			http.StatusNotFound)
		return
	}
	writeJSON(w, obs.SlowLogPage{Route: rt.name, Slowest: rt.slow.Snapshot()})
}

func (r *Router) startProber() {
	// Guarded per router, not globally: Handler may be called once for
	// Start and once directly in tests.
	r.proberOnce.Do(func() {
		r.wg.Add(1)
		go r.probeLoop()
	})
}

// Start binds addr and serves in the background until Shutdown.
func (r *Router) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	r.ln = ln
	r.httpSrv = &http.Server{Handler: r.Handler(), ReadTimeout: 30 * time.Second}
	go r.httpSrv.Serve(ln) //nolint:errcheck // Serve returns on Shutdown
	return nil
}

// Addr returns the bound address (after Start).
func (r *Router) Addr() string { return r.ln.Addr().String() }

// Shutdown drains gracefully: stop accepting, finish in-flight requests
// within ctx, then stop the prober, the coalescers and any pending
// shard-call backoffs (the lifecycle context aborts their sleeps).
func (r *Router) Shutdown(ctx context.Context) error {
	var err error
	if r.httpSrv != nil {
		err = r.httpSrv.Shutdown(ctx)
	}
	r.cancel()
	for _, rt := range r.routes {
		rt.co.Close()
	}
	r.wg.Wait()
	return err
}

// Close is Shutdown with a bounded drain window.
func (r *Router) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return r.Shutdown(ctx)
}

// Wire types.

// SearchResponse is the router's single-query reply: the backend reply
// shape plus the degradation contract — degraded is set when any shard
// did not contribute, and shards_ok/shards_total say how partial the
// top-k is.
type SearchResponse struct {
	Results     []serve.SearchResult `json:"results"`
	Degraded    bool                 `json:"degraded,omitempty"`
	ShardsOK    int                  `json:"shards_ok"`
	ShardsTotal int                  `json:"shards_total"`
	Route       string               `json:"route,omitempty"`
	Timing      *serve.TimingInfo    `json:"timing,omitempty"`
}

// BatchSearchResponse is the router's batch reply, per-query results in
// request order, with the same degradation contract for the whole batch.
type BatchSearchResponse struct {
	Results     [][]serve.SearchResult `json:"results"`
	Degraded    bool                   `json:"degraded,omitempty"`
	ShardsOK    int                    `json:"shards_ok"`
	ShardsTotal int                    `json:"shards_total"`
	Route       string                 `json:"route,omitempty"`
	Timing      *serve.TimingInfo      `json:"timing,omitempty"`
}

// ShardHealth is one shard's entry in the router's /healthz reply.
type ShardHealth struct {
	URL string `json:"url"`
	// Breaker is the circuit state: closed | open | half-open.
	Breaker string `json:"breaker"`
	// Probe is the last /healthz poll outcome: ok | degraded |
	// unreachable | unknown (not yet probed).
	Probe            string `json:"probe"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	Trips            int64  `json:"trips"`
	// LastError is the shard's most recent failure, truncated to a bounded
	// length; LastErrorAt is when it happened (RFC 3339, UTC).
	LastError   string `json:"last_error,omitempty"`
	LastErrorAt string `json:"last_error_at,omitempty"`
}

// Healthz is the router's /healthz reply.
type Healthz struct {
	// Status is "ok" when every breaker is closed, "degraded" otherwise.
	Status      string                 `json:"status"`
	ShardsOK    int                    `json:"shards_ok"`
	ShardsTotal int                    `json:"shards_total"`
	Routes      []string               `json:"routes"`
	Shards      map[string]ShardHealth `json:"shards"`
}

func (r *Router) searchHandler(rt *route) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var sr serve.SearchRequest
		if !r.decode(rt, w, req, &sr) {
			return
		}
		if sr.Query == "" {
			rt.mErrors.Inc()
			http.Error(w, "empty query", http.StatusBadRequest)
			return
		}
		// Adopt the caller's trace id or mint one; either way it propagates
		// to the shards when this request leads its micro-batch's fan-out.
		tr := obs.NewTrace(req.Header.Get(obs.TraceHeader))
		out, err := r.search(obs.WithTrace(req.Context(), tr), rt, sr.Query, sr.K, sr.Exclude)
		if err != nil {
			rt.mErrors.Inc()
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		resp := SearchResponse{
			Results:     out.results,
			Degraded:    out.degraded,
			ShardsOK:    out.shardsOK,
			ShardsTotal: out.shardsTotal,
			Route:       rt.name,
		}
		if sr.Timing {
			resp.Timing = &serve.TimingInfo{TraceID: tr.ID(), TotalUS: tr.Since().Microseconds(), Spans: tr.Spans()}
		}
		rt.encodeTraced(w, tr, resp)
		rt.slow.Record(tr, "search", sr.Query)
	}
}

// encodeTraced writes the JSON response under an "encode" span and the
// encode-stage histogram, mirroring the serve tier.
func (rt *route) encodeTraced(w http.ResponseWriter, tr *obs.Trace, v any) {
	start := time.Now()
	writeJSON(w, v)
	d := time.Since(start)
	rt.hStageEncode.Observe(d)
	tr.AddSpan("encode", start, d)
}

// batchHandler serves an explicit batch as its own micro-batch: it
// bypasses the coalescer and scatters directly, exactly like the
// backends' batch endpoints bypass theirs.
func (r *Router) batchHandler(rt *route) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var br serve.BatchSearchRequest
		if !r.decode(rt, w, req, &br) {
			return
		}
		if len(br.Queries) == 0 {
			rt.mErrors.Inc()
			http.Error(w, "empty queries", http.StatusBadRequest)
			return
		}
		if len(br.Queries) > r.cfg.MaxBatchQueries {
			rt.mErrors.Inc()
			http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(br.Queries), r.cfg.MaxBatchQueries),
				http.StatusRequestEntityTooLarge)
			return
		}
		if len(br.Exclude) != 0 && len(br.Exclude) != len(br.Queries) {
			rt.mErrors.Inc()
			http.Error(w, fmt.Sprintf("exclude has %d entries for %d queries", len(br.Exclude), len(br.Queries)),
				http.StatusBadRequest)
			return
		}
		k := br.K
		if k <= 0 {
			k = r.cfg.DefaultK
		}
		if k > r.cfg.MaxK {
			k = r.cfg.MaxK
		}
		rt.mRequests.Add(int64(len(br.Queries)))
		tr := obs.NewTrace(req.Header.Get(obs.TraceHeader))
		scatterStart := time.Now()
		perShard, okFlags, timings := r.scatter(rt, br.Queries, k, br.Exclude, tr)
		scatterDur := time.Since(scatterStart)
		rt.hStageScatter.Observe(scatterDur)
		tr.AddSpan("scatter", scatterStart, scatterDur)
		r.attachShardTimings(tr, scatterStart, timings)
		ok := 0
		for _, f := range okFlags {
			if f {
				ok++
			}
		}
		if ok == 0 {
			rt.mErrors.Inc()
			http.Error(w, errAllShardsFailed.Error(), http.StatusServiceUnavailable)
			return
		}
		resp := BatchSearchResponse{
			Results:     make([][]serve.SearchResult, len(br.Queries)),
			Degraded:    ok < len(r.shards),
			ShardsOK:    ok,
			ShardsTotal: len(r.shards),
			Route:       rt.name,
		}
		mergeStart := time.Now()
		lists := make([][]serve.SearchResult, 0, ok)
		for qi := range br.Queries {
			lists = lists[:0]
			for si := range r.shards {
				if okFlags[si] {
					lists = append(lists, perShard[si][qi])
				}
			}
			resp.Results[qi] = MergeTopK(lists, k)
		}
		mergeDur := time.Since(mergeStart)
		rt.hStageMerge.Observe(mergeDur)
		tr.AddSpan("merge", mergeStart, mergeDur)
		if resp.Degraded {
			rt.mDegraded.Add(int64(len(br.Queries)))
		}
		if br.Timing {
			resp.Timing = &serve.TimingInfo{TraceID: tr.ID(), TotalUS: tr.Since().Microseconds(), Spans: tr.Spans()}
		}
		rt.encodeTraced(w, tr, resp)
		rt.slow.Record(tr, "search/batch", br.Queries[0])
	}
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	hz := Healthz{
		Status:      "ok",
		ShardsTotal: len(r.shards),
		Routes:      r.Routes(),
		Shards:      make(map[string]ShardHealth, len(r.shards)),
	}
	for _, sh := range r.shards {
		state := sh.br.State()
		if state == BreakerClosed {
			hz.ShardsOK++
		} else {
			hz.Status = "degraded"
		}
		entry := ShardHealth{
			URL:              sh.url,
			Breaker:          state.String(),
			Probe:            sh.probe.Load().(string),
			ConsecutiveFails: sh.br.ConsecutiveFails(),
			Trips:            sh.br.Trips(),
		}
		if le, ok := sh.lastErr.Load().(lastError); ok {
			entry.LastError = le.msg
			entry.LastErrorAt = le.at.UTC().Format(time.RFC3339)
		}
		hz.Shards[sh.name] = entry
	}
	writeJSON(w, hz)
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	r.reg.WriteTo(w) //nolint:errcheck // client went away
}

func (r *Router) decode(rt *route, w http.ResponseWriter, req *http.Request, dst any) bool {
	body, err := io.ReadAll(io.LimitReader(req.Body, 16<<20))
	if err != nil {
		rt.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, dst); err != nil {
		rt.mErrors.Inc()
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}
