package serve

import (
	"context"
	"encoding/json"
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

	"repro/internal/batch"
	"repro/internal/chunk"
	"repro/internal/mcq"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rag"
	"repro/internal/vecstore"
)

// Store is the retrieval backend behind one route: the rag serving facade
// (RetrieveBatch over store-agnostic hits, the WithIndex snapshot hook,
// Index/Len). rag.NewChunkFacade and rag.NewTraceFacade adapt the two
// concrete store kinds.
type Store = rag.Facade

// RouteChunks is the name of the default chunk-store route, reachable both
// at /v1/chunks/... and at the legacy single-store paths /v1/search,
// /v1/search/batch and /admin/swap.
const RouteChunks = "chunks"

// TraceRoute returns the route name of one reasoning-trace mode
// ("traces/detailed" etc.).
func TraceRoute(mode mcq.ReasoningMode) string { return "traces/" + string(mode) }

// Config parameterises a Server. Every mounted route gets its own
// coalescer and cache built from the same configuration.
type Config struct {
	// MaxBatch caps the coalesced batch handed to RetrieveBatch
	// (default 32). A request on an idle route is dispatched at once;
	// requests that queue while a batch runs form the next one.
	MaxBatch int
	// CacheCap is the per-route query-cache capacity in entries; 0
	// disables the caches (default 4096 via DefaultConfig).
	CacheCap int
	// CacheShards splits each cache to reduce lock contention (default 8).
	CacheShards int
	// DefaultK is the retrieval depth when a request omits k (default 5).
	DefaultK int
	// MaxK bounds the retrieval depth a request may ask for (default 100).
	MaxK int
	// MaxBatchQueries bounds one batch-search request (default 1024):
	// unlike coalesced singles, an explicit batch bypasses MaxBatch and
	// would otherwise let one request run an unbounded RetrieveBatch.
	MaxBatchQueries int
	// OmitText drops result text from responses (ids and scores only),
	// shrinking payloads for recall-style load tests.
	OmitText bool
	// CompactAt triggers background compaction on a live (mutable) route
	// once its memtable reaches this many rows; 0 disables automatic
	// compaction (the /admin/<route>/compact endpoint still works).
	CompactAt int
	// SlowLog is the per-route retention of slowest traces served at
	// GET /debug/slowlog/<route> (0 selects obs.DefaultSlowLogSize).
	SlowLog int
	// Debug mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints on a serving port are opt-in.
	Debug bool
	// Registry receives the server's metrics; nil creates a private one.
	Registry *metrics.Registry
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config {
	return Config{MaxBatch: 32, CacheCap: 4096, CacheShards: 8, DefaultK: 5, MaxK: 100}
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 8
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
}

// Snapshot is one immutable published state of a route: a store serving
// one index generation. Epoch increments on every hot swap of that route
// and is independent across routes.
type Snapshot struct {
	Store  Store
	Epoch  uint64
	Source string // where the index came from ("initial" or a VSF path)
}

// Server is the online retrieval server: an HTTP JSON front-end over one
// or more retrieval stores (the chunk store plus the per-mode trace
// stores), each mounted as a route with its own coalescer, query cache,
// epoch counter and metrics namespace — so a hot swap or purge on one
// store cannot evict entries or stall requests on another.
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	routes  map[string]*route
	chunks  *route // the RouteChunks route, target of the legacy API
	started atomic.Bool

	httpSrv *http.Server
	ln      net.Listener
}

// route is the per-store serving state. All fields are built once at
// Mount; the snapshot pointer is the only thing that changes afterwards.
type route struct {
	name    string
	cfg     Config
	snap    atomic.Pointer[Snapshot]
	co      *batch.Coalescer[searchJob, searchOut]
	cache   *Cache
	flights flightGroup
	swapMu  sync.Mutex // serialises swaps (readers go through snap)

	// Write path (live ingestion). writeMu serialises inserts with each
	// other and with a compaction's publish step: writers load the
	// snapshot INSIDE writeMu, so an insert can never land in a memtable
	// that a concurrent compaction has already rotated out — the no-lost-
	// acked-inserts invariant. writeGen counts accepted insert batches and
	// is folded into cache keys (see search), so cached top-k from before
	// an insert cannot mask it. compacting admits one compaction at a time.
	writeMu    sync.Mutex
	writeGen   atomic.Uint64
	compacting atomic.Bool

	// slow retains the route's slowest completed traces for the debug
	// surface (GET /debug/slowlog/<route>).
	slow *obs.SlowLog

	// metric handles resolved once so the hot path skips registry lookups
	mRequests, mHits, mMisses, mShared     *metrics.Counter
	mBatches, mBatchedQueries              *metrics.Counter
	mErrors, mSwaps                        *metrics.Counter
	mInserts, mInsertBatches, mCompactions *metrics.Counter
	hLatency, hSearch, hBatch              *metrics.Histogram
	hStageQueue, hStageCache, hStageEmbed  *metrics.Histogram
	hStageScan, hStageMerge, hStageEncode  *metrics.Histogram
	gVectors, gEpoch, gCacheLen, gMemRows  *metrics.Gauge
}

type searchJob struct {
	query   string
	k       int
	exclude string // trace routes: suppress hits from this question id

	// Tracing: enq is when the job entered the coalescer (the queue span's
	// start) and tr the request's trace, so the batch function can attribute
	// the shared batch stages back to every member request. tr is nil for
	// untraced programmatic callers.
	enq time.Time
	tr  *obs.Trace
}

// searchOut carries one job's results plus the epoch of the snapshot the
// batch actually ran against (which can trail a concurrent swap).
type searchOut struct {
	results []rag.Hit
	epoch   uint64
}

// New builds a server with store mounted as the "chunks" route — the PR 3
// single-store constructor. Mount more stores (MountTraceStores) before
// Start, or use NewMulti to start from an empty route table.
func New(store *rag.ChunkStore, cfg Config) *Server {
	s := NewMulti(cfg)
	if err := s.Mount(RouteChunks, rag.NewChunkFacade(store)); err != nil {
		panic("serve: " + err.Error()) // unreachable: fresh server, fixed name
	}
	return s
}

// NewMulti builds a server with no routes. Mount stores, then Start.
func NewMulti(cfg Config) *Server {
	cfg.fill()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Server{cfg: cfg, reg: reg, routes: make(map[string]*route)}
}

// Mount registers st under name ("chunks", "traces/detailed", …) before
// the server starts. The route serves POST /v1/<name>/search, its /batch
// variant, and POST /admin/<name>/swap, with metrics under
// serve.<name>.… (path separators become dots).
func (s *Server) Mount(name string, st Store) error {
	if s.started.Load() {
		return fmt.Errorf("serve: Mount(%q) after Start", name)
	}
	if !validRouteName(name) {
		return fmt.Errorf("serve: invalid route name %q", name)
	}
	if st == nil {
		return fmt.Errorf("serve: Mount(%q): nil store", name)
	}
	if _, ok := s.routes[name]; ok {
		return fmt.Errorf("serve: route %q already mounted", name)
	}
	rt := newRoute(name, st, s.cfg, s.reg)
	s.routes[name] = rt
	if name == RouteChunks {
		s.chunks = rt
	}
	return nil
}

// MountTraceStores mounts every non-empty per-mode trace store under its
// TraceRoute name (the paper's three reasoning-trace databases behind the
// same front-end as the chunk store). Empty stores are skipped: they have
// nothing to serve, and every hot swap against them would be rejected by
// the snapshot validation anyway.
func (s *Server) MountTraceStores(stores map[mcq.ReasoningMode]*rag.TraceStore) error {
	for _, mode := range mcq.AllModes {
		ts, ok := stores[mode]
		if !ok || ts.Len() == 0 {
			continue
		}
		if err := s.Mount(TraceRoute(mode), rag.NewTraceFacade(ts)); err != nil {
			return err
		}
	}
	return nil
}

// Routes lists the mounted route names, sorted.
func (s *Server) Routes() []string {
	out := make([]string, 0, len(s.routes))
	for name := range s.routes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// validRouteName accepts lowercase path-style names ("chunks",
// "traces/detailed"): they appear verbatim in URLs and, with "/" mapped
// to ".", in metric names.
func validRouteName(name string) bool {
	if name == "" {
		return false
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" {
			return false
		}
		for _, r := range seg {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' && r != '-' {
				return false
			}
		}
	}
	return true
}

// MetricPrefix returns the metrics namespace of a route — "serve.<name>."
// with path separators mapped to dots — the prefix under which every
// per-route counter, gauge and histogram is registered. External readers
// (ragload's per-route accounting) must build names through this instead
// of re-deriving the scheme.
func MetricPrefix(route string) string {
	return "serve." + strings.ReplaceAll(route, "/", ".") + "."
}

func newRoute(name string, st Store, cfg Config, reg *metrics.Registry) *route {
	p := MetricPrefix(name)
	rt := &route{
		name:            name,
		cfg:             cfg,
		mRequests:       reg.Counter(p + "requests"),
		mHits:           reg.Counter(p + "cache.hits"),
		mMisses:         reg.Counter(p + "cache.misses"),
		mShared:         reg.Counter(p + "flight.shared"),
		mBatches:        reg.Counter(p + "batches"),
		mBatchedQueries: reg.Counter(p + "batch.queries"),
		mErrors:         reg.Counter(p + "errors"),
		mSwaps:          reg.Counter(p + "swaps"),
		mInserts:        reg.Counter(p + "inserts"),
		mInsertBatches:  reg.Counter(p + "insert.batches"),
		mCompactions:    reg.Counter(p + "compactions"),
		hLatency:        reg.Histogram(p + "latency"),
		hSearch:         reg.Histogram(p + "search.latency"),
		hBatch:          reg.SizeHistogram(p + "batch.size"),
		hStageQueue:     reg.Histogram(p + "stage.queue"),
		hStageCache:     reg.Histogram(p + "stage.cache"),
		hStageEmbed:     reg.Histogram(p + "stage.embed"),
		hStageScan:      reg.Histogram(p + "stage.scan"),
		hStageMerge:     reg.Histogram(p + "stage.merge"),
		hStageEncode:    reg.Histogram(p + "stage.encode"),
		slow:            obs.NewSlowLog(cfg.SlowLog),
		gVectors:        reg.Gauge(p + "index.vectors"),
		gEpoch:          reg.Gauge(p + "index.epoch"),
		gCacheLen:       reg.Gauge(p + "cache.len"),
		gMemRows:        reg.Gauge(p + "index.memrows"),
	}
	if cfg.CacheCap > 0 {
		rt.cache = NewCache(cfg.CacheCap, cfg.CacheShards)
	}
	rt.snap.Store(&Snapshot{Store: st, Epoch: 0, Source: "initial"})
	rt.gVectors.Set(int64(st.Len()))
	rt.co = batch.New(batch.Config{MaxBatch: cfg.MaxBatch}, rt.runBatch)
	return rt
}

// runBatch is a route's coalescer batch function: the whole batch is
// answered from one snapshot through the multi-query scan kernel, so a
// hot swap mid-batch cannot tear an individual batch across two indexes.
func (rt *route) runBatch(jobs []searchJob) []searchOut {
	snap := rt.snap.Load()
	t0 := time.Now()
	queries := make([]string, len(jobs))
	var excludes []string
	maxK := 0
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
	}
	if excludes != nil {
		for i, j := range jobs {
			excludes[i] = j.exclude
		}
	}
	res, st := rt.retrieve(snap, queries, maxK, excludes)
	// The batch's stage decomposition is shared by every member request:
	// embed/scan/merge ran once for the whole batch, so each traced job gets
	// the same three spans, laid end to end from the batch's start.
	for _, j := range jobs {
		attachStages(j.tr, t0, st)
	}
	// Each request gets the top-k prefix of the shared maxK retrieval —
	// identical to what its own k would have returned.
	out := make([]searchOut, len(jobs))
	for i := range res {
		if len(res[i]) > jobs[i].k {
			res[i] = res[i][:jobs[i].k]
		}
		out[i] = searchOut{results: res[i], epoch: snap.Epoch}
	}
	return out
}

// attachStages records a retrieve's embed/scan/merge decomposition as
// consecutive spans starting at t0, the instant the retrieve began.
func attachStages(tr *obs.Trace, t0 time.Time, st rag.StageTimings) {
	if tr == nil {
		return
	}
	tr.AddSpan("embed", t0, st.Embed)
	tr.AddSpan("scan", t0.Add(st.Embed), st.Scan)
	tr.AddSpan("merge", t0.Add(st.Embed+st.Scan), st.Merge)
}

// retrieve runs one timed, metered RetrieveBatch against a snapshot — the
// shared core of the coalesced path and the explicit batch endpoint, so
// both report identical batch accounting. The returned stage timings feed
// the per-stage histograms here and the caller's trace spans; a store
// without RetrieveBatchStaged books the whole call under Scan.
func (rt *route) retrieve(snap *Snapshot, queries []string, k int, exclude []string) ([][]rag.Hit, rag.StageTimings) {
	start := time.Now()
	var res [][]rag.Hit
	var st rag.StageTimings
	if sr, ok := snap.Store.(rag.StagedRetriever); ok {
		res, st = sr.RetrieveBatchStaged(queries, k, exclude)
	} else {
		res = snap.Store.RetrieveBatch(queries, k, exclude)
		st.Scan = time.Since(start)
	}
	rt.hSearch.Observe(time.Since(start))
	rt.hStageEmbed.Observe(st.Embed)
	rt.hStageScan.Observe(st.Scan)
	rt.hStageMerge.Observe(st.Merge)
	rt.mBatches.Inc()
	rt.mBatchedQueries.Add(int64(len(queries)))
	rt.hBatch.ObserveN(int64(len(queries)))
	return res, st
}

// search answers one query through the route's cache and coalescer.
func (rt *route) search(ctx context.Context, query string, k int, exclude string) (results []rag.Hit, cached bool, epoch uint64, err error) {
	if k <= 0 {
		k = rt.cfg.DefaultK
	}
	if k > rt.cfg.MaxK {
		k = rt.cfg.MaxK
	}
	rt.mRequests.Inc()
	tr := obs.FromContext(ctx)
	start := time.Now()
	defer func() { rt.hLatency.Observe(time.Since(start)) }()

	if rt.cache == nil {
		out, err := rt.co.Do(ctx, searchJob{query: query, k: k, exclude: exclude, enq: time.Now(), tr: tr})
		return out.results, false, out.epoch, err
	}
	// The epoch in the key makes entries generation-scoped: after a swap,
	// fresh lookups miss even if a stale fill lands post-Purge. The write
	// generation makes them insert-scoped: a live insert bumps writeGen
	// without an epoch change, so without it a cached top-k from before
	// the insert would keep masking the new row until the next swap.
	// writeGen is read BEFORE the snapshot: any insert counted by keyGen
	// completed its memtable append before bumping the generation, so the
	// fill (which scans after this point) observes at least those rows.
	// exclude is length-prefixed rather than delimited: it and query are
	// both client-controlled free-form strings, so a bare separator
	// between them would let distinct (exclude, query) pairs collide.
	keyGen := rt.writeGen.Load()
	snap := rt.snap.Load()
	keyEpoch := snap.Epoch
	key := fmt.Sprintf("%d\x1f%d\x1f%d\x1f%d\x1f%s%s", keyEpoch, keyGen, k, len(exclude), exclude, query)
	cacheStart := time.Now()
	val, ok := rt.cache.Get(key)
	cacheDur := time.Since(cacheStart)
	rt.hStageCache.Observe(cacheDur)
	tr.AddSpan("cache", cacheStart, cacheDur)
	if ok {
		rt.mHits.Inc()
		return val.Results, true, val.Epoch, nil
	}
	rt.mMisses.Inc()
	val, shared, err := rt.flights.do(ctx, key, func() (CachedResult, error) {
		// Detach the batch dispatch from the leader's request context: a
		// flight computes a result shared by every joiner, so one
		// client's disconnect must not poison the rest (each caller still
		// guards its own wait with its own ctx inside do and co.Do).
		// Only the flight leader's job reaches the batch, so only its trace
		// sees the queue/embed/scan/merge spans; joiners share the result and
		// keep just their cache span — an honest timeline, they did no work.
		out, err := rt.co.Do(context.WithoutCancel(ctx), searchJob{query: query, k: k, exclude: exclude, enq: time.Now(), tr: tr})
		if err != nil {
			return CachedResult{}, err
		}
		res := CachedResult{Results: out.results, Epoch: out.epoch}
		// Insert only fills that still belong to the key's generation, and
		// back the insert out if a swap purged the cache while it landed:
		// either way an entry keyed under a dead epoch is never read again
		// and would only squat LRU capacity until evicted. The post-Put
		// re-check closes the Purge/Put race — if the swap's purge ran
		// first, the published epoch has already moved on and we delete
		// our own orphan; if it runs after, it removes the entry itself.
		if out.epoch == keyEpoch {
			rt.cache.Put(key, res)
			if rt.snap.Load().Epoch != keyEpoch || rt.writeGen.Load() != keyGen {
				rt.cache.Delete(key)
			}
		}
		return res, nil
	})
	if shared {
		rt.mShared.Inc()
	}
	return val.Results, false, val.Epoch, err
}

// swapIndex atomically publishes a snapshot serving index on this route.
// In-flight requests finish against the old snapshot; the route's query
// cache is purged so no pre-swap result is served afterwards. Other
// routes' caches and epochs are untouched.
func (rt *route) swapIndex(index vecstore.Index, source string) (*Snapshot, error) {
	rt.swapMu.Lock()
	defer rt.swapMu.Unlock()
	cur := rt.snap.Load()
	st, err := cur.Store.WithIndex(index)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Store: st, Epoch: cur.Epoch + 1, Source: source}
	rt.snap.Store(snap)
	if rt.cache != nil {
		rt.cache.Purge()
		rt.gCacheLen.Set(0)
	}
	rt.mSwaps.Inc()
	rt.gEpoch.Set(int64(snap.Epoch))
	rt.gVectors.Set(int64(index.Len()))
	return snap, nil
}

func (s *Server) route(name string) (*route, error) {
	if rt, ok := s.routes[name]; ok {
		return rt, nil
	}
	return nil, fmt.Errorf("serve: unknown route %q (mounted: %s)", name, strings.Join(s.Routes(), ", "))
}

// Search answers one query on the chunks route. cached reports whether
// the result came from the query cache; epoch is the generation of the
// snapshot that actually produced the results (it can trail the
// currently published epoch across a concurrent swap).
func (s *Server) Search(ctx context.Context, query string, k int) (results []rag.Hit, cached bool, epoch uint64, err error) {
	return s.SearchRoute(ctx, RouteChunks, query, k, "")
}

// SearchRoute answers one query on a named route. exclude is the trace
// routes' question self-exclusion id ("" for none; chunk routes ignore
// it).
func (s *Server) SearchRoute(ctx context.Context, routeName, query string, k int, exclude string) (results []rag.Hit, cached bool, epoch uint64, err error) {
	rt, err := s.route(routeName)
	if err != nil {
		return nil, false, 0, err
	}
	return rt.search(ctx, query, k, exclude)
}

// SwapIndex hot-swaps the chunks route (see SwapRouteIndex).
func (s *Server) SwapIndex(index vecstore.Index, source string) (*Snapshot, error) {
	return s.SwapRouteIndex(RouteChunks, index, source)
}

// SwapRouteIndex atomically publishes a snapshot of one route serving
// index; the other routes keep their epochs and warm caches.
func (s *Server) SwapRouteIndex(routeName string, index vecstore.Index, source string) (*Snapshot, error) {
	rt, err := s.route(routeName)
	if err != nil {
		return nil, err
	}
	return rt.swapIndex(index, source)
}

// SwapFromFile hot-swaps the chunks route from a VSF file (see
// SwapRouteFromFile).
func (s *Server) SwapFromFile(path string) (*Snapshot, error) {
	return s.SwapRouteFromFile(RouteChunks, path)
}

// SwapRouteFromFile loads a persisted index (any VSF generation) in the
// calling goroutine — the expensive part, off the serving path — then
// publishes it on the route with swapIndex.
func (s *Server) SwapRouteFromFile(routeName, path string) (*Snapshot, error) {
	rt, err := s.route(routeName)
	if err != nil {
		return nil, err
	}
	return rt.swapFromFile(path)
}

// swapFromFile is the load-then-publish sequence shared by the
// programmatic and HTTP swap paths.
func (rt *route) swapFromFile(path string) (*Snapshot, error) {
	index, err := vecstore.Load(path)
	if err != nil {
		return nil, fmt.Errorf("serve: swap load: %w", err)
	}
	return rt.swapIndex(index, path)
}

// addChunks inserts a batch on a live route. The snapshot is loaded while
// writeMu is held: a concurrent compaction publishes its rotated snapshot
// under the same lock, so an insert either lands in the memtable before
// rotation copies it forward, or in the fresh memtable after — never in a
// memtable that has already been discarded.
func (rt *route) addChunks(chunks []chunk.Chunk) (AddResponse, error) {
	rt.writeMu.Lock()
	snap := rt.snap.Load()
	ing, ok := snap.Store.(rag.Ingestor)
	if !ok {
		rt.writeMu.Unlock()
		return AddResponse{}, fmt.Errorf("serve: route %q does not accept inserts (not mounted live)", rt.name)
	}
	added, err := ing.AddChunks(chunks)
	if err != nil {
		rt.writeMu.Unlock()
		return AddResponse{}, err
	}
	gen := rt.writeGen.Add(1)
	vectors := snap.Store.Len()
	memRows := 0
	if lv, ok := snap.Store.Index().(*vecstore.Live); ok {
		memRows = lv.MemLen()
	}
	rt.writeMu.Unlock()

	rt.mInserts.Add(int64(added))
	rt.mInsertBatches.Inc()
	rt.gVectors.Set(int64(vectors))
	rt.gMemRows.Set(int64(memRows))
	if rt.cfg.CompactAt > 0 && memRows >= rt.cfg.CompactAt {
		go rt.compact() //nolint:errcheck // surfaced via metrics; next add retries
	}
	return AddResponse{Added: added, Vectors: vectors, MemRows: memRows, Epoch: snap.Epoch, WriteGen: gen, Route: rt.name}, nil
}

// compact drains the route's memtable into its base index and publishes
// the result. The expensive encode (CompactBase) runs outside every lock,
// concurrent with searches and further inserts; only the rotate+publish
// step takes writeMu. If an admin swap replaced the snapshot while the
// encode ran, the compaction is dropped rather than resurrect the old
// corpus. Returns whether a compaction was published.
func (rt *route) compact() (bool, error) {
	if !rt.compacting.CompareAndSwap(false, true) {
		return false, nil // one at a time; the trigger after the next add retries
	}
	defer rt.compacting.Store(false)
	snap := rt.snap.Load()
	lv, ok := snap.Store.Index().(*vecstore.Live)
	if !ok {
		return false, fmt.Errorf("serve: route %q has no live index to compact", rt.name)
	}
	n := lv.MemLen()
	if n == 0 {
		return false, nil
	}
	newBase, err := lv.CompactBase(n)
	if err != nil {
		return false, fmt.Errorf("serve: compact %q: %w", rt.name, err)
	}
	rt.writeMu.Lock()
	defer rt.writeMu.Unlock()
	if rt.snap.Load() != snap {
		return false, nil // an admin swap won the race; drop this compaction
	}
	next := lv.Rotate(newBase, n)
	if _, err := rt.swapIndex(next, "compaction"); err != nil {
		return false, fmt.Errorf("serve: compact %q publish: %w", rt.name, err)
	}
	rt.mCompactions.Inc()
	rt.gMemRows.Set(int64(next.MemLen()))
	return true, nil
}

// AddChunks inserts chunks on a live-mounted route (programmatic
// counterpart of POST /v1/<route>/add). The target store must implement
// rag.Ingestor — a chunk store with EnableLive called before Mount.
func (s *Server) AddChunks(routeName string, chunks []chunk.Chunk) (AddResponse, error) {
	rt, err := s.route(routeName)
	if err != nil {
		return AddResponse{}, err
	}
	return rt.addChunks(chunks)
}

// CompactRoute synchronously drains a live route's memtable into its base
// index and publishes the compacted snapshot (programmatic counterpart of
// POST /admin/<route>/compact). Returns whether a compaction was
// published — false when the memtable was empty or another compaction was
// already running.
func (s *Server) CompactRoute(routeName string) (bool, error) {
	rt, err := s.route(routeName)
	if err != nil {
		return false, err
	}
	return rt.compact()
}

// Snapshot returns the currently published snapshot of the chunks route,
// or nil when no chunk store is mounted.
func (s *Server) Snapshot() *Snapshot {
	if s.chunks == nil {
		return nil
	}
	return s.chunks.snap.Load()
}

// RouteSnapshot returns the currently published snapshot of one route.
func (s *Server) RouteSnapshot(routeName string) (*Snapshot, bool) {
	rt, ok := s.routes[routeName]
	if !ok {
		return nil, false
	}
	return rt.snap.Load(), true
}

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the HTTP API. Per mounted route <name>:
//
//	POST /v1/<name>/search        {"query","k","exclude"} → {"results":[...],"cached","epoch","route"}
//	POST /v1/<name>/search/batch  {"queries":[...],"k","exclude":[...]} → {"results":[[...],...]}
//	POST /v1/<name>/add           {"chunks":[{"chunk_id","doc_id","text"},...]} → {"added","vectors","mem_rows","epoch","write_gen","route"}
//	POST /admin/<name>/swap       {"path"} → {"epoch","vectors","source","route"}
//	POST /admin/<name>/compact    (no body) → {"compacted","epoch","vectors","mem_rows","route"}
//
// The add endpoint works only on routes mounted over a live (mutable)
// store and rejects others with 400; compact is a no-op on them.
//
// plus the PR 3 single-store aliases for the chunks route (/v1/search,
// /v1/search/batch, /admin/swap) and the shared endpoints:
//
//	GET  /healthz   {"status","epoch","vectors","source","routes":{...}}
//	GET  /metrics   text exposition of the registry
//
// and the debug surface:
//
//	GET  /debug/slowlog/<route>   {"route","slowest":[trace records]}
//	GET  /debug/pprof/...         net/http/pprof (only with Config.Debug)
func (s *Server) Handler() http.Handler {
	s.started.Store(true)
	mux := http.NewServeMux()
	for name, rt := range s.routes {
		mux.HandleFunc("POST /v1/"+name+"/search", rt.handleSearch)
		mux.HandleFunc("POST /v1/"+name+"/search/batch", rt.handleSearchBatch)
		mux.HandleFunc("POST /v1/"+name+"/add", rt.handleAdd)
		mux.HandleFunc("POST /admin/"+name+"/swap", rt.handleSwap)
		mux.HandleFunc("POST /admin/"+name+"/compact", rt.handleCompact)
	}
	if rt := s.chunks; rt != nil {
		mux.HandleFunc("POST /v1/search", rt.handleSearch)
		mux.HandleFunc("POST /v1/search/batch", rt.handleSearchBatch)
		mux.HandleFunc("POST /admin/swap", rt.handleSwap)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/slowlog/{route...}", s.handleSlowlog)
	if s.cfg.Debug {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleSlowlog serves a route's retained slowest traces.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	rt, err := s.route(r.PathValue("route"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, obs.SlowLogPage{Route: rt.name, Slowest: rt.slow.Snapshot()})
}

// Start binds addr ("127.0.0.1:0" for an ephemeral port) and serves in the
// background until Shutdown. Mount every store before Start.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadTimeout: 30 * time.Second}
	go s.httpSrv.Serve(ln) //nolint:errcheck // Serve returns on Shutdown
	return nil
}

// Addr returns the bound address (after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown drains gracefully: the listener stops accepting, in-flight
// requests run to completion (bounded by ctx), and only then do the
// route coalescers stop — the argo SIGTERM-drain pattern.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	for _, rt := range s.routes {
		rt.co.Close()
	}
	return err
}

// Close is Shutdown with a bounded drain window.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// Wire types.

// SearchRequest is the single-query search body. Exclude is honoured by
// trace routes only: it suppresses traces distilled from that question id
// (the cross-question ablation rule).
type SearchRequest struct {
	Query   string `json:"query"`
	K       int    `json:"k,omitempty"`
	Exclude string `json:"exclude,omitempty"`
	// Timing opts the response into the per-stage trace timeline.
	Timing bool `json:"timing,omitempty"`
}

// TimingInfo is the opt-in per-request trace a response carries when the
// request set "timing": the trace id (minted, or adopted from the caller's
// X-Trace-Id header), the total microseconds since the handler adopted the
// trace, and the ordered span timeline. It is snapshotted before response
// encoding, so the encode span itself appears only in the slowlog and the
// stage.encode histogram.
type TimingInfo struct {
	TraceID string     `json:"trace_id"`
	TotalUS int64      `json:"total_us"`
	Spans   []obs.Span `json:"spans"`
}

// SearchResult is one retrieval hit on the wire. ID/Group are chunk
// id/doc id on chunk routes and trace id/source-question id on trace
// routes; Text is the chunk text or the reasoning trace.
type SearchResult struct {
	ID    string  `json:"id"`
	Group string  `json:"group"`
	Text  string  `json:"text,omitempty"`
	Score float32 `json:"score"`
}

// SearchResponse is the single-query search reply.
type SearchResponse struct {
	Results []SearchResult `json:"results"`
	Cached  bool           `json:"cached,omitempty"`
	Epoch   uint64         `json:"epoch"`
	Route   string         `json:"route,omitempty"`
	Timing  *TimingInfo    `json:"timing,omitempty"`
}

// BatchSearchRequest is the batch search body. Exclude is empty or one
// entry per query (trace routes only).
type BatchSearchRequest struct {
	Queries []string `json:"queries"`
	K       int      `json:"k,omitempty"`
	Exclude []string `json:"exclude,omitempty"`
	// Timing opts the response into the per-stage trace timeline.
	Timing bool `json:"timing,omitempty"`
}

// BatchSearchResponse is the batch search reply, per-query results in
// request order.
type BatchSearchResponse struct {
	Results [][]SearchResult `json:"results"`
	Epoch   uint64           `json:"epoch"`
	Route   string           `json:"route,omitempty"`
	Timing  *TimingInfo      `json:"timing,omitempty"`
}

// SwapRequest is the swap body.
type SwapRequest struct {
	Path string `json:"path"`
}

// SwapResponse is the swap reply.
type SwapResponse struct {
	Epoch   uint64 `json:"epoch"`
	Vectors int    `json:"vectors"`
	Source  string `json:"source"`
	Route   string `json:"route,omitempty"`
}

// AddChunk is one chunk to insert on a live route.
type AddChunk struct {
	ID    string `json:"chunk_id"`
	DocID string `json:"doc_id,omitempty"`
	Text  string `json:"text"`
}

// AddRequest is the live-insert body.
type AddRequest struct {
	Chunks []AddChunk `json:"chunks"`
}

// AddResponse is the live-insert reply. WriteGen is the route's write
// generation after this insert; MemRows is the memtable size after it
// (before any compaction the insert may have triggered).
type AddResponse struct {
	Added    int    `json:"added"`
	Vectors  int    `json:"vectors"`
	MemRows  int    `json:"mem_rows"`
	Epoch    uint64 `json:"epoch"`
	WriteGen uint64 `json:"write_gen"`
	Route    string `json:"route,omitempty"`
}

// CompactResponse is the admin-compact reply. Compacted is false when the
// memtable was empty or another compaction was in flight.
type CompactResponse struct {
	Compacted bool   `json:"compacted"`
	Epoch     uint64 `json:"epoch"`
	Vectors   int    `json:"vectors"`
	MemRows   int    `json:"mem_rows"`
	Route     string `json:"route,omitempty"`
}

// RouteHealth is one route's health summary.
type RouteHealth struct {
	Epoch   uint64 `json:"epoch"`
	Vectors int    `json:"vectors"`
	Source  string `json:"source"`
}

// Healthz is the /healthz reply. Status is "ok", or "degraded" when any
// mounted route has zero vectors loaded (an empty shard serves nothing,
// and an upstream prober must be able to tell). The top-level
// epoch/vectors/source mirror the chunks route for PR 3 compatibility;
// Routes carries every mounted store.
type Healthz struct {
	Status  string                 `json:"status"`
	Epoch   uint64                 `json:"epoch"`
	Vectors int                    `json:"vectors"`
	Source  string                 `json:"source"`
	Routes  map[string]RouteHealth `json:"routes"`
}

func (rt *route) results(hits []rag.Hit) []SearchResult {
	out := make([]SearchResult, len(hits))
	for i, h := range hits {
		out[i] = SearchResult{ID: h.ID, Group: h.Group, Score: h.Score}
		if !rt.cfg.OmitText {
			out[i].Text = h.Text
		}
	}
	return out
}

func (rt *route) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !rt.decode(w, r, &req) {
		return
	}
	if req.Query == "" {
		rt.mErrors.Inc()
		http.Error(w, "empty query", http.StatusBadRequest)
		return
	}
	// Adopt the caller's trace id (router → shard propagation) or mint one.
	tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
	res, cached, epoch, err := rt.search(obs.WithTrace(r.Context(), tr), req.Query, req.K, req.Exclude)
	if err != nil {
		rt.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	resp := SearchResponse{Results: rt.results(res), Cached: cached, Epoch: epoch, Route: rt.name}
	if req.Timing {
		// Snapshot before encoding: the response timing necessarily excludes
		// its own encode span (it still lands in the slowlog and histogram).
		resp.Timing = &TimingInfo{TraceID: tr.ID(), TotalUS: tr.Since().Microseconds(), Spans: tr.Spans()}
	}
	rt.encodeTraced(w, tr, resp)
	rt.slow.Record(tr, "search", req.Query)
}

// encodeTraced writes the JSON response under an "encode" span and the
// encode-stage histogram — the last hop of a traced request's life.
func (rt *route) encodeTraced(w http.ResponseWriter, tr *obs.Trace, v any) {
	start := time.Now()
	writeJSON(w, v)
	d := time.Since(start)
	rt.hStageEncode.Observe(d)
	tr.AddSpan("encode", start, d)
}

// handleSearchBatch serves an already-batched request straight through the
// batch kernel — it is its own micro-batch, so it bypasses the coalescer
// and cache.
func (rt *route) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSearchRequest
	if !rt.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		rt.mErrors.Inc()
		http.Error(w, "empty queries", http.StatusBadRequest)
		return
	}
	if len(req.Queries) > rt.cfg.MaxBatchQueries {
		rt.mErrors.Inc()
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), rt.cfg.MaxBatchQueries),
			http.StatusRequestEntityTooLarge)
		return
	}
	if len(req.Exclude) != 0 && len(req.Exclude) != len(req.Queries) {
		rt.mErrors.Inc()
		http.Error(w, fmt.Sprintf("exclude has %d entries for %d queries", len(req.Exclude), len(req.Queries)),
			http.StatusBadRequest)
		return
	}
	k := req.K
	if k <= 0 {
		k = rt.cfg.DefaultK
	}
	if k > rt.cfg.MaxK {
		k = rt.cfg.MaxK
	}
	rt.mRequests.Add(int64(len(req.Queries)))
	tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
	snap := rt.snap.Load()
	t0 := time.Now()
	res, st := rt.retrieve(snap, req.Queries, k, req.Exclude)
	attachStages(tr, t0, st)
	out := BatchSearchResponse{Results: make([][]SearchResult, len(res)), Epoch: snap.Epoch, Route: rt.name}
	for i, hits := range res {
		out.Results[i] = rt.results(hits)
	}
	if req.Timing {
		out.Timing = &TimingInfo{TraceID: tr.ID(), TotalUS: tr.Since().Microseconds(), Spans: tr.Spans()}
	}
	rt.encodeTraced(w, tr, out)
	rt.slow.Record(tr, "search/batch", req.Queries[0])
}

func (rt *route) handleSwap(w http.ResponseWriter, r *http.Request) {
	var req SwapRequest
	if !rt.decode(w, r, &req) {
		return
	}
	if req.Path == "" {
		rt.mErrors.Inc()
		http.Error(w, "empty path", http.StatusBadRequest)
		return
	}
	snap, err := rt.swapFromFile(req.Path)
	if err != nil {
		rt.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, SwapResponse{Epoch: snap.Epoch, Vectors: snap.Store.Len(), Source: snap.Source, Route: rt.name})
}

func (rt *route) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req AddRequest
	if !rt.decode(w, r, &req) {
		return
	}
	if len(req.Chunks) == 0 {
		rt.mErrors.Inc()
		http.Error(w, "empty chunks", http.StatusBadRequest)
		return
	}
	if len(req.Chunks) > rt.cfg.MaxBatchQueries {
		rt.mErrors.Inc()
		http.Error(w, fmt.Sprintf("insert of %d exceeds limit %d", len(req.Chunks), rt.cfg.MaxBatchQueries),
			http.StatusRequestEntityTooLarge)
		return
	}
	chunks := make([]chunk.Chunk, len(req.Chunks))
	for i, c := range req.Chunks {
		chunks[i] = chunk.Chunk{ID: c.ID, DocID: c.DocID, Text: c.Text}
	}
	resp, err := rt.addChunks(chunks)
	if err != nil {
		rt.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

// handleCompact triggers a synchronous compaction; the body is ignored.
func (rt *route) handleCompact(w http.ResponseWriter, _ *http.Request) {
	compacted, err := rt.compact()
	if err != nil {
		rt.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap := rt.snap.Load()
	memRows := 0
	if lv, ok := snap.Store.Index().(*vecstore.Live); ok {
		memRows = lv.MemLen()
	}
	writeJSON(w, CompactResponse{Compacted: compacted, Epoch: snap.Epoch, Vectors: snap.Store.Len(), MemRows: memRows, Route: rt.name})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// A mounted route with zero vectors answers every search with nothing —
	// alive but useless. Report "degraded" instead of "ok" so an upstream
	// health prober (the router's) can tell an empty shard from a healthy
	// one without issuing probe queries.
	hz := Healthz{Status: "ok", Routes: make(map[string]RouteHealth, len(s.routes))}
	for name, rt := range s.routes {
		snap := rt.snap.Load()
		vectors := snap.Store.Len()
		if vectors == 0 {
			hz.Status = "degraded"
		}
		hz.Routes[name] = RouteHealth{Epoch: snap.Epoch, Vectors: vectors, Source: snap.Source}
	}
	if s.chunks != nil {
		snap := s.chunks.snap.Load()
		hz.Epoch, hz.Vectors, hz.Source = snap.Epoch, snap.Store.Len(), snap.Source
	}
	writeJSON(w, hz)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// The cache-size gauges are refreshed here rather than on every fill:
	// Len locks all shards, which would re-serialize the miss paths.
	for _, rt := range s.routes {
		if rt.cache != nil {
			rt.gCacheLen.Set(int64(rt.cache.Len()))
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reg.WriteTo(w) //nolint:errcheck // client went away
}

func (rt *route) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
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
