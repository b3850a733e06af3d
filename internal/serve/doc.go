// Package serve is the online retrieval layer: an HTTP JSON server that
// puts the repo's retrieval stores — the chunk database plus the three
// per-mode reasoning-trace databases — behind a socket, with the
// serving-time machinery a production deployment needs.
//
// The server is a front-end over a small store interface (Store, an alias
// of rag.Facade: RetrieveBatch, the WithIndex snapshot hook, Index/Len).
// Each store is mounted as a named route ("chunks", "traces/detailed", …)
// served at /v1/<route>/search (+ /batch) and /admin/<route>/swap, and
// every route gets its own copy of the serving machinery, so a hot swap
// or cache purge on one store can never evict entries, bump epochs, or
// stall requests on another. Per route:
//
//   - Request coalescing. Concurrent single-query requests are packed
//     into micro-batches (internal/batch, the same coalescer behind the
//     argo model gateway) and dispatched through the store's
//     RetrieveBatch. A request on an idle route runs at once, and a
//     batch holds whatever queued while the previous batch ran (up to
//     MaxBatch). The vecstore multi-query
//     kernel amortises tile decode, and a PQ index its per-query LUT
//     build, across the whole batch. Trace-route requests carry the
//     per-query question self-exclusion id through the same batches.
//
//   - Query cache. A sharded LRU keyed by (epoch, k, exclude, query)
//     with singleflight de-duplication: repeated queries are answered
//     without touching the index, and concurrent identical misses
//     collapse into one search. Shard capacities sum to exactly the
//     configured total, and a fill that races a hot swap is dropped
//     rather than left squatting under a dead epoch.
//
//   - Hot index swap. Each route publishes immutable Snapshots through an
//     atomic pointer. A replacement index (any VSF generation) is loaded
//     off the serving path, wrapped via the facade's WithIndex hook, and
//     swapped in with one pointer store; the route's cache is purged and
//     its epoch incremented — other routes keep serving warm. In-flight
//     batches finish on the old snapshot — zero downtime, no torn reads.
//
//   - Observability and load. /healthz reports every route; /metrics is
//     the text exposition of an internal/metrics Registry with one
//     namespace per route (serve.chunks.…, serve.traces.detailed.…:
//     QPS counters, batch-size distribution, cache hit rate, latency
//     quantiles). RunLoad/RunLoadMixed drive closed/open-loop and
//     mixed-route workloads for cmd/ragload and `make bench-serve`,
//     whose BENCH_serve.json report is schema-checked (BenchReport.Check)
//     by the root bench test.
//
// cmd/ragserve wires the stores to a corpus and a SIGTERM drain;
// cmd/ragload is the matching load generator.
package serve
