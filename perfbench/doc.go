// Command perfbench is the repository's benchmark: the measurements every
// performance or simplification change is judged by. It drives four
// workloads from one process, never with more requests in flight than the
// host has cores, and prints every metric by name with its unit and sample
// count, the operations attempted and failed, a fingerprint of the host,
// and, as its last line, one JSON result.
//
//	bash perfbench/run.sh --workload serve-miss --seed 3 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload serve-miss --seed 3 --seconds 20 --trace 1
//	bash perfbench/run.sh compare base.jsonl change.jsonl
//
// run.sh builds the benchmark from the source tree it sits in, keeping
// the Go build cache under .bench_build. The seed draws the queries and
// traffic; the corpus is always the paper's canonical seed-42 corpus.
// The run exits non-zero when a correctness check fails.
//
// # Workloads
//
//   - paper-pipeline: the paper's corpus-to-tables run with one caller and
//     no serving layers. Its set-up is core.BuildBenchmark at scale 0.05
//     (7,496 chunks, about 1,000 questions), dominated by the argo
//     gateway's 2 ms admission window with only two callers. Its timed
//     operations are the evaluation's table columns: eval.Run of every
//     model under one condition, for the five conditions of Table 2, then
//     of Tables 3 and 4 (15 per pass), pass after pass while the time
//     lasts. eval.Run retrieves once per condition and draws each cell's
//     random stream from its model and condition, so the columns do the
//     work of core.EvaluateSynthetic and core.EvaluateAstro and yield the
//     same tables. Evaluation is dominated by prompt assembly (token
//     counting) and the batch scan.
//   - serve-miss: an open loop at 200 requests/s of distinct queries on
//     the chunks route at scale 0.05, whose 5.8 MB of FP16 codes exceed
//     L2. The query cache never hits: the coalescer queue, embedding,
//     scan and HTTP carry the latency.
//   - serve-hot-rw: an open loop at 600 requests/s at scale 0.01, where
//     the corpus fits in L2. Reads draw zipf(1.1) keys from a pool eight
//     times the per-route cache, spread over the chunks route, the three
//     traces/* routes and a live route; one request in 8 inserts a chunk
//     on the live route, with auto-compaction every 256 memtable rows.
//     The cache, singleflight, memtable and compaction do the work, and
//     inserts keep invalidating the live route's cache.
//   - router-fanout: an open loop at 200 requests/s of distinct queries
//     through the router to three in-process shards at scale 0.05: the
//     router's coalescer, scatter/merge and HTTP plumbing on top of three
//     serving stacks.
//
// # End-to-end metrics
//
// Every workload reports all four, so that any change is judged on every
// workload by the same measures. Each serving request is timed from the
// moment it was due, so a stall is charged to every request queued behind
// it; the generator's lateness (send time minus due time) is kept too.
//
//   - setup_s: the time from process start to the workload's first timed
//     operation. For the serving workloads a set-up builds the corpus,
//     the index and the servers; the run sets up five times, the first
//     timed from process start, tears down all but the last and reports
//     the median. For paper-pipeline it is process start-up,
//     core.BuildBenchmark and the evaluation set-ups, timed once: one
//     takes about 9 s and varies by about 1% between runs.
//   - heap_live_mb: the Go heap still in use after a forced collection at
//     the end of the timed window, with everything the workload serves or
//     evaluates from alive.
//   - p50_ms: the typical latency of the timed operations (reads at the
//     fixed rate, or paper-pipeline's columns). A serving run cuts its
//     reads, in order, into windows of at least 200 (about a second) and
//     reports the 10th percentile of the windows' medians: the neighbours
//     of a shared host come and go over seconds and only ever slow the
//     program, so the run's quieter seconds show its own speed, where the
//     whole run's median moved by a fifth between runs of the same code.
//     paper-pipeline's 60 columns make no two windows; it reports their
//     median.
//   - p99_ms: the highest percentile, up to the 99th, with at least ten
//     samples beyond it. A serving run cuts its reads into windows of at
//     least 1,000 and reports the median of the windows' p99s, so that
//     one stalled stretch moves one window, not the run.
//     paper-pipeline's columns support only p75, which it reports.
//
// # Correctness checks
//
// Every check counts as failed operations: served top-5 recall below 1
// against the benchmark's own float64 exact search over the stored
// vectors; a paper-pipeline pass whose table digest (dataset counts and
// every cell of Tables 2-4) differs from the pinned one; an acked insert
// not retrievable after the forced final compaction; a router result not
// bit-identical to an unsharded Flat search; any request error or
// degraded router response.
//
// # Traced run
//
// With --trace 1 a workload reports the per-layer metrics instead, each
// printed with the end-to-end metric it should move. Every traced result
// carries every layer metric: a layer the workload does not measure is
// reported as 0 from 0 samples and printed as such. The benchmark times
// calls into each module's public functions from its own code and records
// spans with its own recorder, so the program's stage taxonomy stays
// closed. paper-pipeline runs core.BuildBenchmark, core.EvaluateSynthetic
// and core.EvaluateAstro once, then replays core.BuildBenchmark and
// eval.Run from their public stage calls in the same order with the same
// seeds; the replay's digest must equal the untraced one. The serving
// workloads run the fixed-rate phase untraced and then again with
// timing:true, folding the server's spans, the client round trip and the
// generator lateness into per-layer numbers, and time the embedding and
// scan kernels directly on the workload's own index and queries.
// serve-miss and router-fanout then run the sustained-rate search:
// serve.sustained_qps is the highest offered rate whose p99 stays within
// 50 ms with no failed request and no growing generator lateness, found
// by an up-down staircase of 1,000-request probes in 4% steps.
// trace.unattributed_ratio is the share of end-to-end time no layer
// accounts for; trace.overhead_ratio is the traced run's time over the
// untraced one, minus one.
//
// # Comparing runs
//
// --out appends each result with its fingerprint (CPU model, core count,
// GOMAXPROCS, Go version, commit, workload, scale, seed). compare refuses
// to compare results whose environments differ, then reports each
// workload's end-to-end medians and quartiles against the bounds in
// BENCHMARK.json.
//
// # Findings for later changes
//
// serve.RunLoad, behind ragload and make bench-serve, starts each
// request's clock after its pacing wait and after it has acquired the
// concurrency semaphore (the per-request closure of RunLoadMixed in
// internal/serve/loadgen.go), so a stalled server delays later requests
// without that wait showing in any latency.
// This benchmark keeps its own generator and leaves RunLoad unchanged.
package main
