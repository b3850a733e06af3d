package main

// metricInfo describes a metric: its unit and, for a per-layer metric,
// the end-to-end metric it should move and the workloads whose traced run
// measures it. BENCHMARK.json must declare every metric here under the
// same unit (TestCatalogMatchesBenchmark).
type metricInfo struct {
	Unit   string
	Better string // end-to-end metrics only: "lower" or "higher"
	Layer  bool
	Moves  string
	On     []string // workloads that measure the layer metric
}

const (
	wPipeline = "paper-pipeline"
	wMiss     = "serve-miss"
	wHot      = "serve-hot-rw"
	wFanout   = "router-fanout"
)

var (
	onPipeline = []string{wPipeline}
	onMissHot  = []string{wMiss, wHot}
	onServing  = []string{wMiss, wHot, wFanout}
	onAll      = []string{wPipeline, wMiss, wHot, wFanout}
)

var catalog = map[string]metricInfo{
	// End to end: every workload reports all of them.
	"setup_s":      {Unit: "s", Better: "lower"},
	"heap_live_mb": {Unit: "MB", Better: "lower"},
	"p50_ms":       {Unit: "ms", Better: "lower"},
	"p99_ms":       {Unit: "ms", Better: "lower"},

	// Per layer.
	"argo.wait_ms":    layer("ms", "setup_s", onPipeline),
	"argo.mean_batch": layer("count", "setup_s", onPipeline),
	"argo.calls":      layer("count", "setup_s", onPipeline),
	"argo.retries":    layer("count", "setup_s", onPipeline),

	"llmsim.teacher_ms": layer("ms", "setup_s", onPipeline),
	"llmsim.answer_ms":  layer("ms", "p50_ms, p99_ms", onPipeline),

	"corpus.render_ms": layer("ms", "setup_s", onAll),
	"spdf.parse_ms":    layer("ms", "setup_s", onAll),
	"chunk.split_ms":   layer("ms", "setup_s", onAll),
	"rag.build_ms":     layer("ms", "setup_s", onAll),

	"rag.retrieve_ms": layer("ms", "p50_ms, p99_ms", onPipeline),
	"rag.prompt_ms":   layer("ms", "p50_ms, p99_ms", onPipeline),
	"rag.utility_ms":  layer("ms", "p50_ms, p99_ms", onPipeline),

	"pipeline.busy_ratio": layer("ratio", "setup_s, p50_ms", onPipeline),

	"embed.ns_per_text": layer("ns", "p50_ms (serve-miss), setup_s (paper-pipeline); flat on serve-hot-rw", onAll),

	"vecstore.ns_per_vector.b1":  layer("ns", "p50_ms (serve-miss, paper-pipeline); flat on serve-hot-rw", onAll),
	"vecstore.ns_per_vector.b32": layer("ns", "p50_ms (serve-miss, paper-pipeline); flat on serve-hot-rw", onAll),
	"vecstore.vectors_per_query": layer("count", "p50_ms (serve-miss, paper-pipeline); flat on serve-hot-rw", onAll),
	"vecstore.bytes_per_vector":  layer("B", "heap_live_mb", onAll),

	"serve.queue_ms.p50":    layer("ms", "p50_ms (serve-miss); flat on serve-hot-rw, hits skip it", onMissHot),
	"serve.queue_ms.p99":    layer("ms", "p99_ms (serve-miss); flat on serve-hot-rw, hits skip it", onMissHot),
	"serve.embed_ms.p50":    layer("ms", "p50_ms (serve-miss); flat on serve-hot-rw, hits skip it", onMissHot),
	"serve.scan_ms.p50":     layer("ms", "p50_ms (serve-miss); flat on serve-hot-rw, hits skip it", onMissHot),
	"serve.scan_ms.p99":     layer("ms", "p99_ms (serve-miss); flat on serve-hot-rw, hits skip it", onMissHot),
	"serve.merge_ms.p50":    layer("ms", "p50_ms (serve-miss); flat on serve-hot-rw, hits skip it", onMissHot),
	"serve.encode_ms.p50":   layer("ms", "p50_ms (serve-miss)", []string{wMiss}),
	"serve.http_ms.p50":     layer("ms", "p50_ms (every serving workload)", onServing),
	"serve.mean_batch":      layer("count", "serve.sustained_qps, p99_ms (serve-miss)", []string{wMiss}),
	"serve.sustained_qps":   layer("1/s", "p99_ms (serve-miss, router-fanout)", []string{wMiss, wFanout}),
	"serve.cache_hit_ratio": layer("ratio", "p50_ms (serve-hot-rw); flat on serve-miss, no hits", onMissHot),
	"serve.cache_ms.p50":    layer("ms", "p50_ms (serve-hot-rw)", []string{wHot}),
	"serve.flight_shared":   layer("count", "p50_ms (serve-hot-rw); flat on serve-miss, no hits", onMissHot),

	"ingest.inserts":        layer("count", "p99_ms (serve-hot-rw)", []string{wHot}),
	"ingest.lost":           layer("count", "p99_ms (serve-hot-rw)", []string{wHot}),
	"ingest.compactions":    layer("count", "p99_ms (serve-hot-rw)", []string{wHot}),
	"ingest.memrows_max":    layer("count", "p99_ms (serve-hot-rw)", []string{wHot}),
	"ingest.live_hit_ratio": layer("ratio", "p50_ms (serve-hot-rw)", []string{wHot}),
	"ingest.insert_ms.p50":  layer("ms", "p50_ms (serve-hot-rw)", []string{wHot}),
	"ingest.insert_ms.p99":  layer("ms", "p99_ms (serve-hot-rw)", []string{wHot}),

	"router.queue_ms.p50":      layer("ms", "p50_ms, p99_ms (router-fanout); flat on serve-miss", []string{wFanout}),
	"router.scatter_ms.p50":    layer("ms", "p50_ms, p99_ms (router-fanout); flat on serve-miss", []string{wFanout}),
	"router.merge_ms.p50":      layer("ms", "p50_ms, p99_ms (router-fanout); flat on serve-miss", []string{wFanout}),
	"router.shard_skew_ms.p99": layer("ms", "p99_ms (router-fanout); flat on serve-miss", []string{wFanout}),
	"router.retries":           layer("count", "p99_ms (router-fanout); flat on serve-miss", []string{wFanout}),
	"router.breaker_trips":     layer("count", "p99_ms (router-fanout); flat on serve-miss", []string{wFanout}),

	"go.gc_pause_ms":           layer("ms", "p99_ms", onAll),
	"go.alloc_bytes_per_op":    layer("B", "p99_ms", onAll),
	"trace.unattributed_ratio": layer("ratio", "benchmark health", onAll),
	"trace.overhead_ratio":     layer("ratio", "benchmark health", onAll),
}

func layer(unit, moves string, on []string) metricInfo {
	return metricInfo{Unit: unit, Layer: true, Moves: moves, On: on}
}

// measuredOn reports whether workload's traced run measures the layer
// metric.
func (m metricInfo) measuredOn(workload string) bool {
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}
