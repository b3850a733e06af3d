# Repro build/verify entry points. `make verify` is the tier-1 gate
# (format, build, vet, lint, docs checks, tests); `make bench` runs the
# vecstore kernel benchmarks that track the contiguous-scan and PQ-LUT
# speedups.

GO ?= go

.PHONY: verify bench bench-all bench-serve docs fmt lint race fuzz-smoke profile

verify:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) build ./...
	$(MAKE) docs
	$(MAKE) lint
	$(GO) test ./...
	$(MAKE) fuzz-smoke
	$(MAKE) race

# Race gate for the concurrency-heavy packages: the multi-store serving
# layer (coalescers, per-route caches, hot swap under load — including
# TestSwapSearchRaceConsistency's swap/search hammering and the live
# ingest Add+Search+compact hammer), the mutable vecstore layer
# (memtable + Live rotation), the router's scatter/gather + breaker +
# health prober, the gateways, the parallel pipeline, and the
# observability layer (metrics registry snapshots under writer load,
# trace/slowlog concurrent appends). The coalescer's Do/Close race gets
# ten extra passes: its interleavings depend on the dispatcher's greedy
# drain, and the package's tests run in well under a second.
race:
	$(GO) test -race ./internal/serve ./internal/router ./internal/batch ./internal/argo ./internal/pipeline ./internal/rag ./internal/vecstore ./internal/metrics ./internal/obs
	$(GO) test -race -count=10 ./internal/batch

# Short native-fuzz pass over the VSF loader's magic dispatch and header
# parsing (FuzzLoad); the checked-in corpus under testdata/fuzz pins the
# historical crashers (truncations, count/dim/keylen bombs) on every run.
fuzz-smoke:
	$(GO) test ./internal/vecstore -run '^$$' -fuzz 'FuzzLoad' -fuzztime 10s

# Documentation gate: vet plus a package-comment check — every internal
# package must open with a `// Package <name> ...` comment somewhere in
# its files so `go doc` output stays useful (most keep it in doc.go).
docs:
	$(GO) vet ./...
	@missing=""; \
	for d in internal/*/; do \
		pkg="$$(basename $$d)"; \
		if ! grep -qls "^// Package $$pkg" $$d*.go; then \
			missing="$$missing $$pkg"; \
		fi; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "missing package comment in:$$missing"; exit 1; \
	fi
	@echo "docs checks passed"

# Project-specific static analysis: raglint encodes the repo's
# concurrency and robustness invariants (ctx-abortable sleeps, ctx-ful
# HTTP, no blocking under locks, nil-Trace contract, header-bounded
# allocations, stage-name taxonomy, %w wrapping) as seven analyzers
# built on go/ast + go/types only. Exits non-zero on any finding;
# suppress a deliberate violation with `//lint:ignore <analyzer>
# <reason>`. See internal/lint/doc.go and docs/ARCHITECTURE.md.
lint:
	$(GO) run ./cmd/raglint

# Kernel benchmarks: ns/vector and bytes/vector for the contiguous
# blocked scan vs the frozen jagged baseline, the SQ8/PQ quantized scans,
# and the multi-query batch kernels.
bench:
	$(GO) test ./internal/vecstore -run '^$$' -bench . -benchmem

# Full paper-artifact bench suite (Tables 2-4, Figures 4-6, ablations).
bench-all:
	$(GO) test . -run '^$$' -bench . -benchmem

# End-to-end serving benchmark: ragload drives an in-process ragserve
# (sequential baseline vs. coalesced concurrency, cache hit rate, hot
# swaps under load, and a mixed-route phase across the chunk + trace
# stores), then a 3-shard router fleet with a mid-phase shard kill
# (degraded-recall + breaker trip/recovery), and writes the
# machine-readable report with per-route and router records.
# BENCH_serve.json is schema-checked by the root bench test inside
# `make verify` (serve.BenchReport.Check), so a malformed emit fails CI.
bench-serve:
	$(GO) run ./cmd/ragload -inprocess -scale 0.01 -n 2000 -c 32 -json BENCH_serve.json

# bench-serve with a CPU profile of the whole run (load generator +
# in-process server). Inspect with `go tool pprof cpu.pprof`; for a
# live server use `ragserve -debug` and hit /debug/pprof/ instead.
profile:
	$(GO) run ./cmd/ragload -inprocess -scale 0.01 -n 2000 -c 32 -json BENCH_serve.json -cpuprofile cpu.pprof

fmt:
	gofmt -w .
