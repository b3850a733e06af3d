// Command ragrouter is the fault-tolerant scatter/gather front-end over a
// fleet of ragserve shards: it coalesces incoming searches, fans each
// micro-batch out to every shard concurrently, and merges the per-shard
// top-k into the exact global answer. A shard that is down, tripped or
// past its deadline is cut out of the merge: clients get the exact top-k
// over the surviving shards with degraded:true — never a 5xx while at
// least one shard answers.
//
// Start a 3-shard fleet (disjoint modulo partition of the same corpus):
//
//	ragserve -addr :8081 -shard 0/3 -traces=false &
//	ragserve -addr :8082 -shard 1/3 -traces=false &
//	ragserve -addr :8083 -shard 2/3 -traces=false &
//	ragrouter -addr :8080 -shards http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// Search through the router exactly like a single ragserve:
//
//	curl -s localhost:8080/v1/search -d '{"query":"supernova light curves","k":5}'
//
// Kill a shard and the same query answers degraded (exact over the other
// two shards) while /healthz shows the breaker trip and, after the shard
// returns, the half-open probe closing it again:
//
//	kill %2 && curl -s localhost:8080/v1/search -d '{"query":"...","k":5}' | jq .degraded
//	curl -s localhost:8080/healthz | jq .shards
//
// SIGINT/SIGTERM drains gracefully like ragserve.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/retry"
	"repro/internal/router"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	shards := flag.String("shards", "", "comma-separated shard base URLs (required)")
	routes := flag.String("routes", "chunks", "comma-separated route names every shard serves")
	maxBatch := flag.Int("max-batch", 32, "coalescer batch size")
	timeout := flag.Duration("timeout", 2*time.Second, "per-attempt shard deadline")
	retries := flag.Int("retries", 1, "retries per shard call after the first attempt (negative: none)")
	backoff := flag.Duration("backoff", 5*time.Millisecond, "base retry backoff (exponential, deterministic jitter)")
	threshold := flag.Int("breaker-threshold", 3, "consecutive shard-call failures that trip the breaker")
	cooldown := flag.Duration("breaker-cooldown", 500*time.Millisecond, "open-state cooldown before a half-open probe")
	probe := flag.Duration("probe", 500*time.Millisecond, "health prober period (drives breaker recovery)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown window")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ on the routing port")
	flag.Parse()

	if *shards == "" {
		flag.Usage()
		log.Fatal("ragrouter: -shards is required")
	}
	cfg := router.Config{
		Shards:        splitList(*shards),
		Routes:        splitList(*routes),
		MaxBatch:      *maxBatch,
		ShardTimeout:  *timeout,
		Retry:         retry.Policy{MaxRetries: normRetries(*retries), BaseBackoff: *backoff},
		Breaker:       router.BreakerConfig{Threshold: *threshold, Cooldown: *cooldown},
		ProbeInterval: *probe,
		Debug:         *debug,
	}
	if err := run(*addr, *drain, cfg); err != nil {
		log.Fatal(err)
	}
}

// normRetries maps the flag's "negative means none" onto the retry
// policy's encoding (where 0 means "use the default").
func normRetries(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(addr string, drain time.Duration, cfg router.Config) error {
	r, err := router.New(cfg)
	if err != nil {
		return err
	}
	if err := r.Start(addr); err != nil {
		return err
	}
	fmt.Printf("ragrouter listening on %s — %d shards, routes: %s\n",
		r.Addr(), len(cfg.Shards), strings.Join(r.Routes(), ", "))
	for i, url := range r.Shards() {
		fmt.Printf("  shard%d → %s\n", i, url)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("\ndraining…")
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := r.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println(r.Registry().Render())
	return nil
}
