package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunLoadClosedLoop(t *testing.T) {
	var calls, inFlight, maxInFlight atomic.Int64
	rep := RunLoad(LoadConfig{Concurrency: 4, Requests: 40, Queries: []string{"a", "b", "c"}},
		func(q string, k int) error {
			calls.Add(1)
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				m := maxInFlight.Load()
				if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			if q == "c" {
				return errors.New("boom")
			}
			return nil
		})
	if calls.Load() != 40 || rep.Requests != 40 {
		t.Fatalf("calls=%d requests=%d", calls.Load(), rep.Requests)
	}
	// Queries cycle a/b/c → a third of 40, rounded, fail.
	if rep.Failures != 13 {
		t.Fatalf("failures %d", rep.Failures)
	}
	if m := maxInFlight.Load(); m > 4 {
		t.Fatalf("closed loop exceeded concurrency: %d in flight", m)
	}
	if rep.Mode != "closed" || rep.QPS <= 0 || rep.P95MS <= 0 || rep.MaxMS < rep.P50MS {
		t.Fatalf("report %+v", rep)
	}
	if !strings.Contains(rep.String(), "qps") {
		t.Fatal("String() lost the throughput line")
	}
}

func TestRunLoadOpenLoop(t *testing.T) {
	start := time.Now()
	rep := RunLoad(LoadConfig{Concurrency: 8, Requests: 30, RatePerSec: 1000, Queries: []string{"q"}},
		func(q string, k int) error { return nil })
	if rep.Mode != "open" || rep.Requests != 30 || rep.Failures != 0 {
		t.Fatalf("report %+v", rep)
	}
	// 30 admissions at 1000/s cannot complete much faster than 30ms.
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("open loop ignored the rate: %v", elapsed)
	}
}

// TestRunLoadOpenLoopCountsBacklog pins the open loop against coordinated
// omission: one slow request holds the only in-flight slot, and the
// requests scheduled behind it must report the time they spent waiting
// for their send, not just their own near-zero service time.
func TestRunLoadOpenLoopCountsBacklog(t *testing.T) {
	const stall = 20 * time.Millisecond
	var calls atomic.Int64
	rep := RunLoad(LoadConfig{Concurrency: 1, Requests: 20, RatePerSec: 1000, Queries: []string{"q"}},
		func(q string, k int) error {
			if calls.Add(1) == 1 {
				time.Sleep(stall)
			}
			return nil
		})
	if rep.Requests != 20 || rep.Failures != 0 {
		t.Fatalf("report %+v", rep)
	}
	// p99 of 20 samples is the second slowest, so it is a request that
	// queued behind the stall: due at 1ms, sent at about 20ms.
	if rep.P99MS < float64(stall/2)/float64(time.Millisecond) {
		t.Fatalf("p99 %.3fms hides the %v backlog behind the stalled request", rep.P99MS, stall)
	}
}

func TestRunLoadMixedPartitionsByRoute(t *testing.T) {
	routes := []string{"chunks", "traces/detailed", "traces/focused"}
	var perRoute [3]atomic.Int64
	rep := RunLoadMixed(LoadConfig{Concurrency: 4, Requests: 31, Queries: []string{"a", "b"}},
		routes, func(route, q string, k int) error {
			for i, r := range routes {
				if r == route {
					perRoute[i].Add(1)
				}
			}
			if route == "traces/focused" {
				return errors.New("boom")
			}
			return nil
		})
	if rep.Total.Requests != 31 {
		t.Fatalf("total %+v", rep.Total)
	}
	// Round-robin fan-out: 31 requests over 3 routes → 11/10/10.
	wantCounts := []int64{11, 10, 10}
	var failSum, qpsSum = int64(0), 0.0
	for i, r := range routes {
		pr := rep.PerRoute[r]
		if pr == nil || pr.Requests != wantCounts[i] || perRoute[i].Load() != wantCounts[i] {
			t.Fatalf("route %s: report %+v, issued %d", r, pr, perRoute[i].Load())
		}
		failSum += pr.Failures
		qpsSum += pr.QPS
	}
	if failSum != 10 || rep.Total.Failures != 10 {
		t.Fatalf("failures per-route=%d total=%d, want 10", failSum, rep.Total.Failures)
	}
	// Per-route QPS is measured over the shared window, so it sums to the
	// total throughput.
	if diff := qpsSum - rep.Total.QPS; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("per-route qps sums to %v, total %v", qpsSum, rep.Total.QPS)
	}
}

func TestRunLoadDefaults(t *testing.T) {
	rep := RunLoad(LoadConfig{Requests: 5}, func(q string, k int) error {
		if q == "" || k <= 0 {
			return errors.New("defaults not applied")
		}
		return nil
	})
	if rep.Failures != 0 || rep.Concurrency != 16 {
		t.Fatalf("report %+v", rep)
	}
}

// TestRunLoadZipfDistribution checks the heavy-tailed query-key mode: the
// drawn frequencies must be rank-skewed (rank 0 strictly hottest, the
// head dominating the tail), deterministic for a fixed seed, and the
// report must record the distribution.
func TestRunLoadZipfDistribution(t *testing.T) {
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = fmt.Sprintf("q%d", i)
	}
	count := func(seed uint64) map[string]int64 {
		counts := make(map[string]int64)
		var mu sync.Mutex
		RunLoad(LoadConfig{Concurrency: 4, Requests: 2000, Queries: queries,
			Dist: "zipf", ZipfS: 1.1, Seed: seed},
			func(q string, k int) error {
				mu.Lock()
				counts[q]++
				mu.Unlock()
				return nil
			})
		return counts
	}
	counts := count(7)
	if counts["q0"] <= counts["q1"] || counts["q1"] <= counts["q5"] {
		t.Fatalf("zipf head not rank-skewed: q0=%d q1=%d q5=%d", counts["q0"], counts["q1"], counts["q5"])
	}
	var head, total int64
	for q, c := range counts {
		total += c
		switch q {
		case "q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7":
			head += c
		}
	}
	if head*2 < total {
		t.Fatalf("zipf head (top 8 of 64 keys) drew %d of %d requests, want a majority", head, total)
	}
	again := count(7)
	for q, c := range counts {
		if again[q] != c {
			t.Fatalf("zipf draw not deterministic for fixed seed: %s %d vs %d", q, c, again[q])
		}
	}
	rep := RunLoad(LoadConfig{Concurrency: 2, Requests: 10, Queries: queries, Dist: "zipf"},
		func(q string, k int) error { return nil })
	if rep.Dist != "zipf" {
		t.Fatalf("report dist %q, want zipf", rep.Dist)
	}
	if !strings.Contains(rep.String(), "dist=zipf") {
		t.Fatal("String() lost the distribution tag")
	}
	uni := RunLoad(LoadConfig{Concurrency: 2, Requests: 10, Queries: queries},
		func(q string, k int) error { return nil })
	if uni.Dist != "uniform" {
		t.Fatalf("default dist %q, want uniform", uni.Dist)
	}
}
