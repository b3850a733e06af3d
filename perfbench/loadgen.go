package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/retry"
)

// openLoop issues N requests on a fixed schedule, request i due at
// i/Rate seconds after the start, with at most InFlight outstanding. A
// request's latency runs from its due time, not from when it was sent:
// when the target stalls, the requests queued behind the stall are charged
// for their wait, and the schedule's slip shows as lateness (send time
// minus due time). serve.RunLoad starts its clock after the pacing wait
// and the in-flight semaphore and so hides both.
type openLoop struct {
	Rate     float64 // requests per second
	N        int     // requests to issue
	InFlight int     // outstanding-request cap
}

// loadResult is one open-loop run. Latency and Lateness are indexed by
// request; a request the run never sent (cancelled context) counts as
// failed with zero latency.
type loadResult struct {
	Latency  []time.Duration // completion minus due time
	Lateness []time.Duration // send time minus due time
	Failed   []bool
}

// op performs request i. It must honour ctx.
type op func(ctx context.Context, i int) error

func (ol openLoop) run(ctx context.Context, do op) *loadResult {
	res := &loadResult{
		Latency:  make([]time.Duration, ol.N),
		Lateness: make([]time.Duration, ol.N),
		Failed:   make([]bool, ol.N),
	}
	inflight := ol.InFlight
	if inflight < 1 {
		inflight = 1
	}
	interval := float64(time.Second) / ol.Rate
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	start := time.Now()
	sent := 0
	for i := 0; i < ol.N; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			if retry.Sleep(ctx, d) != nil {
				break
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		res.Lateness[i] = time.Since(due)
		sent++
		wg.Add(1)
		go func(i int, due time.Time) {
			defer func() { <-sem; wg.Done() }()
			err := do(ctx, i)
			res.Latency[i] = time.Since(due)
			res.Failed[i] = err != nil
		}(i, due)
	}
	wg.Wait()
	for i := sent; i < ol.N; i++ {
		res.Failed[i] = true
	}
	return res
}

// failures counts failed requests.
func (r *loadResult) failures() int {
	n := 0
	for _, f := range r.Failed {
		if f {
			n++
		}
	}
	return n
}

// latencies returns the latencies in ms of the requests selected by keep
// (all when keep is nil), failed ones excluded.
func (r *loadResult) latencies(keep func(i int) bool) []float64 {
	var out []float64
	for i, d := range r.Latency {
		if r.Failed[i] || (keep != nil && !keep(i)) {
			continue
		}
		out = append(out, ms(d))
	}
	return out
}

// latenessGrowth is how much later the generator ran in its last quarter
// than in its first (difference of the quarters' median lateness, ms). A
// target that keeps up holds it near zero; one that cannot lets it climb
// for as long as the run lasts.
func (r *loadResult) latenessGrowth() float64 {
	n := len(r.Lateness)
	q := n / 4
	if q == 0 {
		return 0
	}
	return median(msAll(r.Lateness[n-q:])) - median(msAll(r.Lateness[:q]))
}

// maxLateness is the worst send-time slip of the run, in ms.
func (r *loadResult) maxLateness() float64 {
	var worst time.Duration
	for _, d := range r.Lateness {
		if d > worst {
			worst = d
		}
	}
	return ms(worst)
}

// closedLoop runs inflight callers that each wait for their reply, from
// request first on, for d: the serving workloads' warm-up and the capacity
// estimate that seeds the sustained-rate search. It returns the requests
// completed per second and the next unused request index.
func closedLoop(ctx context.Context, inflight int, d time.Duration, first int, do op) (float64, int, error) {
	var (
		mu   sync.Mutex
		next = first
		done int
		ferr error
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				err := do(ctx, i)
				mu.Lock()
				if err != nil && ferr == nil {
					ferr = err
				}
				done++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(done) / time.Since(start).Seconds(), next, ferr
}
