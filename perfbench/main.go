package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is what a workload gets from the command line.
type runConfig struct {
	seed     uint64
	seconds  float64
	trace    bool
	inflight int       // outstanding-request cap: the host's core count
	start    time.Time // process start, as main first saw it
}

// measured is one reported metric with the number of samples behind it.
type measured struct {
	Name    string
	Value   float64
	Samples int
}

// runReport is what a workload measured and checked.
type runReport struct {
	metrics   []measured
	attempted int
	failed    int
	checks    []string // failed correctness checks, for the log
	notes     []string
}

func (r *runReport) add(name string, v float64, samples int) {
	r.metrics = append(r.metrics, measured{Name: name, Value: v, Samples: samples})
}

// check records a correctness check over n operations of which bad
// failed it; failures count as failed operations.
func (r *runReport) check(name string, n, bad int, detail string) {
	r.attempted += n
	r.failed += bad
	if bad > 0 {
		r.checks = append(r.checks, fmt.Sprintf("%s: %d of %d failed: %s", name, bad, n, detail))
	}
}

func (r *runReport) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload runs one workload and fills rep. The scale is the corpus scale
// the workload serves, recorded in the fingerprint.
type workload struct {
	scale float64
	run   func(ctx context.Context, cfg *runConfig, rep *runReport) error
}

var workloads = map[string]workload{
	wPipeline: {pipelineScale, runPaperPipeline},
	wMiss:     {missScale, runServeMiss},
	wHot:      {hotScale, runServeHotRW},
	wFanout:   {fanoutScale, runRouterFanout},
}

func main() {
	start := time.Now()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(start, os.Args[1:], os.Stdout))
}

func benchMain(start time.Time, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-pipeline, serve-miss, serve-hot-rw or router-fanout")
	seed := fs.Uint64("seed", 1, "seed of the run's queries and traffic")
	seconds := fs.Float64("seconds", 10, "measurement time budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", "", "append the fingerprinted result to this file (JSON lines, for compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := &runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, inflight: runtime.NumCPU(), start: start}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := &runReport{}
	if err := wl.run(ctx, cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := completeMetrics(*name, cfg.trace, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if rep.attempted == 0 {
		rep.checks = append(rep.checks, "run: no operation attempted")
	}
	res := result{Correct: rep.failed == 0 && len(rep.checks) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(rep.metrics))}
	var missing []string
	for _, m := range rep.metrics {
		info, ok := catalog[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: info.Unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: metrics missing from the catalog: %v\n", missing)
		return 1
	}
	fp := takeFingerprint(*name, wl.scale, cfg.seed, cfg.trace)
	printReport(stdout, *name, cfg, rep)
	fpLine, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpLine)
	if *out != "" {
		if err := appendRecord(*out, record{Fingerprint: fp, Result: res}); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// completeMetrics checks that the run reported every metric its mode
// owes: every end-to-end metric untraced, and traced every layer metric
// the catalog says this workload measures. A layer the workload's path
// does not measure is reported as 0 from 0 samples, so that every traced
// result carries the same metrics.
func completeMetrics(workload string, traced bool, rep *runReport) error {
	have := map[string]bool{}
	for _, m := range rep.metrics {
		have[m.Name] = true
	}
	var missing []string
	for _, name := range sortedNames(catalog) {
		info := catalog[name]
		switch {
		case have[name] || info.Layer != traced:
		case traced && !info.measuredOn(workload):
			rep.add(name, 0, 0)
		default:
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("run did not report %s", strings.Join(missing, ", "))
	}
	return nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printReport writes the human-readable lines that precede the result:
// every metric with its unit and sample count, and in a traced run the
// end-to-end metric and workload each layer metric should move.
func printReport(w io.Writer, name string, cfg *runConfig, rep *runReport) {
	for _, n := range rep.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	ms := append([]measured(nil), rep.metrics...)
	sort.Slice(ms, func(a, b int) bool { return ms[a].Name < ms[b].Name })
	for _, m := range ms {
		info := catalog[m.Name]
		if cfg.trace {
			if m.Samples == 0 && !info.measuredOn(name) {
				fmt.Fprintf(w, "layer %-28s %14s %-6s not measured on this workload (reported as 0)\n", m.Name, "-", info.Unit)
				continue
			}
			fmt.Fprintf(w, "layer %-28s %14.6g %-6s n=%-7d moves %s\n", m.Name, m.Value, info.Unit, m.Samples, info.Moves)
		} else {
			fmt.Fprintf(w, "metric %-14s %14.6g %-6s n=%d\n", m.Name, m.Value, info.Unit, m.Samples)
		}
	}
	fmt.Fprintf(w, "ops %s attempted=%d failed=%d\n", name, rep.attempted, rep.failed)
	for _, c := range rep.checks {
		fmt.Fprintf(w, "FAILED %s\n", c)
	}
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareMain implements `perfbench compare base.jsonl change.jsonl`,
// with the bounds read from BENCHMARK.json in the working directory (run.sh
// runs from the source tree's root): exit 0 when nothing regressed, 1 on a
// regression, 2 when the inputs are unusable or their environments differ.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare base.jsonl change.jsonl")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	regressed, err := compareRuns(stdout, spec, base, change)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

// liveHeapMB is the Go heap the process still holds after a forced
// collection: the memory its data structures need. A workload reads it at
// the end of its timed window, with everything it serves from alive. The
// resident-set high-water mark would include how far the heap overshot
// between collections, which depends on when the collector happened to
// run and so varied by a fifth between runs of the same work.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// goWindow is a reading of the Go runtime's cumulative allocation and GC
// pause counters; two readings bracket a timed window.
type goWindow struct {
	allocBytes uint64
	pauseSec   float64
}

func readGo() goWindow {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	var w goWindow
	if s[0].Value.Kind() == metrics.KindUint64 {
		w.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			w.pauseSec += float64(c) * (lo + hi) / 2
		}
	}
	return w
}

// addGoLayer reports the runtime's GC pause time and allocation per
// operation between two readings.
func addGoLayer(rep *runReport, before, after goWindow, ops int) {
	rep.add("go.gc_pause_ms", (after.pauseSec-before.pauseSec)*1e3, 1)
	if ops > 0 {
		rep.add("go.alloc_bytes_per_op", float64(after.allocBytes-before.allocBytes)/float64(ops), ops)
	}
}

var errInterrupted = errors.New("interrupted")
