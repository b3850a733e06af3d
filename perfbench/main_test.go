package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// A run that attempted no operation has checked nothing, so it must not
// pass, even with every metric reported.
func TestRunWithoutOperationsFails(t *testing.T) {
	workloads["idle"] = workload{scale: 0.01, run: func(_ context.Context, _ *runConfig, rep *runReport) error {
		for _, name := range []string{"setup_s", "heap_live_mb", "p50_ms", "p99_ms"} {
			rep.add(name, 1, 1)
		}
		return nil
	}}
	defer delete(workloads, "idle")
	var out bytes.Buffer
	if code := benchMain(time.Now(), []string{"--workload", "idle", "--seconds", "1"}, &out); code == 0 {
		t.Fatalf("exit code 0 for a run that attempted nothing\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 0 {
		t.Errorf("result %+v; want correct=false, attempted=0", res)
	}
}

// A run that leaves out a metric it owes fails without a result line.
func TestRunMissingAMetricFails(t *testing.T) {
	workloads["partial"] = workload{scale: 0.01, run: func(_ context.Context, _ *runConfig, rep *runReport) error {
		rep.check("op", 1, 0, "")
		rep.add("setup_s", 1, 1)
		return nil
	}}
	defer delete(workloads, "partial")
	var out bytes.Buffer
	if code := benchMain(time.Now(), []string{"--workload", "partial", "--seconds", "1"}, &out); code == 0 {
		t.Fatalf("exit code 0 for a run without heap_live_mb, p50_ms and p99_ms\n%s", out.String())
	}
	if strings.Contains(out.String(), "{") {
		t.Errorf("printed a result line for an incomplete run:\n%s", out.String())
	}
}

// A traced run reports every layer metric: the ones its workload measures
// and, as 0 from 0 samples, the ones it does not; a measured layer left
// out fails the run.
func TestTracedRunCompletesLayers(t *testing.T) {
	rep := &runReport{}
	for name, info := range catalog {
		if info.Layer && info.measuredOn(wFanout) {
			rep.add(name, 2, 1)
		}
	}
	if err := completeMetrics(wFanout, true, rep); err != nil {
		t.Fatal(err)
	}
	got := map[string]measured{}
	for _, m := range rep.metrics {
		got[m.Name] = m
	}
	for name, info := range catalog {
		m, ok := got[name]
		switch {
		case !info.Layer:
			if ok {
				t.Errorf("traced run reports end-to-end metric %s", name)
			}
		case !ok:
			t.Errorf("traced run lacks %s", name)
		case info.measuredOn(wFanout) && m.Value != 2:
			t.Errorf("%s = %g, want the measured 2", name, m.Value)
		case !info.measuredOn(wFanout) && (m.Value != 0 || m.Samples != 0):
			t.Errorf("%s = %g from %d samples, want 0 from 0", name, m.Value, m.Samples)
		}
	}
	if err := completeMetrics(wFanout, true, &runReport{}); err == nil {
		t.Error("a traced router-fanout run without its router metrics passed")
	}
}
