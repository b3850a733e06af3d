package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogMatchesBenchmark keeps BENCHMARK.json and the metrics the
// code can emit in step: same names, units and directions, and the
// workloads the binary runs.
func TestCatalogMatchesBenchmark(t *testing.T) {
	bf := loadBenchFile(t)
	declared := map[string]bool{}
	maxBound, setupBound := 0.0, 0.0
	for _, m := range bf.EndToEnd {
		info, ok := catalog[m.Name]
		switch {
		case !ok || info.Layer:
			t.Errorf("end-to-end metric %s is not an end-to-end metric of the catalog", m.Name)
		case info.Unit != m.Unit || info.Better != m.Better:
			t.Errorf("%s: BENCHMARK.json says %s/%s, catalog %s/%s", m.Name, m.Unit, m.Better, info.Unit, info.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		declared[m.Name] = true
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	for _, m := range bf.PerLayer {
		info, ok := catalog[m.Name]
		switch {
		case !ok || !info.Layer:
			t.Errorf("per-layer metric %s is not a layer metric of the catalog", m.Name)
		case info.Unit != m.Unit:
			t.Errorf("%s: BENCHMARK.json unit %s, catalog %s", m.Name, m.Unit, info.Unit)
		}
		declared[m.Name] = true
	}
	for name, info := range catalog {
		if !declared[name] {
			t.Errorf("catalog metric %s is missing from BENCHMARK.json", name)
		}
		for _, w := range info.On {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s: measured on unknown workload %q", name, w)
			}
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	var runnable []string
	for name := range workloads {
		runnable = append(runnable, name)
	}
	sort.Strings(names)
	sort.Strings(runnable)
	if strings.Join(names, ",") != strings.Join(runnable, ",") {
		t.Errorf("BENCHMARK.json workloads %v, binary runs %v", names, runnable)
	}
	if len(bf.Command) < 2 || !strings.HasPrefix(bf.Command[1], bf.Paths[0]+"/") {
		t.Errorf("command %v does not run a file under %v", bf.Command, bf.Paths)
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	fp := fingerprint{CPUModel: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Workload: "serve-miss", Scale: 0.05}
	other := fp
	other.NumCPU = 4
	mk := func(f fingerprint, v float64) record {
		return record{Fingerprint: f, Result: result{Metrics: map[string]metricValue{"p50_ms": {Value: v, Unit: "ms"}}}}
	}
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := compareRuns(&out, spec, []record{mk(fp, 1)}, []record{mk(other, 1)}); err == nil {
		t.Fatal("compare accepted results from hosts with different core counts")
	}
	// Same environment, different commit: comparable, and a 30% slower
	// median is a regression against a 10% bound.
	changed := fp
	changed.Commit = "abc"
	base := []record{mk(fp, 1.0), mk(fp, 1.01), mk(fp, 0.99), mk(fp, 1.0)}
	slow := []record{mk(changed, 1.3), mk(changed, 1.31), mk(changed, 1.29), mk(changed, 1.3)}
	regressed, err := compareRuns(&out, spec, base, slow)
	if err != nil || regressed != 1 {
		t.Fatalf("regressed = %d, err = %v; want 1, nil\n%s", regressed, err, out.String())
	}
	if regressed, err := compareRuns(&out, spec, base, base); err != nil || regressed != 0 {
		t.Fatalf("identical runs: regressed = %d, err = %v", regressed, err)
	}
}
