package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies where and on what a result was measured. Two
// results are comparable only when their environments match: the same CPU
// model, core count, GOMAXPROCS, Go version, workload and scale. Commit and
// seed are recorded too but are what a comparison varies.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	Trace      bool    `json:"trace"`
}

func takeFingerprint(workload string, scale float64, seed uint64, trace bool) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf("."),
		Workload:   workload,
		Scale:      scale,
		Seed:       seed,
		Trace:      trace,
	}
}

// envMismatch names the first environment field in which a and b differ,
// or returns "" when they are comparable.
func envMismatch(a, b fingerprint) string {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("cpu_model %q vs %q", a.CPUModel, b.CPUModel)
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("num_cpu %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go_version %s vs %s", a.GoVersion, b.GoVersion)
	case a.Workload != b.Workload:
		return fmt.Sprintf("workload %s vs %s", a.Workload, b.Workload)
	case a.Scale != b.Scale:
		return fmt.Sprintf("scale %g vs %g", a.Scale, b.Scale)
	case a.Trace != b.Trace:
		return fmt.Sprintf("trace %v vs %v", a.Trace, b.Trace)
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf returns the git commit checked out at root, or, in a source tree
// without git metadata, "src-" plus a digest of the Go sources and module
// files, so results from different code never share an identifier.
func commitOf(root string) string {
	if c := gitHead(root); c != "" {
		return c
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		_, _ = io.Copy(h, f) // a short read only weakens the identifier
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// record is one run as appended to an --out file: its fingerprint and its
// result line.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareRuns compares a base and a changed set of untraced runs metric by
// metric and workload by workload. It refuses (returns an error) when any
// two records' environments differ. A metric regresses when the change's
// median is worse than the base's by more than the metric's bound; the
// verdict is unresolved when the base's own quartile spread exceeds the
// bound, since then the bound cannot tell a change from noise.
func compareRuns(w io.Writer, spec benchSpec, base, change []record) (regressed int, err error) {
	all := append(append([]record(nil), base...), change...)
	if len(base) == 0 || len(change) == 0 {
		return 0, fmt.Errorf("compare: need runs on both sides (have %d and %d)", len(base), len(change))
	}
	byWorkload := map[string]fingerprint{}
	for _, r := range all {
		ref, ok := byWorkload[r.Fingerprint.Workload]
		if !ok {
			byWorkload[r.Fingerprint.Workload] = r.Fingerprint
			continue
		}
		if why := envMismatch(ref, r.Fingerprint); why != "" {
			return 0, fmt.Errorf("compare: refusing results from different environments: %s", why)
		}
	}
	workloads := make([]string, 0, len(byWorkload))
	for name := range byWorkload {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	values := func(rs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Fingerprint.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			b, c := values(base, wl, m.Name), values(change, wl, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(b)
			cq1, cmed, cq3 := quartiles(c)
			worse := (cmed - bmed) / bmed
			if m.Better == "higher" {
				worse = -worse
			}
			spread := math.Abs(bq3-bq1) / math.Abs(bmed)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved (base spread above bound)"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Fprintf(w, "%-15s %-14s base %.4g [%.4g, %.4g] n=%d  change %.4g [%.4g, %.4g] n=%d  worse %+.1f%% (bound %.0f%%)  %s\n",
				wl, m.Name, bmed, bq1, bq3, len(b), cmed, cq1, cq3, len(c), 100*worse, 100*m.Bound, verdict)
		}
	}
	return regressed, nil
}
