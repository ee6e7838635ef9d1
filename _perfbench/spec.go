package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

const specFile = "BENCHMARK.json"

type named struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// workloads with the reason each was chosen, and the metric names and
// units it must print.
type benchSpec struct {
	Workloads []named `json:"workloads"`
	EndToEnd  []named `json:"end_to_end"`
	PerLayer  []named `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", specFile, err)
	}
	return &s, nil
}

func (s *benchSpec) find(name string) (workload, string, error) {
	for _, n := range s.Workloads {
		if n.Name != name {
			continue
		}
		for _, w := range workloads {
			if w.name == name {
				return w, n.Why, nil
			}
		}
	}
	return workload{}, "", fmt.Errorf("unknown workload %q", name)
}

// sameMetrics reports how the printed metrics differ from the declared ones.
func sameMetrics(want []named, got map[string]metric) []string {
	var diffs []string
	seen := map[string]bool{}
	for _, n := range want {
		seen[n.Name] = true
		g, ok := got[n.Name]
		switch {
		case !ok:
			diffs = append(diffs, "missing "+n.Name)
		case g.Unit != n.Unit:
			diffs = append(diffs, fmt.Sprintf("%s: unit %q, declared %q", n.Name, g.Unit, n.Unit))
		}
	}
	for _, k := range sortedKeys(got) {
		if !seen[k] {
			diffs = append(diffs, "undeclared "+k)
		}
	}
	return diffs
}

// runSmoke runs every declared workload, untraced and traced, at a tiny
// size, and fails if a run fails or prints other metric names or units than
// BENCHMARK.json declares.
func runSmoke(spec *benchSpec) int {
	ok := len(spec.Workloads) == len(workloads)
	total := result{Metrics: map[string]metric{}}
	for _, n := range spec.Workloads {
		w, _, err := spec.find(n.Name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: smoke:", err)
			ok = false
			continue
		}
		for _, traced := range []bool{false, true} {
			start := time.Now()
			res, _, err := runWorkload(w, w.smoke, 1, 0, traced, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: smoke:", err)
				return 1
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			diffs := sameMetrics(want, res.Metrics)
			fmt.Printf("smoke %s trace=%v: %d metrics, %d/%d operations failed, %.1fs\n",
				w.name, traced, len(res.Metrics), res.Failed, res.Attempted, time.Since(start).Seconds())
			for _, d := range diffs {
				fmt.Println("  metric mismatch:", d)
			}
			ok = ok && len(diffs) == 0 && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
		}
	}
	total.Correct = ok
	line, _ := json.Marshal(total)
	fmt.Println(string(line))
	if !ok {
		return 1
	}
	return 0
}

// provenance describes the host, the code and the exact invocation.
func provenance(workload, why string, seed int64) map[string]any {
	cmd := os.Getenv("PERFBENCH_COMMAND")
	if cmd == "" {
		cmd = strings.Join(os.Args, " ")
	}
	commit := "unknown (not built in a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      workload,
		"why":           why,
		"seed":          seed,
		"command":       cmd,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(),
		"paper_reference": map[string]any{
			"source":                     "fig. 7a, 8x8 torus, 512 hosts, uniform traffic, 512-byte messages",
			"saturation_flits_ns_switch": map[string]float64{"UP/DOWN": 0.015, "ITB-SP": 0.029, "ITB-RR": 0.032},
			"model_sat_throughput":       0.032,
			"model_itb_gain":             2.1,
			"model_itb_gain_measured":    "EXPERIMENTS.md, full paper-scale sweep: x1.46 (ITB-RR 0.0277, UP/DOWN 0.0189)",
			"model_p99_ns":               "not reported by the paper",
			"comparable":                 workload == "fig7-paper",
		},
	}
}

// sourceDigest hashes every Go source and module file under the working
// directory, skipping dot-directories, so a result names the code that
// produced it even where no git revision is available.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "go.mod") && !strings.HasSuffix(path, ".json") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// peakRSS is the process's peak resident set in bytes (VmHWM), or the Go
// runtime's total from the OS where /proc is unavailable.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys)
}
