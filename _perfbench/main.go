// Command perfbench is the repository's benchmark. It runs one workload
// (fig7-paper, routes-torus16 or hotspot-faults) back to back for a fixed
// host-time budget on one worker, with every simulation serial, checks the
// outputs against pinned digests and invariants, and prints one JSON result
// line whose metrics are named in BENCHMARK.json.
//
// Build and run it from the repository root through _perfbench/run.sh:
//
//	bash _perfbench/run.sh --workload fig7-paper --seed 1 --seconds 30 --trace 0
//	bash _perfbench/run.sh --smoke
//
// --trace 1 adds a traced pass and per-layer probes and prints the
// per-layer metrics instead of the end-to-end ones; the spans are written
// to .bench_build/traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// outDir holds everything a run writes: spans and observed outputs.
const outDir = ".bench_build"

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "host seconds to keep repeating the workload")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	smoke := flag.Bool("smoke", false, "run every workload at a tiny size and check the metric names and units against BENCHMARK.json")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *smoke {
		os.Exit(runSmoke(spec))
	}
	w, why, err := spec.find(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, detail, err := runWorkload(w, w.full, *seed, time.Duration(*seconds)*time.Second, *traced == 1, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov := provenance(w.name, why, *seed)
	prov["model"] = detail
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
}

// runWorkload runs one workload at one size and assembles its result. An
// error means the benchmark itself could not run; failed operations are
// reported in the result instead.
func runWorkload(w workload, sz size, seed int64, budget time.Duration, traced, pinnedSize bool) (*result, map[string]any, error) {
	ck, err := newChecker(w.name, seed, pinnedSize)
	if err != nil {
		return nil, nil, err
	}
	var passes []*pass
	var metrics map[string]metric
	if traced {
		metrics, passes, err = tracedRun(w, sz, seed, ck)
		if err != nil {
			return nil, nil, err
		}
	} else {
		start := time.Now()
		for {
			p := runPass(w, sz, seed, ck, nil)
			p.release()
			passes = append(passes, p)
			if p.err != nil || time.Since(start)+p.wall > budget {
				break
			}
		}
		metrics = endToEnd(passes)
	}
	if pinnedSize {
		if err := ck.writeObserved(outDir+"/observed", w.name, seed); err != nil {
			return nil, nil, err
		}
	}
	for _, msg := range ck.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
	}
	first := passes[0]
	detail := map[string]any{"passes": len(passes)}
	for s, v := range first.sat {
		detail["max_accepted."+schemeName(s)] = v
	}
	return &result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: metrics}, detail, nil
}

// runPass runs one pass and records its wall time and any failure.
func runPass(w workload, sz size, seed int64, ck *checker, tr *tracer) *pass {
	p := newPass(sz, seed, ck, tr)
	ck.startPass()
	p.restart()
	if tr != nil {
		p.root = tr.add("pass", -1, "", p.start, time.Time{})
	}
	p.err = w.run(p)
	p.wall = time.Since(p.start)
	p.alloc = totalAlloc() - p.alloc0
	if tr != nil {
		tr.spans[p.root].End = time.Since(tr.epoch)
	}
	ck.endPass()
	if p.err != nil && ck.failed == 0 {
		ck.op(w.name, p.err)
	}
	return p
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ps []*pass, f func(*pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

const mib = 1 << 20

// endToEnd turns the untraced passes into the end-to-end metrics: timings
// are medians over the passes, the model figures come from the first pass
// (every repeat must reproduce them exactly).
func endToEnd(ps []*pass) map[string]metric {
	p := ps[0]
	return map[string]metric{
		"setup_s":              {medianOf(ps, func(p *pass) float64 { return p.setup.Seconds() }), "s"},
		"wall_s":               {medianOf(ps, func(p *pass) float64 { return p.wall.Seconds() }), "s"},
		"sim_cycles_per_s":     {medianOf(ps, func(p *pass) float64 { return ratio(float64(p.cycles), p.simTime.Seconds()) }), "1/s"},
		"sim_msgs_per_s":       {medianOf(ps, func(p *pass) float64 { return ratio(float64(p.msgs), p.simTime.Seconds()) }), "1/s"},
		"alloc_mb":             {medianOf(ps, func(p *pass) float64 { return float64(p.alloc) / mib }), "MiB"},
		"peak_rss_mb":          {peakRSS() / mib, "MiB"},
		"model_sat_throughput": {p.sat[itbRR], "flits/ns/switch"},
		"model_itb_gain":       {ratio(p.sat[itbRR], p.sat[upDown]), "ratio"},
		"model_p99_ns":         {p.p99, "ns"},
	}
}
