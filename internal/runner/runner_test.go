package runner

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"itbsim/internal/netsim"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

func testNet(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.NewTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testSpec is a small-but-real grid: 3 schemes × 2 patterns, 2 loads.
func testSpec(t *testing.T, net *topology.Network) Spec {
	t.Helper()
	return Spec{
		Net:     net,
		Schemes: []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR},
		Patterns: []Pattern{
			{Kind: "uniform"},
			{Kind: "hotspot", HotspotHost: 3, HotspotFraction: 0.1},
		},
		Loads:           []float64{0.02, 0.05},
		MessageBytes:    128,
		Seed:            1,
		WarmupMessages:  50,
		MeasureMessages: 200,
		MaxCycles:       8_000_000,
		Label:           "test",
	}
}

// stripTiming zeroes the wall-clock fields so reports can be compared for
// value equality.
func stripTiming(rep *Report) {
	rep.Wall = 0
	for i := range rep.Curves {
		rep.Curves[i].TableBuild = 0
		rep.Curves[i].Sim = 0
	}
	rep.Parallel = 0
}

// TestCurveSimTimeRecorded: every simulated curve reports the wall time of
// its load walk, which feeds sweep -json sim_ms, the progress line and the
// journal's sim_us.
func TestCurveSimTimeRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	spec := testSpec(t, testNet(t))
	spec.Schemes = []routes.Scheme{routes.UpDown, routes.ITBRR}
	spec.Patterns = spec.Patterns[:1]
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rep.Curves {
		if len(cr.Curve.Points) == 0 {
			t.Fatalf("%s: no points simulated", cr.Job.Label)
		}
		if cr.Sim <= 0 {
			t.Errorf("%s: CurveResult.Sim = %v after simulating %d points", cr.Job.Label, cr.Sim, len(cr.Curve.Points))
		}
	}
}

// TestDeterminismAcrossParallelism is the core contract: the same spec
// must produce byte-identical results at parallel=1 and parallel=8. Run
// under -race this also proves the worker pool race-clean.
func TestDeterminismAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)

	seq := testSpec(t, net)
	seq.Parallel = 1
	repSeq, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}

	par := testSpec(t, net)
	par.Parallel = 8
	repPar, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}

	stripTiming(repSeq)
	stripTiming(repPar)
	if len(repSeq.Curves) != 6 || len(repPar.Curves) != 6 {
		t.Fatalf("expected 6 curves, got %d and %d", len(repSeq.Curves), len(repPar.Curves))
	}
	for i := range repSeq.Curves {
		a, b := &repSeq.Curves[i], &repPar.Curves[i]
		if !reflect.DeepEqual(a, b) {
			t.Errorf("curve %d (%s) diverges between parallel=1 and parallel=8:\nseq: %+v\npar: %+v",
				i, a.Job.Label, a, b)
		}
	}
}

// TestTableCacheOneBuildPerScheme: a multi-curve spec (schemes × patterns
// × replicas) must build each scheme's table exactly once.
func TestTableCacheOneBuildPerScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	cache := NewTableCache()
	spec := testSpec(t, net)
	spec.Loads = []float64{0.02}
	spec.MeasureMessages = 50
	spec.Replicas = 2
	spec.Cache = cache
	spec.Parallel = 8
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Curves); got != 12 {
		t.Fatalf("expected 3 schemes × 2 patterns × 2 replicas = 12 curves, got %d", got)
	}
	if cache.Builds() != 3 {
		t.Errorf("built %d tables for 3 schemes across 12 jobs, want 3", cache.Builds())
	}
	if rep.TableBuilds != 3 {
		t.Errorf("report counted %d table builds, want 3", rep.TableBuilds)
	}
	if cache.Hits() != 9 {
		t.Errorf("cache hits = %d, want 9 (12 gets - 3 builds)", cache.Hits())
	}

	// A second run on the same cache rebuilds nothing.
	spec2 := testSpec(t, net)
	spec2.Loads = []float64{0.02}
	spec2.MeasureMessages = 50
	spec2.Cache = cache
	if _, err := Run(spec2); err != nil {
		t.Fatal(err)
	}
	if cache.Builds() != 3 {
		t.Errorf("second run rebuilt tables: %d builds total, want 3", cache.Builds())
	}
}

// TestTableCacheSingleFlight: concurrent Gets for one key build once.
func TestTableCacheSingleFlight(t *testing.T) {
	net := testNet(t)
	cache := NewTableCache()
	var wg sync.WaitGroup
	tables := make([]*routes.Table, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tab, err := cache.Get(net, routes.DefaultConfig(routes.ITBRR))
			if err != nil {
				t.Error(err)
				return
			}
			tables[i] = tab
		}(i)
	}
	wg.Wait()
	if cache.Builds() != 1 {
		t.Errorf("concurrent gets built %d tables, want 1", cache.Builds())
	}
	for i := 1; i < 8; i++ {
		if tables[i] != tables[0] {
			t.Fatalf("goroutine %d got a different table pointer", i)
		}
	}
}

// TestEarlyStopPastSaturation: a load grid extending far beyond saturation
// must not be walked to the end.
func TestEarlyStopPastSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	spec := testSpec(t, net)
	spec.Schemes = []routes.Scheme{routes.UpDown}
	spec.Patterns = []Pattern{{Kind: "uniform"}}
	spec.Loads = []float64{0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.26, 0.30, 0.34, 0.38}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Curves[0].Curve
	if !c.Saturated() {
		t.Fatal("sweep never saturated")
	}
	if len(c.Points) == len(spec.Loads) {
		t.Errorf("walked all %d points despite early saturation", len(spec.Loads))
	}
}

// TestRunCancelled: a cancelled context fails jobs with the context error
// while keeping the report.
func TestRunCancelled(t *testing.T) {
	net := testNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := testSpec(t, net)
	spec.Context = ctx
	rep, err := Run(spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if rep == nil || len(rep.Curves) != 6 {
		t.Fatal("report missing despite cancellation")
	}
}

// TestSpecValidation: the normalization errors.
func TestSpecValidation(t *testing.T) {
	net := testNet(t)
	tab, err := routes.Build(net, routes.DefaultConfig(routes.UpDown))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"no net", Spec{Loads: []float64{0.01}}},
		{"no loads", Spec{Net: net, Table: tab, Dest: uniformDest(net.NumHosts())}},
		{"no schemes or table", Spec{Net: net, Loads: []float64{0.01}, Patterns: []Pattern{{Kind: "uniform"}}}},
		{"no patterns or dest", Spec{Net: net, Loads: []float64{0.01}, Table: tab}},
		{"table and schemes", Spec{Net: net, Loads: []float64{0.01}, Table: tab,
			Schemes: []routes.Scheme{routes.UpDown}, Patterns: []Pattern{{Kind: "uniform"}}}},
		{"dest and patterns", Spec{Net: net, Loads: []float64{0.01}, Table: tab,
			Dest: uniformDest(net.NumHosts()), Patterns: []Pattern{{Kind: "uniform"}}}},
	}
	for _, c := range cases {
		if _, err := Run(c.spec); err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
		}
	}
}

// TestLabels: grid jobs compose labels; the single-curve form (Sweep)
// keeps the label verbatim.
func TestLabels(t *testing.T) {
	net := testNet(t)
	spec := testSpec(t, net)
	_, jobs, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got := jobs[0].Label; got != "test UP/DOWN uniform" {
		t.Errorf("grid label = %q", got)
	}
	if got := jobs[3].Label; !strings.Contains(got, "hotspot") {
		t.Errorf("pattern missing from label %q", got)
	}

	tab, err := routes.Build(net, routes.DefaultConfig(routes.UpDown))
	if err != nil {
		t.Fatal(err)
	}
	single := Spec{Net: net, Table: tab, Dest: uniformDest(net.NumHosts()),
		Loads: []float64{0.01}, Label: "exact"}
	_, jobs, err = single.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Label != "exact" {
		t.Errorf("single-curve label = %+v", jobs)
	}
}

// TestReporterStreams: the reporter sees every job and point, serialized.
func TestReporterStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	rec := &recordingReporter{}
	spec := testSpec(t, net)
	spec.Loads = []float64{0.02}
	spec.MeasureMessages = 50
	spec.Reporter = rec
	spec.Parallel = 4
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.started != len(rep.Curves) || rec.done != len(rep.Curves) {
		t.Errorf("reporter saw %d starts, %d dones for %d jobs", rec.started, rec.done, len(rep.Curves))
	}
	points := 0
	for i := range rep.Curves {
		points += len(rep.Curves[i].Curve.Points)
	}
	if rec.points != points {
		t.Errorf("reporter saw %d points, curves hold %d", rec.points, points)
	}
}

type recordingReporter struct {
	started, points, done int
}

func (r *recordingReporter) JobStarted(Job) { r.started++ }
func (r *recordingReporter) PointDone(Job, float64, *netsim.Result) {
	r.points++
}
func (r *recordingReporter) JobDone(*CurveResult) { r.done++ }

// uniformDest is a deterministic stateless destination chooser for tests.
func uniformDest(numHosts int) netsim.DestFn {
	return func(src int, rng *netsim.RNG) int {
		for {
			d := rng.Intn(numHosts)
			if d != src {
				return d
			}
		}
	}
}
