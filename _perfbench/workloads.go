package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"itbsim/internal/faults"
	"itbsim/internal/metrics"
	"itbsim/internal/netsim"
	"itbsim/internal/optimize"
	"itbsim/internal/routes"
	"itbsim/internal/runner"
	"itbsim/internal/topology"
)

const (
	messageBytes = 512
	maxCycles    = 30_000_000
	// saturationRatio is the runner's default knee rule: a point whose
	// accepted traffic is below this share of the injected traffic is
	// saturated.
	saturationRatio = 0.92
	// profileCycles is the optimizer's profiling pre-pass length, set in
	// hotspot-faults' spec so the traced run can rebuild the optimized
	// tables the sweep used without relying on the runner's default.
	profileCycles = 200_000
	// checkpointPoint is the PointSeed coordinate of the snapshotted point;
	// no load point of a sweep uses it.
	checkpointPoint = 1000
)

// size fixes how much simulated work one pass of a workload does.
type size struct {
	rows, cols, hosts int
	warmup, measure   int
	// grids are the sweeps of a pass. Every point of every grid is
	// simulated, saturated or not, so the work of a pass does not depend
	// on the seed; each compared scheme's grid ends past its knee.
	grids []grid
	// p99Load is the below-knee load at which model_p99_ns is read.
	p99Load float64
	// faultAt places one link failure inside every point (hotspot-faults
	// only). The extra checkpointed point runs at snapLoad and is
	// snapshotted every snapEvery cycles; the first snapshot, taken after
	// the controller swapped in the degraded tables, is restored.
	faultAt, snapEvery int64
	snapLoad           float64
	// setups is how many times an untraced pass of a uniform sweep sets
	// up; setup_s is the median. Set-up is repeated only where it is a
	// small share of the pass, so one sample of it would be mostly noise.
	setups int
}

// grid is one runner.Run: schemes swept over one ascending load grid.
type grid struct {
	schemes []routes.Scheme
	loads   []float64
}

func one(s routes.Scheme, loads ...float64) grid { return grid{[]routes.Scheme{s}, loads} }

type workload struct {
	name        string
	full, smoke size
	run         func(p *pass) error
}

var workloads = []workload{
	{
		name: "fig7-paper",
		// §4.1: 8x8 torus, 8 hosts per switch (512 hosts).
		full: size{rows: 8, cols: 8, hosts: 8, warmup: 1000, measure: 2400, p99Load: 0.016, setups: 5, grids: []grid{
			one(routes.UpDown, 0.004, 0.016, 0.019, 0.022, 0.026),
			one(routes.ITBSP, 0.004, 0.016, 0.022, 0.026, 0.030),
			one(routes.ITBRR, 0.004, 0.016, 0.022, 0.026, 0.028, 0.030, 0.034)}},
		smoke: size{rows: 4, cols: 4, hosts: 2, warmup: 50, measure: 200, p99Load: 0.02, setups: 2, grids: []grid{
			one(routes.UpDown, 0.02, 0.12), one(routes.ITBSP, 0.02, 0.12), one(routes.ITBRR, 0.02, 0.12)}},
		run: uniformSweep(routes.UpDown, routes.ITBSP, routes.ITBRR),
	},
	{
		name: "routes-torus16",
		full: size{rows: 16, cols: 16, hosts: 2, warmup: 200, measure: 1200, p99Load: 0.002, grids: []grid{
			one(routes.UpDown, 0.002, 0.004, 0.005, 0.006),
			one(routes.ITBRR, 0.002, 0.006, 0.008, 0.009, 0.010, 0.012),
			// One low-load point runs the VC credit pipeline without a
			// second costly knee-crossing walk.
			one(routes.VC, 0.002)}},
		smoke: size{rows: 5, cols: 5, hosts: 1, warmup: 50, measure: 200, p99Load: 0.02, grids: []grid{
			one(routes.UpDown, 0.02, 0.2), one(routes.ITBRR, 0.02, 0.2), one(routes.VC, 0.02)}},
		run: uniformSweep(routes.UpDown, routes.ITBRR, routes.VC),
	},
	{
		name: "hotspot-faults",
		full: size{rows: 8, cols: 8, hosts: 2, warmup: 300, measure: 2000, p99Load: 0.006,
			grids:   []grid{{[]routes.Scheme{routes.UpDown, routes.ITBRR}, []float64{0.006, 0.014, 0.020, 0.026}}},
			faultAt: 20_000, snapEvery: 40_000, snapLoad: 0.014},
		smoke: size{rows: 4, cols: 4, hosts: 2, warmup: 50, measure: 400, p99Load: 0.02,
			grids:   []grid{{[]routes.Scheme{routes.UpDown, routes.ITBRR}, []float64{0.02, 0.12}}},
			faultAt: 500, snapEvery: 4_000, snapLoad: 0.02},
		run: hotspotFaults,
	},
}

var (
	uniform = runner.Pattern{Kind: "uniform"}
	// hotspot is the BENCH_9 setting: 10% of all traffic to host 0.
	hotspot = runner.Pattern{Kind: "hotspot", HotspotHost: 0, HotspotFraction: 0.1}
)

// schemeName is the lower-case scheme name used in metric and pin keys.
func schemeName(s routes.Scheme) string {
	switch s {
	case routes.UpDown:
		return "updown"
	case routes.ITBSP:
		return "itb-sp"
	case routes.ITBRR:
		return "itb-rr"
	case routes.VC:
		return "vc"
	}
	return s.String()
}

func pointKey(s routes.Scheme, load float64) string { return fmt.Sprintf("%s@%g", schemeName(s), load) }

// pointRec is one simulated load point of a sweep, timed from the runner's
// Reporter callbacks.
type pointRec struct {
	job        runner.Job
	index      int // position in the sweep's load grid
	load       float64
	res        *netsim.Result
	start, end time.Time
	spec       *runner.Spec
	table      *routes.Table // the pristine table the job started from
}

func (r *pointRec) saturated() bool { return r.res.Accepted < saturationRatio*r.res.Injected }

// recorder is the runner.Reporter of every sweep. CurveResult.Sim is not
// used: the runner's report always carries zero there, so point times come
// from these callbacks. A job's first point starts after its table build,
// which (under Spec.Optimize) includes the optimizer's profiling run.
type recorder struct {
	jobStart, jobEnd map[int]time.Time
	tableBuild       map[int]time.Duration
	firstPoint       map[int]int
	last             time.Time
	points           []pointRec
}

func newRecorder() *recorder {
	return &recorder{jobStart: map[int]time.Time{}, jobEnd: map[int]time.Time{},
		tableBuild: map[int]time.Duration{}, firstPoint: map[int]int{}}
}

func (r *recorder) JobStarted(j runner.Job) {
	r.last = time.Now()
	r.jobStart[j.Index] = r.last
}

func (r *recorder) PointDone(j runner.Job, load float64, res *netsim.Result) {
	now := time.Now()
	n := 0
	if i, ok := r.firstPoint[j.Index]; ok {
		n = len(r.points) - i
	} else {
		r.firstPoint[j.Index] = len(r.points)
	}
	r.points = append(r.points, pointRec{job: j, index: n, load: load, res: res, start: r.last, end: now})
	r.last = now
}

func (r *recorder) JobDone(cr *runner.CurveResult) {
	r.jobEnd[cr.Job.Index] = time.Now()
	r.tableBuild[cr.Job.Index] = cr.TableBuild
	if i, ok := r.firstPoint[cr.Job.Index]; ok {
		r.points[i].start = r.jobStart[cr.Job.Index].Add(cr.TableBuild)
	}
}

// pass is one run of a workload's fixed batch of work, with everything
// measured about it.
type pass struct {
	sz   size
	seed int64
	ck   *checker
	tr   *tracer // nil on untraced passes
	root int

	net    *topology.Network
	tables map[routes.Scheme]*routes.Table
	dest   map[string]netsim.DestFn

	start        time.Time
	wall         time.Duration
	err          error
	alloc0       uint64        // TotalAlloc at start
	alloc        uint64        // heap bytes allocated by the pass
	setup        time.Duration // set-up, including the runner's table builds
	simTime      time.Duration
	cycles, msgs int64
	tableBuild   time.Duration
	runnerWall   time.Duration
	cacheBuilds  int64
	cacheHits    int64
	points       []pointRec
	buildAlloc   map[routes.Scheme]uint64
	buildTime    map[routes.Scheme]time.Duration
	topoTime     time.Duration

	// Simulated outcome, deterministic for a seed.
	sat     map[routes.Scheme]float64
	crossed map[routes.Scheme]bool
	p99     float64

	// Checkpoint layer (hotspot-faults).
	snapshotTime, restoreTime time.Duration
	snapshotBytes             int
}

func newPass(sz size, seed int64, ck *checker, tr *tracer) *pass {
	p := &pass{sz: sz, seed: seed, ck: ck, tr: tr, root: -1,
		tables: map[routes.Scheme]*routes.Table{}, dest: map[string]netsim.DestFn{},
		buildAlloc: map[routes.Scheme]uint64{}, buildTime: map[routes.Scheme]time.Duration{},
		sat: map[routes.Scheme]float64{}, crossed: map[routes.Scheme]bool{}}
	return p
}

// release drops the pass's network, tables and results, so the next pass
// does not run with them still on the heap; the figures stay.
func (p *pass) release() {
	p.net, p.tables, p.dest, p.points = nil, nil, nil, nil
}

// restart moves the pass's start to now, so extra set-up samples taken
// before it stay out of wall_s and alloc_mb.
func (p *pass) restart() { p.start, p.alloc0 = time.Now(), totalAlloc() }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// topology builds the workload's torus.
func (p *pass) topology() error {
	start := time.Now()
	net, err := topology.NewTorus(p.sz.rows, p.sz.cols, p.sz.hosts, 16)
	end := time.Now()
	p.tr.add("topology.build", p.root, "", start, end)
	p.topoTime = end.Sub(start)
	p.net = net
	return err
}

// buildTables builds each scheme's table into the sweep's cache, so the
// runner's jobs find them there, and checks every fingerprint.
func (p *pass) buildTables(cache *runner.TableCache, schemes ...routes.Scheme) error {
	for _, s := range schemes {
		a0 := totalAlloc()
		start := time.Now()
		tab, err := cache.Get(p.net, routes.DefaultConfig(s))
		end := time.Now()
		p.buildAlloc[s] = totalAlloc() - a0
		p.buildTime[s] = end.Sub(start)
		p.tr.add("routes.build."+schemeName(s), p.root, "", start, end)
		if !p.ck.op("build "+schemeName(s), err) {
			return err
		}
		p.ck.table(schemeName(s), tab.Fingerprint())
		p.tables[s] = tab
	}
	return nil
}

// setUp builds the topology and the schemes' tables into a new cache.
func (p *pass) setUp(schemes ...routes.Scheme) (*runner.TableCache, error) {
	if err := p.topology(); err != nil {
		return nil, err
	}
	cache := runner.NewTableCache()
	return cache, p.buildTables(cache, schemes...)
}

func (p *pass) destFor(pat runner.Pattern) (netsim.DestFn, error) {
	k := pat.String()
	if d, ok := p.dest[k]; ok {
		return d, nil
	}
	d, err := pat.DestFn(p.net)
	p.dest[k] = d
	return d, err
}

// baseSpec is the sweep shape every workload shares: one serial worker,
// serial simulations, and no early stop past saturation.
func (p *pass) baseSpec(cache *runner.TableCache, schemes []routes.Scheme, pat runner.Pattern, loads []float64) runner.Spec {
	return runner.Spec{
		Net:                  p.net,
		Schemes:              schemes,
		Patterns:             []runner.Pattern{pat},
		Loads:                loads,
		MessageBytes:         messageBytes,
		Seed:                 p.seed,
		WarmupMessages:       p.sz.warmup,
		MeasureMessages:      p.sz.measure,
		MaxCycles:            maxCycles,
		PointsPastSaturation: len(loads),
		Parallel:             1,
		Shards:               1,
		Cache:                cache,
	}
}

// checkResult applies the invariants every simulated point must hold.
func checkResult(res *netsim.Result, plan *faults.Plan) error {
	switch {
	case res.Truncated:
		return fmt.Errorf("truncated at %d cycles", res.Cycles)
	case res.GeneratedMessages != res.DeliveredMessages+res.LostMessages+res.OutstandingAtEnd:
		return fmt.Errorf("message conservation broken: generated %d, delivered %d, lost %d, outstanding %d",
			res.GeneratedMessages, res.DeliveredMessages, res.LostMessages, res.OutstandingAtEnd)
	case res.ReconfigFailures > 0:
		return fmt.Errorf("%d reconfiguration failures: %s", res.ReconfigFailures, res.ReconfigError)
	case plan != nil && len(res.Reconfigs) != len(plan.Events):
		return fmt.Errorf("%d reconfigurations, want one per fault event (%d)", len(res.Reconfigs), len(plan.Events))
	}
	return nil
}

// sweep runs spec through runner.Run and checks and accounts every point.
func (p *pass) sweep(spec runner.Spec) error {
	rec := newRecorder()
	spec.Reporter = rec
	builds0, hits0 := spec.Cache.Builds(), spec.Cache.Hits()
	start := time.Now()
	rep, err := runner.Run(spec)
	end := time.Now()
	p.cacheBuilds += spec.Cache.Builds() - builds0
	p.cacheHits += spec.Cache.Hits() - hits0
	if rep != nil {
		p.runnerWall += rep.Wall
	}
	runID := p.tr.add("runner.run", p.root, "", start, end)
	jobSpan := map[int]int{}
	for idx := 0; idx < len(rec.jobStart); idx++ {
		js := rec.jobStart[idx]
		jobSpan[idx] = p.tr.add("runner.job", runID, fmt.Sprint(idx), js, rec.jobEnd[idx])
		p.tr.add("runner.table", jobSpan[idx], fmt.Sprint(idx), js, js.Add(rec.tableBuild[idx]))
		p.tableBuild += rec.tableBuild[idx]
	}
	for i := range rec.points {
		pt := &rec.points[i]
		pt.spec = &spec
		pt.table = p.tables[pt.job.Scheme]
		key := pointKey(pt.job.Scheme, pt.load)
		p.tr.add("netsim.point", jobSpan[pt.job.Index], key, pt.start, pt.end)
		p.simTime += pt.end.Sub(pt.start)
		p.cycles += pt.res.Cycles
		p.msgs += pt.res.DeliveredMessages
		if !p.ck.op("point "+key, checkResult(pt.res, spec.Faults)) {
			continue
		}
		p.ck.output(key, resultDigest(pt.res))
		s := pt.job.Scheme
		p.sat[s] = max(p.sat[s], pt.res.Accepted)
		p.crossed[s] = p.crossed[s] || pt.saturated()
		if s == routes.ITBRR && pt.load == p.sz.p99Load {
			p.p99 = pt.res.LatencyP99Ns
		}
	}
	p.points = append(p.points, rec.points...)
	if err != nil {
		p.ck.op("sweep", err)
	}
	return err
}

// model checks that both compared schemes crossed their knee on the grid,
// which makes the saturation figures and their ratio defined.
func (p *pass) model() error {
	for _, s := range []routes.Scheme{routes.UpDown, routes.ITBRR} {
		if !p.crossed[s] {
			err := fmt.Errorf("%s did not saturate on the load grid", s)
			p.ck.op("knee "+schemeName(s), err)
			return err
		}
	}
	if p.p99 == 0 {
		err := fmt.Errorf("no ITB-RR point at the p99 load %g", p.sz.p99Load)
		p.ck.op("p99", err)
		return err
	}
	return nil
}

func (p *pass) endSetup() { p.setup = time.Since(p.start) }

// sweepGrids runs every grid of the pass through runner.Run.
func (p *pass) sweepGrids(cache *runner.TableCache, pat runner.Pattern, opts func(*runner.Spec)) error {
	for _, g := range p.sz.grids {
		spec := p.baseSpec(cache, g.schemes, pat, g.loads)
		if opts != nil {
			opts(&spec)
		}
		if err := p.sweep(spec); err != nil {
			return err
		}
	}
	return nil
}

// uniformSweep is a workload that builds the given tables and sweeps its
// grids under uniform traffic.
func uniformSweep(schemes ...routes.Scheme) func(*pass) error {
	return func(p *pass) error {
		var setups []float64
		for range p.sz.setups - 1 {
			start := time.Now()
			if _, err := p.setUp(schemes...); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		p.restart()
		cache, err := p.setUp(schemes...)
		if err != nil {
			return err
		}
		p.endSetup()
		setups = append(setups, p.setup.Seconds())
		p.setup = time.Duration(median(setups) * float64(time.Second))
		if err := p.sweepGrids(cache, uniform, nil); err != nil {
			return err
		}
		return p.model()
	}
}

// faultPlan fails one link at the centre of the torus, away from the
// hotspot and the up*/down* root at switch 0, inside every point. The link
// is not repaired: swapping the degraded tables for the ones rebuilt after
// a repair can deadlock packets still in flight on their old routes (see
// NOTES.md), and every operation of the benchmark must pass at every seed.
func (p *pass) faultPlan() *faults.Plan {
	r, c := p.sz.rows/2-1, p.sz.cols/2-1
	link := p.net.LinkBetween(topology.TorusID(r, c, p.sz.cols), topology.TorusID(r, c+1, p.sz.cols))
	return (&faults.Plan{}).FailLinkAt(link, p.sz.faultAt)
}

func hotspotFaults(p *pass) error {
	cache, err := p.setUp(routes.UpDown, routes.ITBRR)
	if err != nil {
		return err
	}
	p.endSetup()
	plan := p.faultPlan()
	err = p.sweepGrids(cache, hotspot, func(s *runner.Spec) {
		s.Optimize = &optimize.Config{ProfileCycles: profileCycles}
		s.Faults = plan
		s.Metrics = &metrics.Config{}
	})
	// The optimizer and its profiling run are set-up the runner does
	// inside each job, before the job's first point.
	p.setup += p.tableBuild
	if err != nil {
		return err
	}
	if err := p.model(); err != nil {
		return err
	}
	return p.checkpoint(plan)
}

// checkpoint simulates one extra ITB-RR point that snapshots itself mid-run
// into memory, then restores the snapshot, snapshots the restored state
// again, and runs it to the end: the second snapshot must equal the first
// and the resumed result the uninterrupted one.
func (p *pass) checkpoint(plan *faults.Plan) error {
	cfg, err := p.extraPoint(plan)
	if err != nil {
		return err
	}
	key := "checkpoint/" + pointKey(routes.ITBRR, p.sz.snapLoad)
	var snap []byte
	cfg.Metrics = &metrics.Config{}
	cfg.CheckpointEvery = p.sz.snapEvery
	cfg.CheckpointSink = func(_ int64, b []byte) error {
		if snap == nil {
			snap = b
		}
		return nil
	}
	start := time.Now()
	whole, err := netsim.Run(cfg)
	end := time.Now()
	p.tr.add("netsim.point", p.root, key, start, end)
	if err == nil {
		err = checkResult(whole, plan)
	}
	if err == nil && snap == nil {
		err = fmt.Errorf("no snapshot taken")
	}
	if !p.ck.op("point "+key, err) {
		return err
	}
	p.ck.output(key, resultDigest(whole))

	fresh, err := p.extraPoint(plan)
	if err != nil {
		return err
	}
	cfg.Table, cfg.Reconfigurer = fresh.Table, fresh.Reconfigurer
	cfg.CheckpointSink = func(int64, []byte) error { return nil }
	start = time.Now()
	sim, err := netsim.Restore(cfg, snap)
	end = time.Now()
	p.restoreTime = end.Sub(start)
	p.tr.add("checkpoint.restore", p.root, key, start, end)
	if !p.ck.op("restore "+key, err) {
		return err
	}
	start = time.Now()
	again, err := sim.Snapshot()
	end = time.Now()
	p.snapshotTime = end.Sub(start)
	p.snapshotBytes = len(again)
	p.tr.add("checkpoint.snapshot", p.root, key, start, end)
	if err == nil && !bytes.Equal(again, snap) {
		err = fmt.Errorf("re-snapshot of the restored state differs from the snapshot (%d vs %d bytes)", len(again), len(snap))
	}
	if !p.ck.op("snapshot "+key, err) {
		return err
	}
	start = time.Now()
	resumed, err := sim.Run()
	end = time.Now()
	p.tr.add("netsim.point", p.root, "resumed/"+key, start, end)
	if err == nil && resultDigest(resumed) != resultDigest(whole) {
		err = fmt.Errorf("resumed result differs from the uninterrupted run")
	}
	p.ck.op("resume "+key, err)
	return err
}

// extraPoint is the configuration of hotspot-faults' extra ITB-RR point,
// outside the sweep: the checkpointed run and the metrics probe use it.
func (p *pass) extraPoint(plan *faults.Plan) (netsim.Config, error) {
	dest, err := p.destFor(hotspot)
	return netsim.Config{
		Net:             p.net,
		Table:           p.tables[routes.ITBRR].Clone(),
		Dest:            dest,
		Load:            p.sz.snapLoad,
		MessageBytes:    messageBytes,
		Seed:            runner.PointSeed(p.seed, routes.ITBRR, hotspot, 0, checkpointPoint),
		WarmupMessages:  p.sz.warmup,
		MeasureMessages: p.sz.measure,
		MaxCycles:       maxCycles,
		Faults:          plan,
		Reconfigurer:    faults.NewController(p.net, 0, routes.DefaultConfig(routes.ITBRR)),
		Shards:          1,
	}, err
}
