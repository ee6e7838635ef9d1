package main

import (
	"fmt"
	"runtime"
	"time"

	"itbsim/internal/faults"
	"itbsim/internal/itbroute"
	"itbsim/internal/metrics"
	"itbsim/internal/netsim"
	"itbsim/internal/optimize"
	"itbsim/internal/routes"
	"itbsim/internal/runner"
	"itbsim/internal/updown"
)

const (
	upDown = routes.UpDown
	itbRR  = routes.ITBRR
)

// ratio is a/b, or 0 where b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun makes one untraced pass, the same pass with spans recorded, and
// then the per-layer probes. The end-to-end figures come from untraced
// runs; this run gives the layer split and the tracing overhead.
func tracedRun(w workload, sz size, seed int64, ck *checker) (map[string]metric, []*pass, error) {
	// One set-up per pass, so the layer split and the GC counts hold the
	// set-up a user's run pays once.
	sz.setups = 1
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := runPass(w, sz, seed, ck, nil)
	runtime.ReadMemStats(&ms1)
	if plain.err != nil {
		return perLayer(plain, plain, &probes{}, nil, ms0, ms1), []*pass{plain}, nil
	}
	plain.release()
	tr := newTracer()
	p := runPass(w, sz, seed, ck, tr)
	pb := &probes{}
	if p.err == nil {
		start := time.Now()
		root := tr.add("probes", -1, "", start, time.Time{})
		var err error
		if pb, err = p.probe(root); err != nil {
			if ck.failed == 0 { // not yet counted where it happened
				ck.op("probes", err)
			}
			pb = &probes{}
		}
		tr.spans[root].End = time.Since(tr.epoch)
	}
	tr.finish()
	path, err := tr.write(outDir+"/traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err != nil {
		return nil, nil, err
	}
	fmt.Println("spans:", path)
	return perLayer(plain, p, pb, tr, ms0, ms1), []*pass{plain, p}, nil
}

// traceLayers are the layers whose share of the traced pass is reported.
var traceLayers = []string{"topology", "routes", "runner", "netsim", "checkpoint"}

// perLayer assembles the per-layer metrics. plain is the untraced pass
// (its GC counts and wall time), p the traced pass, pb the probes.
func perLayer(plain, p *pass, pb *probes, tr *tracer, ms0, ms1 runtime.MemStats) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	sec := func(d time.Duration) float64 { return d.Seconds() }

	put("topology.build_s", "s", sec(p.topoTime))
	put("updown.assign_s", "s", sec(pb.assign))
	put("updown.balanced_s", "s", sec(pb.balanced))
	put("updown.balanced_alloc_mb", "MiB", float64(pb.balancedAlloc)/mib)
	put("itbroute.splits_s", "s", sec(pb.splits))
	for _, s := range []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR, routes.VC} {
		put("routes.build_s."+schemeName(s), "s", sec(p.buildTime[s]))
		put("routes.build_alloc_mb."+schemeName(s), "MiB", float64(p.buildAlloc[s])/mib)
	}
	put("routes.clone_s", "s", sec(pb.clone))

	put("optimize.run_s", "s", sec(pb.optimizeTime))
	put("optimize.accept_ratio", "ratio", ratio(float64(pb.accepted), float64(pb.examined)))
	put("optimize.cost_ratio", "ratio", ratio(pb.endCost, pb.initCost))

	put("faults.recompute_s", "s", sec(pb.recompute))
	put("faults.recompute_calls", "count", float64(pb.recomputes))
	put("mapper.probes", "count", float64(pb.mapperProbes))

	var lowT, satT time.Duration
	var lowC, satC, retrans int64
	for _, pt := range p.points {
		d := pt.end.Sub(pt.start)
		if pt.saturated() {
			satT, satC = satT+d, satC+pt.res.Cycles
		} else {
			lowT, lowC = lowT+d, lowC+pt.res.Cycles
		}
		retrans += pt.res.Retransmits
	}
	put("netsim.run_s", "s", sec(p.simTime))
	put("netsim.ns_per_cycle.lowload", "ns/cycle", ratio(float64(lowT), float64(lowC)))
	put("netsim.ns_per_cycle.saturated", "ns/cycle", ratio(float64(satT), float64(satC)))
	put("netsim.ns_per_msg", "ns/msg", ratio(float64(p.simTime), float64(p.msgs)))
	put("netsim.alloc_bytes_per_msg", "B/msg", ratio(float64(pb.replayAlloc), float64(pb.replayMsgs)))
	put("netsim.events", "count", float64(pb.events))
	put("netsim.ns_per_event", "ns/event", ratio(float64(pb.replayTime), float64(pb.events)))
	put("netsim.itb_reinjects", "count", float64(pb.reinjects))
	put("netsim.retransmits", "count", float64(retrans))
	put("netsim.snapshot_s", "s", sec(p.snapshotTime))
	put("netsim.restore_s", "s", sec(p.restoreTime))
	put("netsim.snapshot_kb", "KiB", float64(p.snapshotBytes)/1024)

	put("metrics.overhead_ratio", "ratio", pb.metricsRatio)

	put("runner.table_build_s", "s", sec(p.tableBuild))
	put("runner.overhead_s", "s", sec(p.runnerWall-p.tableBuild-p.simTime))
	put("runner.cache_builds", "count", float64(p.cacheBuilds))
	put("runner.cache_hits", "count", float64(p.cacheHits))

	put("host.gc_count", "count", float64(ms1.NumGC-ms0.NumGC))
	put("host.gc_pause_s", "s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e9)

	put("trace.overhead_ratio", "ratio", ratio(float64(p.wall), float64(plain.wall)))
	put("trace.wall_s", "s", sec(p.wall))
	var self map[string]time.Duration
	if tr != nil {
		self = tr.layerSelf(p.root)
	}
	for _, l := range traceLayers {
		put("trace.share."+l, "ratio", ratio(float64(self[l]), float64(p.wall)))
	}
	return m
}

// probes are the traced run's direct calls into the layers below the
// runner, each timed on its own: up*/down* assignment and balancing, ITB
// split enumeration, table cloning, the optimizer, the fault controller,
// and counted replays of every point the traced pass simulated.
type probes struct {
	assign, balanced, splits, clone time.Duration
	balancedAlloc                   uint64

	optimizeTime       time.Duration
	examined, accepted int
	initCost, endCost  float64

	replayTime   time.Duration
	replayAlloc  uint64
	replayMsgs   int64
	events       int64
	reinjects    int64
	recompute    time.Duration
	recomputes   int
	mapperProbes int
	metricsRatio float64
}

func (p *pass) probe(root int) (*probes, error) {
	pb := &probes{}
	tr := p.tr
	// up*/down* and ITB splitting, as routes.Build calls them.
	var a *updown.Assignment
	err := tr.timed("updown.assign", root, func(int) error {
		start := time.Now()
		var err error
		a, err = updown.NewAssignment(p.net, 0)
		pb.assign = time.Since(start)
		return err
	})
	if !p.ck.op("updown assignment", err) {
		return nil, err
	}
	_ = tr.timed("updown.balanced", root, func(int) error {
		a0 := totalAlloc()
		start := time.Now()
		a.BalancedRoutes(routes.DefaultConfig(routes.UpDown).Balanced)
		pb.balanced = time.Since(start)
		pb.balancedAlloc = totalAlloc() - a0
		return nil
	})
	err = tr.timed("itbroute.splits", root, func(int) error {
		start := time.Now()
		defer func() { pb.splits = time.Since(start) }()
		for s := 0; s < p.net.Switches; s++ {
			for d := 0; d < p.net.Switches; d++ {
				if s == d {
					continue
				}
				if _, err := itbroute.MinimalSplits(a, s, d, routes.DefaultConfig(routes.ITBRR).MaxAlternatives); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if !p.ck.op("itbroute splits", err) {
		return nil, err
	}
	// The runner clones a job's table once per point.
	_ = tr.timed("routes.clone", root, func(int) error {
		start := time.Now()
		for _, pt := range p.points {
			pt.table.Clone()
		}
		pb.clone = time.Since(start)
		return nil
	})

	// Rebuild each optimized table the sweep used, as the runner's
	// pre-pass does, so the optimizer's own statistics can be read.
	optimized := map[routes.Scheme]*routes.Table{}
	for _, pt := range p.points {
		spec := pt.spec
		if spec.Optimize == nil || optimized[pt.job.Scheme] != nil {
			continue
		}
		opt, err := p.optimizeProbe(root, pt, pb)
		if err != nil {
			return nil, err
		}
		optimized[pt.job.Scheme] = opt
	}

	// Counted replays: every point again through netsim.Run with the seed
	// the runner derived for it, a CountTracer attached, and the fault
	// controller behind a timing wrapper. Each must reproduce the sweep's
	// result exactly.
	ctrls := map[int]*timedReconfigurer{}
	for i := range p.points {
		pt := &p.points[i]
		tab := pt.table
		if o := optimized[pt.job.Scheme]; o != nil {
			tab = o
		}
		dest, err := p.destFor(pt.job.Pattern)
		if err != nil {
			return nil, err
		}
		key := pointKey(pt.job.Scheme, pt.load)
		// One controller per job, shared by its points, as in the runner.
		var reconf netsim.Reconfigurer
		rc := ctrls[pt.job.Index]
		if rc == nil && !pt.spec.Faults.Empty() {
			ctrl := faults.NewController(p.net, pt.spec.FaultMapperHost, routes.DefaultConfig(pt.job.Scheme))
			ctrl.Optimize = pt.spec.Optimize
			rc = &timedReconfigurer{inner: ctrl, tr: tr}
			ctrls[pt.job.Index] = rc
		}
		if rc != nil {
			reconf = rc
		}
		counts := &netsim.CountTracer{}
		cfg := netsim.Config{
			Net:             p.net,
			Table:           tab.Clone(),
			Dest:            dest,
			Load:            pt.load,
			MessageBytes:    pt.spec.MessageBytes,
			Seed:            runner.PointSeed(pt.spec.Seed, pt.job.Scheme, pt.job.Pattern, pt.job.Replica, pt.index),
			WarmupMessages:  pt.spec.WarmupMessages,
			MeasureMessages: pt.spec.MeasureMessages,
			MaxCycles:       pt.spec.MaxCycles,
			Metrics:         pt.spec.Metrics,
			Faults:          pt.spec.Faults,
			Reconfigurer:    reconf,
			Tracer:          counts,
			Shards:          1,
		}
		var res *netsim.Result
		a0 := totalAlloc()
		err = tr.timed("netsim.replay", root, func(id int) error {
			if rc != nil {
				rc.parent = id
			}
			start := time.Now()
			var err error
			res, err = netsim.Run(cfg)
			pb.replayTime += time.Since(start)
			return err
		})
		pb.replayAlloc += totalAlloc() - a0
		if err == nil && resultDigest(res) != resultDigest(pt.res) {
			err = fmt.Errorf("counted replay differs from the runner's result")
		}
		if !p.ck.op("replay "+key, err) {
			return nil, err
		}
		pb.replayMsgs += res.DeliveredMessages
		for _, c := range counts.Counts {
			pb.events += c
		}
		pb.reinjects += counts.Counts[netsim.EvReinject]
	}
	for _, rc := range ctrls {
		pb.recompute += rc.total
		pb.recomputes += rc.calls
		pb.mapperProbes += rc.probes
	}
	if len(ctrls) > 0 {
		if err := p.metricsProbe(root, pb); err != nil {
			return nil, err
		}
	}
	return pb, nil
}

// optimizeProbe repeats the runner's optimizer pre-pass for pt's job: a
// profiling run at the sweep's top load measures link utilization, which
// normalized to the busiest link is the criticality the optimizer takes.
func (p *pass) optimizeProbe(root int, pt pointRec, pb *probes) (*routes.Table, error) {
	spec := pt.spec
	dest, err := p.destFor(pt.job.Pattern)
	if err != nil {
		return nil, err
	}
	var res *netsim.Result
	err = p.tr.timed("netsim.profile", root, func(int) error {
		var err error
		res, err = netsim.Run(netsim.Config{
			Net:             p.net,
			Table:           pt.table.Clone(),
			Dest:            dest,
			Load:            spec.Loads[len(spec.Loads)-1],
			MessageBytes:    spec.MessageBytes,
			Seed:            runner.PointSeed(spec.Seed, pt.job.Scheme, pt.job.Pattern, pt.job.Replica, -1),
			WarmupMessages:  spec.WarmupMessages,
			MeasureMessages: spec.MeasureMessages,
			MaxCycles:       int64(spec.Optimize.ProfileCycles),
			CollectLinkUtil: true,
			Shards:          1,
		})
		return err
	})
	if !p.ck.op("profile "+schemeName(pt.job.Scheme), err) {
		return nil, err
	}
	crit := append([]float64(nil), res.LinkBusy...)
	peak := 0.0
	for _, v := range crit {
		peak = max(peak, v)
	}
	if peak > 0 {
		for i := range crit {
			crit[i] /= peak
		}
	}
	var opt *routes.Table
	var st *optimize.Stats
	err = p.tr.timed("optimize.run", root, func(int) error {
		start := time.Now()
		var err error
		opt, st, err = optimize.Optimize(pt.table, routes.DefaultConfig(pt.job.Scheme), crit, *spec.Optimize)
		pb.optimizeTime += time.Since(start)
		return err
	})
	if !p.ck.op("optimize "+schemeName(pt.job.Scheme), err) {
		return nil, err
	}
	p.ck.output("optimized/"+schemeName(pt.job.Scheme), opt.Fingerprint())
	pb.examined += st.Examined
	pb.accepted += st.Accepted
	pb.initCost += st.InitialCost
	pb.endCost += st.FinalCost
	return opt, nil
}

// metricsProbe times the checkpoint workload's point with the metrics
// collector on and off, alternating, and keeps the ratio of the totals.
func (p *pass) metricsProbe(root int, pb *probes) error {
	plan := p.faultPlan()
	var on, off time.Duration
	for _, collect := range []bool{true, false, false, true} {
		cfg, err := p.extraPoint(plan)
		if err != nil {
			return err
		}
		name := "netsim.metrics_off"
		if collect {
			cfg.Metrics = &metrics.Config{}
			name = "metrics.on"
		}
		start := time.Now()
		res, err := netsim.Run(cfg)
		end := time.Now()
		p.tr.add(name, root, "", start, end)
		if err == nil {
			err = checkResult(res, plan)
		}
		if !p.ck.op("metrics probe", err) {
			return err
		}
		if collect {
			on += end.Sub(start)
		} else {
			off += end.Sub(start)
		}
	}
	pb.metricsRatio = float64(on) / float64(off)
	return nil
}
