package netsim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"itbsim/internal/codec"
	"itbsim/internal/faults"
	"itbsim/internal/metrics"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// This file is the snapshot/restore codec: a mid-run Sim serializes into a
// self-describing binary checkpoint and restores into a fresh Sim that
// continues byte-identically (docs/CHECKPOINT.md). The format is
// little-endian, length-prefixed, and versioned; the header carries a hash
// of every result-relevant configuration field so a checkpoint cannot be
// resumed under a different experiment. One walk, codeState, names every
// serialized field once and serves both Snapshot and Restore
// (internal/codec).
//
// Snapshots are taken at cycle boundaries only (between step calls), where
// the sharded core's staging buffers are empty by construction — mergeShards
// drains them every cycle — so the serialized state is exactly the state a
// single "live" array walk can see. Derived state is not serialized but
// recomputed on restore: fault-engine down flags and fault set replay from
// the plan position, swapped routing tables from the (deterministic,
// memoized) Reconfigurer, active sets from each component's own idle
// predicate, parked generation timers from each sleeping NIC's nextGen,
// and the fault engine's next wake-up from its timer sources. Re-deriving
// rather than copying is what makes the bytes canonical: dense,
// active-set and sharded runs write identical snapshots, and a restored
// Sim re-snapshots to the bytes it was restored from.

const (
	ckptMagic   = "ITBCKPT\x00"
	ckptVersion = 2
)

// ErrCheckpointVersion is wrapped by Restore's error when a checkpoint was
// written in a different format version. Checkpoints are working state,
// not archives: callers re-run such a simulation from scratch.
var ErrCheckpointVersion = errors.New("netsim: checkpoint format version mismatch")

// configHash digests every configuration field that influences results into
// one value, so Restore can refuse a checkpoint written under a different
// experiment. Execution-mechanism knobs (Shards, DenseStep) are deliberately
// excluded — results are proven byte-identical across them, so a checkpoint
// written sharded may resume dense and vice versa. Config.Dest is also
// excluded (functions cannot be hashed): callers must resume with the same
// traffic pattern, exactly as they must pass the same Config.
func (s *Sim) configHash() uint64 {
	c := codec.NewWriter(1 << 10)
	net, cfg, p := s.net, &s.cfg, &s.p
	c.Int(&net.Switches)
	c.Int(&s.numHosts)
	c.Int(&s.numChannels)
	for ch := 0; ch < s.numChannels; ch++ {
		from, to := net.ChannelEnds(ch)
		c.Int(&from)
		c.Int(&to)
	}
	for h := 0; h < s.numHosts; h++ {
		sw := net.SwitchOf(h)
		c.Int(&sw)
	}
	scheme := int(cfg.Table.Scheme)
	c.Int(&scheme)
	c.Int(&cfg.Table.NumVCs)
	// The full routing content, not just the scheme: tables rewritten by
	// the route optimizer (or recomputed on a degraded topology) route
	// differently under the same scheme, and a snapshot's in-flight
	// packets embed route pointers that only make sense under the table
	// that launched them.
	fp := cfg.Table.Fingerprint()
	c.U64(&fp)
	c.I64(&cfg.Seed)
	c.F64(&cfg.Load)
	c.Int(&cfg.MessageBytes)
	c.Int(&cfg.WarmupMessages)
	c.Int(&cfg.MeasureMessages)
	c.I64(&cfg.MaxCycles)
	c.Bool(&cfg.CollectLinkUtil)
	hasMetrics := cfg.Metrics != nil
	c.Bool(&hasMetrics)
	if hasMetrics {
		c.I64(&cfg.Metrics.WindowCycles)
		c.Int(&cfg.Metrics.MaxWindows)
	}
	c.F64(&p.CycleNs)
	c.Int(&p.LinkFlightCycles)
	c.Int(&p.RoutingCycles)
	c.Int(&p.SlackBufferFlits)
	c.Int(&p.StopThreshold)
	c.Int(&p.GoThreshold)
	c.Int(&p.ITBDetectFlits)
	c.Int(&p.ITBDMAFlits)
	c.Int(&p.ITBPoolBytes)
	c.Int(&p.SourceQueueCap)
	c.Int(&p.SourceBubblePeriod)
	c.Int(&p.VCs)
	c.Int(&p.VCBufFlits)
	c.I64(&p.WatchdogCycles)
	c.I64(&p.DetectionCycles)
	c.I64(&p.ProbeCycles)
	c.I64(&p.DrainCycles)
	c.I64(&p.RetryTimeoutCycles)
	c.Int(&p.RetryLimit)
	var events []faults.Event
	if !cfg.Faults.Empty() {
		events = cfg.Faults.Sorted()
	}
	codec.Slice(c, &events, func(e *faults.Event) {
		c.I64(&e.Cycle)
		kind := int(e.Kind)
		c.Int(&kind)
		c.Int(&e.ID)
	})
	b, _ := c.Bytes() // a write pass fails only on a length past 4 GiB
	h := fnv.New64a()
	//lint:ignore errcheck-lite hash.Hash.Write is documented to never return an error
	h.Write(b)
	return h.Sum64()
}

// registry numbers the objects of one pointer type reachable from the
// simulator state: 1-based in registration order, 0 for nil. Writing codes
// each reference as its number. Reading records where every reference
// goes, and resolve fills them in once all object tables have been read,
// so a reference may point forward in the stream.
type registry[T any] struct {
	objs  []*T
	index map[*T]int
	refs  []pendingRef[T]
}

type pendingRef[T any] struct {
	num int
	dst **T
}

// add registers p, reporting whether it was new.
func (r *registry[T]) add(p *T) bool {
	if p == nil {
		return false
	}
	if _, ok := r.index[p]; ok {
		return false
	}
	if r.index == nil {
		r.index = map[*T]int{}
	}
	r.objs = append(r.objs, p)
	r.index[p] = len(r.objs)
	return true
}

// table codes the object table: the count, then each object's fields via
// elem. Reading allocates the objects that references resolve to.
func (r *registry[T]) table(c *codec.Codec, elem func(*T)) {
	n := c.Len(len(r.objs))
	if c.Reading() {
		r.objs = make([]*T, n)
		for i := range r.objs {
			r.objs[i] = new(T)
		}
	}
	for _, o := range r.objs {
		elem(o)
	}
}

// ref codes one reference.
func (r *registry[T]) ref(c *codec.Codec, p **T) {
	num := r.index[*p]
	c.Int(&num)
	if c.Reading() {
		r.refs = append(r.refs, pendingRef[T]{num, p})
	}
}

// resolve points every reference read by ref at its object.
func (r *registry[T]) resolve(c *codec.Codec, kind string) {
	for _, f := range r.refs {
		if f.num < 0 || f.num > len(r.objs) {
			c.Failf("netsim: checkpoint %s reference %d out of range", kind, f.num)
			return
		}
		*f.dst = nil
		if f.num > 0 {
			*f.dst = r.objs[f.num-1]
		}
	}
}

// ckptRefs holds the pointer registries of one snapshot.
type ckptRefs struct {
	routes registry[routes.Route]
	msgs   registry[msgState]
	pkts   registry[packet]
	reinjs registry[reinjState]
}

// buildRegistries walks the simulator state in a fixed order (timers, then
// links, then switch inputs, then NICs) registering every reachable object,
// so the numbering and hence the byte stream are reproducible. The closing
// fixpoint loop covers the two-way packet<->message references: a retried
// message can hold a dead packet no buffer references any more, and
// fireTimer still reads that packet's dead flag.
func (s *Sim) buildRegistries() *ckptRefs {
	g := &ckptRefs{}
	pkt := func(p *packet) {
		if g.pkts.add(p) {
			g.routes.add(p.route)
		}
	}
	reinj := func(r *reinjState) {
		if g.reinjs.add(r) {
			pkt(r.pkt)
		}
	}
	if s.fe != nil {
		for i := range s.fe.timers {
			g.msgs.add(s.fe.timers[i].m)
		}
	}
	for i := range s.links {
		l := &s.links[i]
		for _, f := range l.flits[l.flHead:] {
			pkt(f.pkt)
		}
	}
	for i := range s.inPorts {
		ip := &s.inPorts[i]
		for _, seg := range ip.buf.segs[ip.buf.head:] {
			pkt(seg.pkt)
		}
		for v := range ip.vcs {
			for _, seg := range ip.vcs[v].buf.segs[ip.vcs[v].buf.head:] {
				pkt(seg.pkt)
			}
		}
	}
	for h := range s.nics {
		n := &s.nics[h]
		for _, p := range n.sendQ[n.sendQH:] {
			pkt(p)
		}
		for _, r := range n.pending {
			reinj(r)
		}
		for _, r := range n.reinjQ[n.reinjH:] {
			reinj(r)
		}
		reinj(n.cur.reinj)
		pkt(n.cur.pkt)
		pkt(n.rxPkt)
		reinj(n.rxReinj)
		for v := range n.rxVC {
			pkt(n.rxVC[v].pkt)
		}
	}
	// Fixpoint over the cross-references; both lists only grow.
	pi, mi := 0, 0
	for pi < len(g.pkts.objs) || mi < len(g.msgs.objs) {
		if pi < len(g.pkts.objs) {
			g.msgs.add(g.pkts.objs[pi].msg)
			pi++
			continue
		}
		pkt(g.msgs.objs[mi].pkt)
		mi++
	}
	return g
}

// queue codes the live part q[*head:] of a head-indexed queue; reading
// rebuilds it with head 0.
func queue[E any](c *codec.Codec, q *[]E, head *int, elem func(*E)) {
	if c.Reading() {
		*head = 0
	}
	live := (*q)[*head:]
	codec.Slice(c, &live, elem)
	if c.Reading() {
		*q = live
	}
}

// codeState is the checkpoint walk: every serialized field, in stream
// order, named once. In write mode g holds the registries built by
// buildRegistries; in read mode it starts empty, the object tables fill
// it, and the caller resolves its references after the walk. Reading only
// loads primary state; Restore re-derives everything else afterwards. rr
// carries the routing table's round-robin cursors, which Restore applies
// after any table swap is re-derived.
func (s *Sim) codeState(c *codec.Codec, g *ckptRefs, rr *[][]uint32) {
	// Header.
	c.Magic(ckptMagic)
	version := uint32(ckptVersion)
	c.U32(&version)
	if version != ckptVersion {
		c.Fail(fmt.Errorf("%w: checkpoint has version %d, this build reads %d", ErrCheckpointVersion, version, ckptVersion))
	}
	want := s.configHash()
	hash := want
	c.U64(&hash)
	if hash != want {
		// Typed so callers (and the CLI) can distinguish "wrong experiment"
		// from a corrupt stream: the most common trigger is resuming with a
		// differently built routing table — e.g. an optimizer pass on one
		// side but not the other — which changes the table fingerprint
		// folded into the hash.
		c.Fail(&topology.ConfigError{Field: "Config", Value: fmt.Sprintf("hash %#x, checkpoint %#x", want, hash),
			Reason: "checkpoint was written under a different configuration (same network, table, seed, load, parameters and fault plan required)"})
	}
	c.I64(&s.now)

	// Routes, serialized by content (deduplicated by pointer; the simulator
	// never compares route pointers, so restoring distinct objects with
	// equal content is behavior-preserving).
	g.routes.table(c, func(r *routes.Route) {
		c.Int(&r.SrcSwitch)
		c.Int(&r.DstSwitch)
		c.Int(&r.Hops)
		c.Int(&r.AltIndex)
		c.Int(&r.VC)
		codec.Slice(c, &r.Segs, func(seg *routes.Seg) {
			c.Int(&seg.ITBHost)
			codec.Slice(c, &seg.Channels, c.Int)
		})
	})
	g.msgs.table(c, func(m *msgState) {
		c.Int(&m.src)
		c.Int(&m.dst)
		c.Int(&m.payload)
		c.I64(&m.genCycle)
		c.Bool(&m.measured)
		c.I64(&m.seq)
		g.pkts.ref(c, &m.pkt)
		c.Int(&m.attempts)
		c.Bool(&m.done)
		c.Bool(&m.lost)
	})
	g.pkts.table(c, func(p *packet) {
		c.I64(&p.id)
		c.Int(&p.srcHost)
		c.Int(&p.dstHost)
		g.routes.ref(c, &p.route)
		c.Int(&p.segIdx)
		c.Int(&p.chanIdx)
		c.Int(&p.wireFlits)
		c.Int(&p.payload)
		c.U8(&p.vc)
		c.I64(&p.genCycle)
		c.I64(&p.injectCycle)
		c.Int(&p.itbVisits)
		c.Bool(&p.measured)
		g.msgs.ref(c, &p.msg)
		c.Int(&p.attempt)
		c.Bool(&p.dead)
		c.Bool(&p.injected)
	})
	g.reinjs.table(c, func(r *reinjState) {
		g.pkts.ref(c, &r.pkt)
		c.Int(&r.expected)
		c.Int(&r.received)
		c.Bool(&r.recvDone)
		c.I64(&r.readyAt)
		c.Bool(&r.queued)
		c.Int(&r.toSend)
		c.Int(&r.sent)
		c.Bool(&r.released)
	})
	pktRef := func(p **packet) { g.pkts.ref(c, p) }
	reinjRef := func(r **reinjState) { g.reinjs.ref(c, r) }

	// Links: dynamic state only (down is re-derived from the fault set).
	codec.Fixed(c, s.links, "links", func(l *link) {
		c.Bool(&l.stopped)
		c.I64(&l.busy)
		c.I64(&l.idleStopped)
		codec.Fixed(c, l.credits, "credit lanes", c.I16)
		queue(c, &l.flits, &l.flHead, func(f *flitInFlight) {
			pktRef(&f.pkt)
			c.Bool(&f.tail)
			c.I64(&f.arrive)
		})
		queue(c, &l.signals, &l.sgHead, func(sg *signalInFlight) {
			c.Bool(&sg.stop)
			c.U8(&sg.vc)
			c.I64(&sg.arrive)
		})
	})

	// Switches: input ports, output ports, idle-skip counters.
	codeFifo := func(f *fifo) {
		c.Int(&f.occ)
		queue(c, &f.segs, &f.head, func(seg *flitSeg) {
			pktRef(&seg.pkt)
			c.Int(&seg.flits)
			c.Bool(&seg.tail)
		})
	}
	codec.Fixed(c, s.inPorts, "input ports", func(ip *inPort) {
		c.Int(&ip.conn)
		c.Int(&ip.pendingOut)
		c.Bool(&ip.lastSignalStop)
		codeFifo(&ip.buf)
		codec.Fixed(c, ip.vcs, "input port lanes", func(v *vcIn) {
			c.Int(&v.conn)
			c.Int(&v.pendingOut)
			codeFifo(&v.buf)
		})
	})
	codec.Fixed(c, s.outPorts, "output ports", func(op *outPort) {
		c.Int(&op.state)
		c.Int(&op.setupLeft)
		c.Int(&op.inp)
		c.Int(&op.rr)
		c.U32(&op.reqMask)
		c.Int(&op.nconn)
		c.Int(&op.setupVC)
		c.Int(&op.txRR)
		codec.Fixed(c, op.vcReq, "output port lane requests", c.U32)
		codec.Fixed(c, op.vconn, "output port lane connections", c.I32)
	})
	codec.Fixed(c, s.switches, "switches", func(sw *swtch) {
		c.Int(&sw.waiting)
		c.Int(&sw.setups)
		c.Int(&sw.conns)
	})

	// NICs. genArmed is not serialized: Restore re-derives the parked
	// generation timers.
	codec.Fixed(c, s.nics, "NICs", func(n *nic) {
		queue(c, &n.sendQ, &n.sendQH, pktRef)
		queue(c, &n.reinjQ, &n.reinjH, reinjRef)
		pktRef(&n.cur.pkt)
		c.Int(&n.cur.toSend)
		c.Int(&n.cur.sent)
		reinjRef(&n.cur.reinj)
		c.Bool(&n.active)
		pktRef(&n.rxPkt)
		c.Int(&n.rxCount)
		c.Int(&n.rxExpected)
		c.I64(&n.rxStart)
		reinjRef(&n.rxReinj)
		codec.Fixed(c, n.rxVC, "receive lanes", func(v *vcRx) {
			pktRef(&v.pkt)
			c.Int(&v.count)
		})
		codec.Slice(c, &n.pending, reinjRef)
		c.Int(&n.poolUsed)
		c.Int(&n.poolPeak)
		c.I64(&n.overflows)
		c.U64(&n.rng.state)
		c.F64(&n.nextGen)
		c.Bool(&n.stopGen)
		c.I64(&n.genSeq)
		c.Int(&n.sinceBubble)
	})

	// Simulator-wide counters.
	c.I64(&s.progress)
	c.I64(&s.generatedTotal)
	c.I64(&s.deliveredTotal)
	c.I64(&s.outstanding)
	c.Bool(&s.measuring)
	c.I64(&s.measureStart)
	c.I64(&s.measITBSum)
	c.I64(&s.measCount)
	c.I64(&s.windowDeliveredFlits)
	c.I64(&s.windowInjectedFlits)

	// Routing-table round-robin cursors (of the live table, which may be a
	// swapped degraded-mode table).
	codec.Slice(c, rr, func(row *[]uint32) { codec.Slice(c, row, c.U32) })

	// Fault engine: the serial counters and retry timers. Everything
	// derivable is rebuilt by Restore.
	hasFE := s.fe != nil
	c.Bool(&hasFE)
	if hasFE != (s.fe != nil) {
		c.Failf("netsim: checkpoint fault state does not match the configuration")
	} else if fe := s.fe; fe != nil {
		c.Int(&fe.planIdx)
		c.Int(&fe.tableSwapPlanIdx)
		c.I64(&fe.seq)
		c.Int(&fe.phase)
		c.I64(&fe.phaseEnd)
		c.I64(&fe.eventCycle)
		c.I64(&fe.detectAt)
		c.Bool(&fe.needPurge)
		c.I64(&fe.drops.InFlight)
		c.I64(&fe.drops.DeadSwitch)
		c.I64(&fe.drops.DeadOutput)
		c.I64(&fe.drops.NoRoute)
		c.I64(&fe.retransmits)
		c.I64(&fe.lost)
		c.I64(&fe.droppedPackets)
		c.I64(&fe.reconfigFails)
		c.String(&fe.reconfigErr)
		// Reading keeps an empty list nil: Result.Reconfigs must match.
		codec.Slice(c, &fe.reconfigs, func(rc *ReconfigStat) {
			c.I64(&rc.EventCycle)
			c.I64(&rc.DetectCycle)
			c.I64(&rc.SwapCycle)
			c.Int(&rc.Probes)
			c.Int(&rc.LostHosts)
		})
		// Timers in heap-array order: the array is a valid heap and the
		// (at, seq) keys give one total order, so a direct copy restores
		// identical pop behavior.
		codec.Slice(c, &fe.timers, func(t *retryTimer) {
			c.I64(&t.at)
			c.I64(&t.seq)
			g.msgs.ref(c, &t.m)
		})
	}

	// Measured-latency state: per-shard histograms merged in shard order
	// (exactly as finalize merges them) plus the exact integer cycle totals,
	// read back into shard 0. The final merge is content-identical because
	// bucket counts, min, and max are partition-independent; the float sum
	// is written as finalize will override it, from the integer totals, so
	// the bytes do not depend on the partition either.
	sh0 := &s.shards[0]
	lat, netLat := sh0.latHist, sh0.netLatHist
	latCycles, netLatCycles := &sh0.latCycles, &sh0.netLatCycles
	if !c.Reading() {
		lat, netLat = metrics.NewHistogram(), metrics.NewHistogram()
		latCycles, netLatCycles = new(int64), new(int64)
		for j := range s.shards {
			sh := &s.shards[j]
			lat.Merge(sh.latHist)
			netLat.Merge(sh.netLatHist)
			*latCycles += sh.latCycles
			*netLatCycles += sh.netLatCycles
		}
		lat.SetSum(float64(*latCycles) * s.p.CycleNs)
		netLat.SetSum(float64(*netLatCycles) * s.p.CycleNs)
	}
	lat.Code(c)
	netLat.Code(c)
	c.I64(latCycles)
	c.I64(netLatCycles)

	// Windowed metrics collector.
	hasMx := s.mx != nil
	c.Bool(&hasMx)
	if hasMx != (s.mx != nil) {
		c.Failf("netsim: checkpoint metrics state does not match the configuration")
	} else if s.mx != nil {
		s.mx.Code(c)
	}
}

// snapshotReady verifies the boundary invariant: every staging buffer the
// sharded core uses intra-cycle must be empty when a snapshot is taken.
func (s *Sim) snapshotReady() error {
	for j := range s.shards {
		sh := &s.shards[j]
		if len(sh.flDirty) != 0 || len(sh.sgDirty) != 0 || len(sh.deadRouteReqs) != 0 || len(sh.armQ) != 0 {
			return fmt.Errorf("netsim: snapshot mid-cycle: shard %d has staged work", j)
		}
	}
	for i := range s.links {
		if len(s.links[i].flNew) != 0 || len(s.links[i].sgNew) != 0 {
			return fmt.Errorf("netsim: snapshot mid-cycle: link %d has staged traffic", i)
		}
	}
	return nil
}

// Snapshot serializes the complete mid-run state of the simulator into a
// self-describing binary checkpoint. It must be called at a cycle boundary
// (between step calls — the CheckpointEvery hook and external callers
// between Run invocations both qualify) and refuses configurations whose
// state cannot round-trip: a Tracer or Notify callback, or a routing table
// with an adaptive Selector. Restore the result with Restore or
// ResumeContext under the same Config.
func (s *Sim) Snapshot() ([]byte, error) {
	if s.cfg.Tracer != nil || s.cfg.Notify != nil {
		return nil, fmt.Errorf("netsim: cannot snapshot a Sim with a Tracer or Notify callback")
	}
	if s.cfg.Table.HasSelector() {
		return nil, fmt.Errorf("netsim: cannot snapshot a Sim whose table has an adaptive Selector")
	}
	if err := s.snapshotReady(); err != nil {
		return nil, err
	}
	c := codec.NewWriter(1 << 16)
	rr := s.table.RRSnapshot()
	s.codeState(c, s.buildRegistries(), &rr)
	return c.Bytes()
}

// Restore builds a fresh Sim from cfg and overwrites its dynamic state with
// a checkpoint written by Snapshot. The configuration must describe the same
// experiment (a header hash over every result-relevant field is verified);
// execution-mechanism fields — Shards, DenseStep — may differ, and the
// restored Sim then continues byte-identically under the new mechanism.
// Restoring a checkpoint taken mid-reconfiguration (or after a table swap)
// requires cfg.Reconfigurer, which re-derives the swapped tables
// deterministically instead of the checkpoint carrying them. A checkpoint
// from another format version fails with an error wrapping
// ErrCheckpointVersion.
func Restore(cfg Config, data []byte) (*Sim, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c := codec.NewReader(data)
	g := &ckptRefs{}
	var rr [][]uint32
	s.codeState(c, g, &rr)
	if c.Err() == nil {
		g.routes.resolve(c, "route")
		g.msgs.resolve(c, "message")
		g.pkts.resolve(c, "packet")
		g.reinjs.resolve(c, "re-injection")
	}
	if err := c.Done(); err != nil {
		return nil, err
	}

	// Fault engine: re-derive the fault set, down flags, swapped tables,
	// pending reconfiguration, and next wake-up from the restored counters.
	if fe := s.fe; fe != nil {
		if fe.planIdx < 0 || fe.planIdx > len(fe.plan) ||
			fe.tableSwapPlanIdx < -1 || fe.tableSwapPlanIdx > len(fe.plan) {
			return nil, fmt.Errorf("netsim: checkpoint plan position out of range")
		}
		for _, e := range fe.plan[:fe.planIdx] {
			fe.set.Apply(e)
		}
		fe.recomputeDown(s)
		for l := range fe.down {
			s.links[l].down = fe.down[l]
		}
		if fe.tableSwapPlanIdx >= 0 {
			if fe.rec == nil {
				return nil, fmt.Errorf("netsim: checkpoint was taken after a table swap; restoring requires Config.Reconfigurer")
			}
			swapSet := faults.NewSet(s.net)
			for _, e := range fe.plan[:fe.tableSwapPlanIdx] {
				swapSet.Apply(e)
			}
			rc, err := fe.rec.Recompute(swapSet)
			if err != nil {
				return nil, fmt.Errorf("netsim: re-deriving swapped routing tables: %w", err)
			}
			s.table = rc.Table.Clone()
		}
		if fe.phase == phaseProbing || fe.phase == phaseDraining {
			if fe.rec == nil {
				return nil, fmt.Errorf("netsim: checkpoint was taken mid-reconfiguration; restoring requires Config.Reconfigurer")
			}
			rc, err := fe.rec.Recompute(fe.set.Clone())
			if err != nil {
				return nil, fmt.Errorf("netsim: re-deriving pending reconfiguration: %w", err)
			}
			fe.pendingRc = rc
		}
		fe.recomputeWake()
	}
	if err := s.table.RestoreRR(rr); err != nil {
		return nil, err
	}

	// Re-derive the active sets and parked generation timers from each
	// component's own activity predicate — the same predicates the phase
	// loops use for removal, so membership is exactly what the
	// uninterrupted run would carry into the next cycle. Stale bits that
	// run might carry are spurious members whose visit is a no-op; the one
	// observable side effect of such a visit, parking a sleeping NIC's
	// generation timer, is reproduced by the armGen call below. A NIC the
	// run kept awake with a timer already parked loses nothing: the timer
	// is due at ceil(nextGen), exactly where armGen re-parks it when the
	// NIC next sleeps, because nextGen cannot advance before that cycle.
	for i := range s.links {
		l := &s.links[i]
		if len(l.flits) > 0 {
			s.shards[l.recvShard].linkSet.add(i)
		}
		if len(l.signals) > 0 {
			s.shards[l.sendShard].linkSet.add(i)
		}
	}
	for i := range s.switches {
		sw := &s.switches[i]
		if sw.waiting > 0 || sw.setups > 0 {
			s.shards[s.shardOfSwitch[i]].routingSet.add(i)
		}
		if sw.conns > 0 {
			s.shards[s.shardOfSwitch[i]].transferSet.add(i)
		}
	}
	for h := range s.nics {
		n := &s.nics[h]
		sh := &s.shards[s.shardOfHost[h]]
		if s.nicNeedsTick(n) {
			sh.nicSet.add(h)
		} else {
			sh.nicSet.remove(h)
			s.armGen(sh, n)
		}
	}
	return s, nil
}

// ResumeContext restores a checkpoint under cfg and runs it to completion,
// returning the Result the uninterrupted run would have produced. It is the
// resume counterpart of the package-level RunContext.
func ResumeContext(ctx context.Context, cfg Config, snapshot []byte) (*Result, error) {
	s, err := Restore(cfg, snapshot)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}
