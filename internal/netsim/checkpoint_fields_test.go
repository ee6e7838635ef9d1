package netsim

import (
	"reflect"
	"testing"

	"itbsim/internal/metrics"
	"itbsim/internal/routes"
)

// checkpointedTypes instantiates every struct the snapshot codec touches.
// Reflection reads the real field lists, so a field added to any of these
// types fails TestCheckpointFieldCoverage until it is either serialized
// (added to checkpointFields alongside the codec change) or explicitly
// exempted with a reason (added to checkpointExempt).
var checkpointedTypes = []interface{}{
	Config{},
	Params{},
	Sim{},
	link{},
	flitInFlight{},
	signalInFlight{},
	inPort{},
	outPort{},
	swtch{},
	nic{},
	injection{},
	reinjState{},
	packet{},
	msgState{},
	retryTimer{},
	fifo{},
	flitSeg{},
	vcIn{},
	vcRx{},
	shard{},
	bitset{},
	faultEngine{},
	RNG{},
	DropStats{},
	ReconfigStat{},
	metrics.Collector{},
	metrics.Histogram{},
	routes.Table{},
	routes.Route{},
	routes.Seg{},
}

// TestCheckpointFieldCoverage is the forcing function that keeps the
// checkpoint codec complete as the simulator grows: every field of every
// snapshotted type must be accounted for — either serialized
// (checkpointFields) or deliberately exempt (checkpointExempt) — and the
// two maps may not drift from the real struct definitions or overlap.
func TestCheckpointFieldCoverage(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range checkpointedTypes {
		typ := reflect.TypeOf(v)
		name := typ.String()
		if seen[name] {
			t.Errorf("%s listed twice in checkpointedTypes", name)
		}
		seen[name] = true

		serialized := map[string]bool{}
		for _, f := range checkpointFields[name] {
			if serialized[f] {
				t.Errorf("%s.%s listed twice in checkpointFields", name, f)
			}
			serialized[f] = true
		}
		exempt := map[string]bool{}
		for _, f := range checkpointExempt[name] {
			if exempt[f] {
				t.Errorf("%s.%s listed twice in checkpointExempt", name, f)
			}
			if serialized[f] {
				t.Errorf("%s.%s is both serialized and exempt", name, f)
			}
			exempt[f] = true
		}

		real := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i).Name
			real[f] = true
			if !serialized[f] && !exempt[f] {
				t.Errorf("%s.%s is not covered by the checkpoint codec: serialize it in checkpoint.go and add it to checkpointFields, or exempt it with a reason in checkpointExempt", name, f)
			}
		}
		for f := range serialized {
			if !real[f] {
				t.Errorf("checkpointFields names %s.%s, which does not exist", name, f)
			}
		}
		for f := range exempt {
			if !real[f] {
				t.Errorf("checkpointExempt names %s.%s, which does not exist", name, f)
			}
		}
	}

	for name := range checkpointFields {
		if !seen[name] {
			t.Errorf("checkpointFields covers %s, which is not in checkpointedTypes", name)
		}
	}
	for name := range checkpointExempt {
		if !seen[name] {
			t.Errorf("checkpointExempt covers %s, which is not in checkpointedTypes", name)
		}
	}
}

// checkpointFields names, per snapshotted struct type, the fields the codec
// walk (codeState) serializes (or, for Config/Params, folds into the header
// hash); checkpointExempt names the fields deliberately left out, each
// because it is rebuilt from the configuration, re-derived on restore, or
// provably zero/empty at a cycle boundary. TestCheckpointFieldCoverage walks the real
// struct definitions by reflection and fails when a new field appears in
// neither map — the forcing function that keeps the codec complete as the
// simulator grows.
var checkpointFields = map[string][]string{
	"netsim.Config": {"Net", "Table", "Load", "MessageBytes", "Seed", "WarmupMessages",
		"MeasureMessages", "MaxCycles", "CollectLinkUtil", "Metrics", "Faults", "Params"},
	"netsim.Params": {"CycleNs", "LinkFlightCycles", "RoutingCycles", "SlackBufferFlits",
		"StopThreshold", "GoThreshold", "ITBDetectFlits", "ITBDMAFlits", "ITBPoolBytes",
		"SourceQueueCap", "SourceBubblePeriod", "VCs", "VCBufFlits", "WatchdogCycles",
		"DetectionCycles", "ProbeCycles", "DrainCycles", "RetryTimeoutCycles", "RetryLimit"},
	"netsim.Sim": {"now", "progress", "table", "fe", "links", "inPorts", "outPorts",
		"switches", "nics", "shards", "generatedTotal", "deliveredTotal", "outstanding",
		"measuring", "measureStart", "measITBSum", "measCount", "mx",
		"windowDeliveredFlits", "windowInjectedFlits"},
	"netsim.link": {"stopped", "credits", "flits", "flHead", "signals", "sgHead",
		"busy", "idleStopped"},
	"netsim.flitInFlight":   {"pkt", "tail", "arrive"},
	"netsim.signalInFlight": {"stop", "vc", "arrive"},
	"netsim.inPort":         {"buf", "conn", "pendingOut", "lastSignalStop", "vcs"},
	"netsim.outPort": {"state", "setupLeft", "inp", "rr", "reqMask", "vcReq", "vconn",
		"nconn", "setupVC", "txRR"},
	"netsim.swtch": {"waiting", "setups", "conns"},
	"netsim.nic": {"sendQ", "sendQH", "reinjQ", "reinjH", "cur", "active", "rxPkt",
		"rxCount", "rxExpected", "rxStart", "rxReinj", "rxVC", "pending", "poolUsed",
		"poolPeak", "overflows", "rng", "nextGen", "stopGen", "genSeq", "sinceBubble"},
	"netsim.injection":  {"pkt", "toSend", "sent", "reinj"},
	"netsim.reinjState": {"pkt", "expected", "received", "recvDone", "readyAt", "queued", "toSend", "sent", "released"},
	"netsim.packet": {"id", "srcHost", "dstHost", "route", "segIdx", "chanIdx",
		"wireFlits", "payload", "vc", "genCycle", "injectCycle", "itbVisits", "measured",
		"msg", "attempt", "dead", "injected"},
	"netsim.msgState":   {"src", "dst", "payload", "genCycle", "measured", "seq", "pkt", "attempts", "done", "lost"},
	"netsim.retryTimer": {"at", "seq", "m"},
	"netsim.fifo":       {"segs", "head", "occ"},
	"netsim.flitSeg":    {"pkt", "flits", "tail"},
	"netsim.vcIn":       {"buf", "conn", "pendingOut"},
	"netsim.vcRx":       {"pkt", "count"},
	"netsim.shard":      {"latHist", "netLatHist", "latCycles", "netLatCycles"},
	"netsim.faultEngine": {"planIdx", "tableSwapPlanIdx", "timers", "seq", "phase",
		"phaseEnd", "eventCycle", "detectAt", "needPurge", "drops", "retransmits",
		"lost", "reconfigs", "reconfigFails", "reconfigErr", "droppedPackets"},
	"netsim.RNG":          {"state"},
	"netsim.DropStats":    {"InFlight", "DeadSwitch", "DeadOutput", "NoRoute"},
	"netsim.ReconfigStat": {"EventCycle", "DetectCycle", "SwapCycle", "Probes", "LostHosts"},
	"metrics.Collector": {"windowCycles", "maxWindows", "startCycle", "nextSample",
		"channels", "switches", "hosts", "busyPrev", "busySeries", "windows",
		"peakBusyFrac", "occSum", "occPeak", "poolSum", "poolPeak", "ejects",
		"reinjects", "backpressure", "delivPrev", "dropPrev", "retransPrev",
		"delivSeries", "dropSeries", "retransSeries", "numVCs", "vcOccSum",
		"vcOccPeak", "vcOccSeries", "vcCount", "samples"},
	"metrics.Histogram": {"counts", "count", "sum", "min", "max"},
	"routes.Table":      {"rr"},
	"routes.Route":      {"SrcSwitch", "DstSwitch", "Segs", "Hops", "AltIndex", "VC"},
	"routes.Seg":        {"Channels", "ITBHost"},
}

var checkpointExempt = map[string][]string{
	// Functions, callbacks, and execution-mechanism knobs: not part of the
	// experiment's identity (Dest is the caller's obligation to repeat).
	"netsim.Config": {"Dest", "Notify", "Tracer", "Reconfigurer", "DenseStep", "Shards",
		"CheckpointEvery", "CheckpointSink"},
	// Rebuilt from the configuration by New, or recomputed by finalize.
	"netsim.Sim": {"cfg", "p", "net", "outPortOfLink", "shardOfSwitch", "shardOfHost",
		"numShards", "dense", "workersOn", "startCh", "doneCh", "numChannels",
		"numHosts", "vcMode", "numVCs", "genIntervalCycles", "latHist", "netLatHist"},
	// Build-time wiring; down is re-derived from the fault set; the staged
	// double buffers are empty at every cycle boundary.
	"netsim.link":    {"id", "sendShard", "recvShard", "recvPort", "recvNIC", "down", "flNew", "sgNew"},
	"netsim.inPort":  {"sw", "link", "localIdx"},
	"netsim.outPort": {"sw", "link"},
	"netsim.swtch":   {"id", "ins", "outs"},
	// genArmed and the parked generation timers (shard.genTimers) are
	// re-derived from each sleeping NIC's nextGen.
	"netsim.nic": {"host", "upLink", "genArmed"},
	// Active sets are re-derived from component state; staged buffers and
	// counter deltas are empty/zero at every boundary; the packet arena is
	// an allocator, not state.
	"netsim.shard": {"id", "genTimers", "linkSet", "routingSet", "transferSet", "nicSet", "flDirty",
		"sgDirty", "deadRouteReqs", "armQ", "dProgress", "dGenerated", "dDelivered",
		"dOutstanding", "dWindowInjected", "dWindowDelivered", "dMeasITB", "dMeasCount",
		"dDropped", "dDrops", "pktChunk", "pktUsed", "panicVal", "panicStack"},
	"netsim.bitset": {"words"},
	// plan/rec come from the configuration; set/down/pendingRc/nextWake are
	// re-derived on restore.
	"netsim.faultEngine": {"plan", "set", "rec", "down", "pendingRc", "nextWake"},
	// Net/Scheme/Alts/NumVCs are rebuilt by table construction and pinned
	// by the config hash — which folds in Table.Fingerprint(), so the full
	// routing content (optimized, degraded, or static) must match, not
	// just the scheme. Snapshot rejects tables with a Selector.
	"routes.Table": {"Net", "Scheme", "Alts", "NumVCs", "sel"},
}
