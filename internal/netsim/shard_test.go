package netsim

import (
	"reflect"
	"runtime"
	"testing"

	"itbsim/internal/faults"
	"itbsim/internal/metrics"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// shardCounts returns the shard counts the equivalence suite compares
// against the serial baseline: 2, 3, and the machine's core count,
// deduplicated (on a 1- or 2-core box NumCPU adds nothing new).
func shardCounts() []int {
	counts := []int{2, 3}
	if n := runtime.NumCPU(); n > 3 {
		counts = append(counts, n)
	}
	return counts
}

// shardNets builds the three topology families the ISSUE names: the paper's
// torus, an express torus (skip channels make shard-crossing links
// non-nearest-neighbour), and the irregular CPLANT fabric.
func shardNets(t *testing.T) []*topology.Network {
	t.Helper()
	torus := makeNet(t, 8, 8, 2)
	express, err := topology.NewExpressTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cplant, err := topology.NewCplant(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Network{torus, express, cplant}
}

// shardConfig is a run that exercises every subsystem shard merging
// touches: wormhole contention, ITB re-injection, windowed metrics and
// histograms, and (optionally) kills, retries, and reconfiguration.
func shardConfig(t testing.TB, net *topology.Network, sch routes.Scheme, faulted bool) Config {
	t.Helper()
	tab := makeTable(t, net, sch)
	cfg := baseConfig(net, tab)
	cfg.Load = 0.008
	cfg.WarmupMessages = 50
	cfg.MeasureMessages = 200
	cfg.CollectLinkUtil = true
	cfg.Metrics = &metrics.Config{WindowCycles: 4096}
	if faulted {
		cfg.Faults = (&faults.Plan{}).
			FailLinkAt(busiestLink(tab, net), 40_000).
			RepairLinkAt(busiestLink(tab, net), 160_000)
		cfg.Reconfigurer = faults.NewController(net, 0, routes.DefaultConfig(sch))
		cfg.Load = 0.02
	}
	return cfg
}

// TestShardEquivalence is the sharded core's golden check: for every
// routing scheme, topology family, and fault mode, a run split across K
// shards must produce a Result byte-identical to the serial path —
// including metrics series, latency histograms, and drop accounting.
// `make race` runs this under the race detector, which also makes it the
// proof that the phase protocol has no cross-shard data races.
func TestShardEquivalence(t *testing.T) {
	for _, net := range shardNets(t) {
		for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR} {
			for _, faulted := range []bool{false, true} {
				name := net.Name + "/" + sch.String()
				if faulted {
					name += "/faulted"
				}
				t.Run(name, func(t *testing.T) {
					serial := shardConfig(t, net, sch, faulted)
					serial.Shards = 1
					want, err := Run(serial)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range shardCounts() {
						cfg := shardConfig(t, net, sch, faulted)
						cfg.Shards = k
						got, err := Run(cfg)
						if err != nil {
							t.Fatalf("Shards=%d: %v", k, err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Errorf("Shards=%d diverges from serial run:\nserial:  %+v\nsharded: %+v", k, want, got)
						}
					}
				})
			}
		}
	}
}

// TestShardEnqueueEquivalence covers the Enqueue-driven drain path: the
// hand-placed traffic internal/gm relies on must drain to identical
// results (and identical packet IDs) at every shard count.
func TestShardEnqueueEquivalence(t *testing.T) {
	run := func(k int) *Result {
		net := makeNet(t, 4, 4, 2)
		cfg := baseConfig(net, makeTable(t, net, routes.UpDown))
		cfg.Load = 0
		cfg.Shards = k
		cfg.Metrics = &metrics.Config{WindowCycles: 512}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		H := net.NumHosts()
		for i := 0; i < 3*H; i++ {
			src := i % H
			if _, err := s.Enqueue(src, (src+5)%H, 256); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.RunUntilDrained()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, k := range shardCounts() {
		if got := run(k); !reflect.DeepEqual(want, got) {
			t.Errorf("Shards=%d: drained result diverges from serial run", k)
		}
	}
}

// TestResolveShards pins the Shards validation and auto-pick rules.
func TestResolveShards(t *testing.T) {
	net := makeNet(t, 8, 8, 2)
	tab := makeTable(t, net, routes.UpDown)

	cfg := baseConfig(net, tab)
	cfg.Shards = -1
	if _, err := New(cfg); err == nil {
		t.Error("Shards=-1 accepted")
	}

	cfg = baseConfig(net, tab)
	cfg.Shards = 2
	cfg.Tracer = discardTracer{}
	if _, err := New(cfg); err == nil {
		t.Error("Shards=2 with a Tracer accepted; tracing is serial-only")
	}

	cfg = baseConfig(net, tab)
	cfg.Shards = 2
	cfg.Notify = func(Delivery) {}
	if _, err := New(cfg); err == nil {
		t.Error("Shards=2 with Notify accepted; delivery callbacks are serial-only")
	}

	cfg = baseConfig(net, tab)
	cfg.Shards = 2
	cfg.DenseStep = true
	if _, err := New(cfg); err == nil {
		t.Error("Shards=2 with DenseStep accepted; the dense scan is serial-only")
	}

	// Auto (0) with a serial-only feature silently falls back to 1.
	cfg = baseConfig(net, tab)
	cfg.Notify = func(Delivery) {}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.numShards != 1 {
		t.Errorf("auto shards with Notify picked %d, want 1", s.numShards)
	}

	// An explicit count is clamped to the switch count.
	cfg = baseConfig(net, tab)
	cfg.Shards = 1000
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.numShards != net.Switches {
		t.Errorf("Shards=1000 on %d switches resolved to %d", net.Switches, s.numShards)
	}
}

// discardTracer satisfies Tracer and drops every event.
type discardTracer struct{}

func (discardTracer) Trace(Event) {}
