package netsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"itbsim/internal/optimize"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// runCheckpointed runs cfg to completion while capturing a snapshot every
// `every` cycles, returning the result and the captured snapshots in order.
func runCheckpointed(t *testing.T, cfg Config, every int64) (*Result, [][]byte) {
	t.Helper()
	var snaps [][]byte
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = func(cycle int64, snapshot []byte) error {
		snaps = append(snaps, snapshot)
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatalf("run finished without producing a snapshot (CheckpointEvery=%d)", every)
	}
	return res, snaps
}

// resultBytes renders a Result for byte-level comparison: the JSON covers
// every exported field, including the full metrics export.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// expectCanonical requires snapshot bytes to be canonical: each snapshot,
// restored under cfg, must re-snapshot to exactly the same bytes.
func expectCanonical(t *testing.T, cfg Config, snaps [][]byte, label string) {
	t.Helper()
	for i, snap := range snaps {
		restored, err := Restore(cfg, snap)
		if err != nil {
			t.Fatalf("%s %d: restore: %v", label, i, err)
		}
		again, err := restored.Snapshot()
		if err != nil {
			t.Fatalf("%s %d: re-snapshot: %v", label, i, err)
		}
		if !bytes.Equal(again, snap) {
			t.Errorf("%s %d: restored state re-snapshots to different bytes (%d vs %d)", label, i, len(again), len(snap))
		}
	}
}

// expectResume requires snap to be canonical under cfg, then restores it,
// runs to completion, and requires the result to match want exactly —
// structurally and byte-for-byte.
func expectResume(t *testing.T, cfg Config, snap []byte, want *Result, label string) {
	t.Helper()
	expectCanonical(t, cfg, [][]byte{snap}, label)
	got, err := ResumeContext(context.Background(), cfg, snap)
	if err != nil {
		t.Fatalf("%s: resume: %v", label, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: resumed result diverges from the uninterrupted run:\nwant: %+v\ngot:  %+v", label, want, got)
		return
	}
	if wb, gb := resultBytes(t, want), resultBytes(t, got); string(wb) != string(gb) {
		t.Errorf("%s: resumed result serializes differently", label)
	}
}

// checkpointMechanisms names the execution-mechanism variants the
// equivalence matrix covers; apply mutates a config into that mechanism.
var checkpointMechanisms = []struct {
	name  string
	apply func(*Config)
}{
	{"dense", func(c *Config) { c.DenseStep = true }},
	{"active-set", func(c *Config) { c.Shards = 1 }},
	{"sharded", func(c *Config) { c.Shards = 3 }},
}

// TestResumeEquivalence is the checkpoint codec's golden check: for every
// execution mechanism, routing scheme, and fault mode, a run snapshotted at
// an arbitrary mid-run cycle and resumed from that snapshot must produce a
// Result byte-identical to the uninterrupted run — and the snapshotting run
// itself must be unperturbed by taking checkpoints, and every snapshot it
// wrote must be canonical.
func TestResumeEquivalence(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	for _, mech := range checkpointMechanisms {
		for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBRR} {
			for _, faulted := range []bool{false, true} {
				name := mech.name + "/" + sch.String()
				if faulted {
					name += "/faulted"
				}
				t.Run(name, func(t *testing.T) {
					base := shardConfig(t, net, sch, faulted)
					mech.apply(&base)
					want, err := Run(base)
					if err != nil {
						t.Fatal(err)
					}
					ckpt := shardConfig(t, net, sch, faulted)
					mech.apply(&ckpt)
					res, snaps := runCheckpointed(t, ckpt, 10_000)
					if !reflect.DeepEqual(want, res) {
						t.Fatal("taking checkpoints perturbed the run")
					}
					resume := shardConfig(t, net, sch, faulted)
					mech.apply(&resume)
					expectCanonical(t, resume, snaps, "snapshot")
					expectResume(t, resume, snaps[len(snaps)/2], want, "mid-run snapshot")
				})
			}
		}
	}
}

// TestResumeEquivalenceVC covers the virtual-channel mechanism (which
// excludes faults): lane buffers, credits, and per-lane reception state must
// round-trip through a snapshot.
func TestResumeEquivalenceVC(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	for _, mech := range checkpointMechanisms {
		t.Run(mech.name, func(t *testing.T) {
			base := vcConfig(t, net, 2)
			mech.apply(&base)
			want, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			ckpt := vcConfig(t, net, 2)
			mech.apply(&ckpt)
			res, snaps := runCheckpointed(t, ckpt, 10_000)
			if !reflect.DeepEqual(want, res) {
				t.Fatal("taking checkpoints perturbed the run")
			}
			resume := vcConfig(t, net, 2)
			mech.apply(&resume)
			expectCanonical(t, resume, snaps, "snapshot")
			expectResume(t, resume, snaps[len(snaps)/2], want, "mid-run snapshot")
		})
	}
}

// TestResumeEverysnapshot resumes one run from its first, middle, and last
// snapshots — early (mid-warmup), mid-measurement, and near the end must all
// converge to the identical result.
func TestResumeEverySnapshot(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	base := shardConfig(t, net, routes.ITBRR, false)
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	_, snaps := runCheckpointed(t, shardConfig(t, net, routes.ITBRR, false), 10_000)
	for _, pick := range []int{0, len(snaps) / 2, len(snaps) - 1} {
		expectResume(t, shardConfig(t, net, routes.ITBRR, false), snaps[pick], want, "snapshot")
	}
}

// TestResumeCrossMechanism proves a snapshot is mechanism-portable: state
// written under the sharded core restores under the dense scan and vice
// versa (and under a different shard count), because active sets and
// parked timers are re-derived rather than serialized and the config hash
// excludes execution-mechanism knobs. The same property makes the bytes
// canonical: dense, active-set and sharded runs write identical snapshots
// at every checkpoint cycle.
func TestResumeCrossMechanism(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	mk := func() Config { return shardConfig(t, net, routes.ITBRR, false) }
	want, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	shardedCfg := mk()
	shardedCfg.Shards = 3
	_, shardedSnaps := runCheckpointed(t, shardedCfg, 10_000)
	denseCfg := mk()
	denseCfg.DenseStep = true
	_, denseSnaps := runCheckpointed(t, denseCfg, 10_000)
	activeCfg := mk()
	activeCfg.Shards = 1
	_, activeSnaps := runCheckpointed(t, activeCfg, 10_000)
	for _, run := range []struct {
		name  string
		snaps [][]byte
	}{{"3-shard", shardedSnaps}, {"active-set", activeSnaps}} {
		if len(run.snaps) != len(denseSnaps) {
			t.Fatalf("%s run wrote %d snapshots, dense wrote %d", run.name, len(run.snaps), len(denseSnaps))
		}
		for i, snap := range run.snaps {
			if !bytes.Equal(snap, denseSnaps[i]) {
				t.Errorf("%s snapshot %d differs from the dense run's (%d vs %d bytes)", run.name, i, len(snap), len(denseSnaps[i]))
			}
		}
	}

	resume := mk()
	resume.DenseStep = true
	expectResume(t, resume, shardedSnaps[len(shardedSnaps)/2], want, "sharded snapshot, dense resume")
	resume = mk()
	resume.Shards = 3
	expectResume(t, resume, denseSnaps[len(denseSnaps)/2], want, "dense snapshot, sharded resume")
	resume = mk()
	resume.Shards = 2
	expectResume(t, resume, shardedSnaps[len(shardedSnaps)/2], want, "3-shard snapshot, 2-shard resume")
}

// TestResumeEquivalenceTopologies spot-checks the matrix on the other two
// topology families (express torus, irregular CPLANT) with faults live.
func TestResumeEquivalenceTopologies(t *testing.T) {
	for _, net := range shardNets(t)[1:] {
		t.Run(net.Name, func(t *testing.T) {
			base := shardConfig(t, net, routes.ITBSP, true)
			want, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			_, snaps := runCheckpointed(t, shardConfig(t, net, routes.ITBSP, true), 10_000)
			expectResume(t, shardConfig(t, net, routes.ITBSP, true), snaps[len(snaps)/2], want, "mid-run snapshot")
		})
	}
}

// TestRestoreRejects pins the failure modes of Restore: wrong magic,
// truncation, trailing garbage, and a checkpoint from a different
// experiment configuration.
func TestRestoreRejects(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := shardConfig(t, net, routes.UpDown, false)
	_, snaps := runCheckpointed(t, cfg, 10_000)
	snap := snaps[0]

	if _, err := Restore(cfg, []byte("not a checkpoint at all")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("garbage accepted: %v", err)
	}
	if _, err := Restore(cfg, snap[:len(snap)/2]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	if _, err := Restore(cfg, append(append([]byte(nil), snap...), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes accepted: %v", err)
	}
	other := shardConfig(t, net, routes.UpDown, false)
	other.Seed = 999
	if _, err := Restore(other, snap); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("checkpoint accepted under a different seed: %v", err)
	}
	other = shardConfig(t, net, routes.UpDown, false)
	other.Load = 0.5
	if _, err := Restore(other, snap); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("checkpoint accepted under a different load: %v", err)
	}
}

// TestRestoreRejectsDifferentTable pins the table-fingerprint gate: a
// checkpoint written under the static builder table must refuse to restore
// under an optimizer-rewritten table of the same scheme and shape (and vice
// versa), with a typed *topology.ConfigError — the snapshot's in-flight
// packets reference routes only the writing table has.
func TestRestoreRejectsDifferentTable(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := shardConfig(t, net, routes.UpDown, false)
	_, snaps := runCheckpointed(t, cfg, 10_000)
	snap := snaps[len(snaps)/2]

	resume := shardConfig(t, net, routes.UpDown, false)
	opt, st, err := optimize.Optimize(resume.Table,
		routes.DefaultConfig(routes.UpDown),
		optimize.EstimateCriticality(resume.Table), optimize.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted == 0 {
		t.Fatal("optimizer accepted no moves on the 4x4 torus; the test needs a genuinely different table")
	}
	if resume.Table.Fingerprint() == opt.Fingerprint() {
		t.Fatal("optimized table fingerprints equal to the static table")
	}
	resume.Table = opt
	_, err = Restore(resume, snap)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("static-table checkpoint accepted under the optimized table: %v", err)
	}
	var ce *topology.ConfigError
	if !errors.As(err, &ce) {
		t.Errorf("hash-mismatch error is %T, want *topology.ConfigError", err)
	}

	// The gate is symmetric: write optimized, restore static.
	wcfg := shardConfig(t, net, routes.UpDown, false)
	wcfg.Table = opt.Clone()
	_, osnaps := runCheckpointed(t, wcfg, 10_000)
	if _, err := Restore(shardConfig(t, net, routes.UpDown, false), osnaps[0]); err == nil {
		t.Error("optimized-table checkpoint accepted under the static table")
	}
	// And an identical rebuild still restores: the fingerprint pins route
	// content, not pointer identity.
	rcfg := shardConfig(t, net, routes.UpDown, false)
	rcfg.Table = opt.Clone()
	if _, err := Restore(rcfg, osnaps[0]); err != nil {
		t.Errorf("optimized-table checkpoint refused under an identical table: %v", err)
	}
}

// TestCheckpointConfigValidation pins the New-time gates for the periodic
// checkpointing hook and Snapshot's own refusals.
func TestCheckpointConfigValidation(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.UpDown)

	cfg := baseConfig(net, tab)
	cfg.CheckpointEvery = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative CheckpointEvery accepted")
	}

	cfg = baseConfig(net, tab)
	cfg.CheckpointEvery = 1000
	if _, err := New(cfg); err == nil {
		t.Error("CheckpointEvery without a sink accepted")
	}

	cfg = baseConfig(net, tab)
	cfg.CheckpointEvery = 1000
	cfg.CheckpointSink = func(int64, []byte) error { return nil }
	cfg.Tracer = discardTracer{}
	if _, err := New(cfg); err == nil {
		t.Error("checkpointing with a Tracer accepted")
	}

	cfg = baseConfig(net, tab)
	cfg.Notify = func(Delivery) {}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("Snapshot with Notify succeeded; callback state cannot round-trip")
	}
}

// TestCheckpointSinkErrorAborts verifies a failing sink stops the run with
// the sink's error.
func TestCheckpointSinkErrorAborts(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := shardConfig(t, net, routes.UpDown, false)
	cfg.CheckpointEvery = 1000
	cfg.CheckpointSink = func(int64, []byte) error {
		return context.Canceled
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "checkpoint sink") {
		t.Errorf("run survived a failing checkpoint sink: %v", err)
	}
}

// TestStallDumpSurvivesRestore is the watchdog-diagnostics check: a stalled
// packet's reported age is measured from its generation cycle, which is
// serialized, so the dump from a restored Sim must equal the original's —
// ages must not restart from the resume point.
func TestStallDumpSurvivesRestore(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := shardConfig(t, net, routes.ITBRR, false)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.outstanding == 0 || s.now < 5_000 {
		s.step()
		if s.now > 1_000_000 {
			t.Fatal("no traffic in flight after a million cycles")
		}
	}
	want := s.stallDump(maxStalledReported)
	if want == nil || want.Outstanding == 0 {
		t.Fatalf("no stall state to compare: %+v", want)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(shardConfig(t, net, routes.ITBRR, false), snap)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.stallDump(maxStalledReported)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("stall dump changed across restore:\nwant: %+v\ngot:  %+v", want, got)
	}
	if got.Oldest[0].AgeCycles <= 0 {
		t.Error("restored stall ages reset to zero")
	}
}

// TestResumeManualStepping snapshots from a manually stepped simulator (no
// RunContext, no CheckpointEvery hook) at an exact chosen cycle and resumes
// it with ResumeContext — the two entry points must compose.
func TestResumeManualStepping(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := baseConfig(net, makeTable(t, net, routes.UpDown))
	run := func(snapshotAt int64) (*Result, []byte) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var snap []byte
		for {
			// The measurement transitions RunContext performs, minus the
			// metrics collector (nil here).
			if !s.measuring && s.deliveredTotal >= int64(cfg.WarmupMessages) {
				s.measuring = true
				s.measureStart = s.now
			}
			if s.measuring && s.measCount >= int64(cfg.MeasureMessages) {
				break
			}
			s.step()
			if snap == nil && s.now == snapshotAt {
				if snap, err = s.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if s.now > 100_000_000 {
				t.Fatal("run did not finish")
			}
		}
		return s.finalize(false), snap
	}
	want, snap := run(30_000)
	if snap == nil {
		t.Fatal("no snapshot taken")
	}
	got, err := ResumeContext(context.Background(), cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("manual-stepping resume diverges:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// FuzzRestore feeds arbitrary bytes to Restore, seeded with snapshots of a
// short faulted ITB-RR run with metrics on. The oracle: Restore returns a
// Sim or an error and never panics, and a Sim it returns snapshots to
// bytes that restore again and re-snapshot unchanged. The restored Sim is
// never stepped: corrupt but well-formed state may misbehave in step, and
// the runner's worker recover() already types such a panic as PanicError.
// `make fuzz` runs it; minimized crashers live in testdata/fuzz/FuzzRestore.
func FuzzRestore(f *testing.F) {
	net := makeNet(f, 4, 4, 2)
	cfg := shardConfig(f, net, routes.ITBRR, true)
	seed := cfg
	seed.CheckpointEvery = 10_000
	var snaps [][]byte
	seed.CheckpointSink = func(_ int64, snap []byte) error {
		snaps = append(snaps, snap)
		return nil
	}
	if _, err := Run(seed); err != nil {
		f.Fatal(err)
	}
	if len(snaps) < 3 {
		f.Fatalf("seed run wrote %d snapshots, want at least 3", len(snaps))
	}
	for _, snap := range [][]byte{snaps[0], snaps[len(snaps)/2], snaps[len(snaps)-1]} {
		f.Add(snap)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restore(cfg, data)
		if err != nil {
			return
		}
		once, err := s.Snapshot()
		if err != nil {
			t.Fatalf("restored Sim does not snapshot: %v", err)
		}
		again, err := Restore(cfg, once)
		if err != nil {
			t.Fatalf("snapshot of a restored Sim does not restore: %v", err)
		}
		twice, err := again.Snapshot()
		if err != nil {
			t.Fatalf("re-restored Sim does not snapshot: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-snapshot differs (%d vs %d bytes)", len(once), len(twice))
		}
	})
}
