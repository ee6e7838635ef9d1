package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"itbsim/internal/faults"
	"itbsim/internal/netsim"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Name   string        `json:"name"`
	Point  string        `json:"point,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil *tracer records nothing, so the untraced path calls the
// same methods.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, point string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Point: point,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int, f func(id int) error) error {
	if t == nil {
		return f(-1)
	}
	id := t.add(name, parent, "", time.Now(), time.Time{})
	err := f(id)
	t.spans[id].End = time.Since(t.epoch)
	return err
}

// finish fills in every span's self time: its duration minus the part of
// it that its children cover.
func (t *tracer) finish() {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// layerSelf sums the self time of every span under root, by layer (the
// span name up to its first dot).
func (t *tracer) layerSelf(root int) map[string]time.Duration {
	under := map[int]bool{root: true}
	out := map[string]time.Duration{}
	for _, s := range t.spans { // parents are always recorded before children
		if s.ID != root && !under[s.Parent] {
			continue
		}
		under[s.ID] = true
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.Self
	}
	return out
}

// write saves the spans as JSON under dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// timedReconfigurer wraps the fault controller so each recomputation is a
// faults.recompute span, with the mapper's probe count summed alongside.
type timedReconfigurer struct {
	inner  netsim.Reconfigurer
	tr     *tracer
	parent int // the span of the point being simulated
	calls  int
	probes int
	total  time.Duration
}

func (r *timedReconfigurer) Recompute(set *faults.Set) (*faults.Reconfiguration, error) {
	start := time.Now()
	rc, err := r.inner.Recompute(set)
	end := time.Now()
	r.tr.add("faults.recompute", r.parent, "", start, end)
	r.calls++
	r.total += end.Sub(start)
	if rc != nil {
		r.probes += rc.Probes
	}
	return rc, err
}
