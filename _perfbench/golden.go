package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"itbsim/internal/netsim"
)

// goldenFile is the path, from the checkout root, of the pinned outputs.
const goldenFile = "_perfbench/golden.json"

// pinned holds one workload's golden outputs: the fingerprint of every
// table its full-size run builds, which no seed changes, and per pinned
// seed the digest of every simulated point (and of every table derived from
// a simulation, such as an optimized one).
type pinned struct {
	Tables map[string]string            `json:"tables"`
	Seeds  map[string]map[string]string `json:"seeds"`
}

// resultDigest hashes the deterministic fields of a Result: accepted and
// injected traffic, latency percentiles, cycles, the message counts, and
// the cycles of every reconfiguration.
func resultDigest(r *netsim.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, f := range []float64{r.Accepted, r.Injected, r.LatencyP50Ns, r.LatencyP95Ns, r.LatencyP99Ns} {
		put(math.Float64bits(f))
	}
	for _, v := range []int64{r.Cycles, r.GeneratedMessages, r.DeliveredMessages, r.LostMessages, r.Retransmits, int64(len(r.Reconfigs))} {
		put(uint64(v))
	}
	for _, rc := range r.Reconfigs {
		put(uint64(rc.EventCycle))
		put(uint64(rc.DetectCycle))
		put(uint64(rc.SwapCycle))
	}
	return h.Sum64()
}

func hex(v uint64) string { return fmt.Sprintf("%016x", v) }

// checker counts operations and their failures, compares outputs with the
// pinned ones, and keeps what it observed so new pins can be taken from it.
type checker struct {
	attempted, failed int
	problems          []string

	pins     *pinned           // nil: nothing pinned at this size
	seedPins map[string]string // nil: this seed is not pinned
	observed map[string]string // seed-dependent outputs of the first pass
	tables   map[string]string // seed-independent fingerprints
	pass     map[string]string // outputs of the current pass
	first    map[string]string // outputs of the first pass, to compare repeats with
}

func newChecker(workload string, seed int64, pinnedSize bool) (*checker, error) {
	c := &checker{observed: map[string]string{}, tables: map[string]string{}}
	if !pinnedSize {
		return c, nil
	}
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		return nil, fmt.Errorf("reading pinned outputs: %w", err)
	}
	var all map[string]*pinned
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenFile, err)
	}
	c.pins = all[workload]
	if c.pins == nil {
		return nil, fmt.Errorf("%s pins nothing for workload %s", goldenFile, workload)
	}
	c.seedPins = c.pins.Seeds[strconv.FormatInt(seed, 10)]
	return c, nil
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// op records one attempted operation and fails it on err.
func (c *checker) op(what string, err error) bool {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", what, err)
		return false
	}
	return true
}

func (c *checker) startPass() { c.pass = map[string]string{} }

// endPass checks that a repeated pass reproduced the first one exactly and,
// on a pinned seed, that the pass produced every pinned output.
func (c *checker) endPass() {
	if c.first == nil {
		c.first = c.pass
		if c.seedPins != nil {
			for k := range c.seedPins {
				if _, ok := c.pass[k]; !ok && !traceOnlyKey(k) {
					c.fail("pinned output %s was not produced", k)
				}
			}
		}
		return
	}
	if len(c.pass) != len(c.first) {
		c.fail("repeated pass produced %d outputs, first pass %d", len(c.pass), len(c.first))
	}
	for k, v := range c.pass {
		if c.first[k] != v {
			c.fail("repeated pass: %s = %s, first pass %s", k, v, c.first[k])
		}
	}
}

// traceOnlyKey marks outputs only the traced run's probes produce.
func traceOnlyKey(k string) bool { return strings.HasPrefix(k, "optimized/") }

// table checks a seed-independent table fingerprint. It reports whether
// the table matched (or nothing is pinned at this size).
func (c *checker) table(name string, fp uint64) bool {
	got := hex(fp)
	c.tables[name] = got
	if c.pass != nil {
		c.pass["table/"+name] = got
	}
	if c.pins == nil {
		return true
	}
	want, ok := c.pins.Tables[name]
	if !ok {
		c.fail("table %s: fingerprint %s is not pinned", name, got)
		return false
	}
	if want != got {
		c.fail("table %s: fingerprint %s, pinned %s", name, got, want)
		return false
	}
	return true
}

// output checks one seed-dependent output against the pinned seed.
func (c *checker) output(key string, digest uint64) bool {
	got := hex(digest)
	if c.pass != nil {
		c.pass[key] = got
	}
	c.observed[key] = got
	if c.seedPins == nil {
		return true
	}
	want, ok := c.seedPins[key]
	if !ok {
		c.fail("%s: digest %s is not pinned for this seed", key, got)
		return false
	}
	if want != got {
		c.fail("%s: digest %s, pinned %s", key, got, want)
		return false
	}
	return true
}

// writeObserved saves the outputs in the golden file's shape, so a seed can
// be pinned by copying the file's content into golden.json.
func (c *checker) writeObserved(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := pinned{Tables: c.tables, Seeds: map[string]map[string]string{strconv.FormatInt(seed, 10): c.observed}}
	b, err := json.MarshalIndent(map[string]pinned{workload: p}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
