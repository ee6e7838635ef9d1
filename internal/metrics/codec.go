package metrics

import (
	"itbsim/internal/codec"
)

// Binary codecs for the streaming state of this package, used by the
// simulator checkpoint (docs/CHECKPOINT.md) and the sweep journal: a
// mid-run Collector and its Histograms round-trip exactly, so a restored
// run's exported telemetry is byte-identical to the uninterrupted run's.
// Each type has one walk, Code, that both encodes and decodes
// (internal/codec); the layout is little-endian with uint32
// length-prefixed slices and a leading format version byte per type.

const (
	histogramCodecVersion = 1
	collectorCodecVersion = 1
)

// Code writes or reads (per c's mode) the histogram's complete state:
// bucket counts and the exact summary moments (count, sum, min, max). A
// zero-valued receiver decodes too. On a failed read the receiver holds
// partially decoded state and must be discarded.
func (h *Histogram) Code(c *codec.Codec) {
	v := uint8(histogramCodecVersion)
	c.U8(&v)
	if v != histogramCodecVersion {
		c.Failf("metrics: histogram codec version %d, want %d", v, histogramCodecVersion)
	}
	c.U64(&h.count)
	c.F64(&h.sum)
	c.F64(&h.min)
	c.F64(&h.max)
	if c.Reading() && h.counts == nil {
		h.counts = make([]uint64, NumBuckets)
	}
	codec.Fixed(c, h.counts, "histogram buckets", c.U64)
}

// MarshalBinary serializes the histogram (see Code).
func (h *Histogram) MarshalBinary() ([]byte, error) {
	c := codec.NewWriter(64 + 8*len(h.counts))
	h.Code(c)
	return c.Bytes()
}

// UnmarshalBinary restores a histogram serialized by MarshalBinary,
// overwriting the receiver (see Code).
func (h *Histogram) UnmarshalBinary(data []byte) error {
	c := codec.NewReader(data)
	h.Code(c)
	return c.Done()
}

// Code writes or reads (per cd's mode) a mid-run collector's complete
// state, including the mutable window width (rebinning doubles it) and
// every series. A reading receiver must have been built by NewCollector
// for the same network shape (and EnableVCs with the same lane count when
// the state carries VC series); mismatched dimensions are a failure. On a
// failed read the receiver holds partially decoded state and must be
// discarded.
func (c *Collector) Code(cd *codec.Codec) {
	v := uint8(collectorCodecVersion)
	cd.U8(&v)
	if v != collectorCodecVersion {
		cd.Failf("metrics: collector codec version %d, want %d", v, collectorCodecVersion)
	}
	cd.I64(&c.windowCycles)
	cd.Int(&c.maxWindows)
	cd.I64(&c.startCycle)
	cd.I64(&c.nextSample)
	channels, switches, hosts := c.channels, c.switches, c.hosts
	cd.Int(&channels)
	cd.Int(&switches)
	cd.Int(&hosts)
	if channels != c.channels || switches != c.switches || hosts != c.hosts {
		cd.Failf("metrics: collector state is for %d/%d/%d channels/switches/hosts, receiver has %d/%d/%d",
			channels, switches, hosts, c.channels, c.switches, c.hosts)
	}
	codec.Fixed(cd, c.busyPrev, "channel counters", cd.I64)
	codec.Slice(cd, &c.busySeries, cd.U32)
	cd.Int(&c.windows)
	codec.Fixed(cd, c.peakBusyFrac, "channel peaks", cd.F64)
	codec.Fixed(cd, c.occSum, "switch occupancy sums", cd.I64)
	codec.Fixed(cd, c.occPeak, "switch occupancy peaks", cd.I32)
	codec.Fixed(cd, c.poolSum, "host pool sums", cd.I64)
	codec.Fixed(cd, c.poolPeak, "host pool peaks", cd.I32)
	codec.Fixed(cd, c.ejects, "host eject counters", cd.I64)
	codec.Fixed(cd, c.reinjects, "host re-injection counters", cd.I64)
	codec.Fixed(cd, c.backpressure, "host backpressure counters", cd.I64)
	cd.I64(&c.delivPrev)
	cd.I64(&c.dropPrev)
	cd.I64(&c.retransPrev)
	codec.Slice(cd, &c.delivSeries, cd.U32)
	codec.Slice(cd, &c.dropSeries, cd.U32)
	codec.Slice(cd, &c.retransSeries, cd.U32)
	numVCs := c.numVCs
	cd.Int(&numVCs)
	if numVCs != c.numVCs {
		cd.Failf("metrics: collector state has %d virtual channels, receiver has %d", numVCs, c.numVCs)
	}
	codec.Fixed(cd, c.vcOccSum, "lane occupancy sums", cd.I64)
	codec.Fixed(cd, c.vcOccPeak, "lane occupancy peaks", cd.I32)
	codec.Slice(cd, &c.vcOccSeries, cd.U32)
	codec.Slice(cd, &c.vcCount, cd.U32)
	cd.I64(&c.samples)
}

// MarshalBinary serializes the collector (see Code).
func (c *Collector) MarshalBinary() ([]byte, error) {
	cd := codec.NewWriter(1 << 10)
	c.Code(cd)
	return cd.Bytes()
}

// UnmarshalBinary restores a collector serialized by MarshalBinary into the
// receiver (see Code).
func (c *Collector) UnmarshalBinary(data []byte) error {
	cd := codec.NewReader(data)
	c.Code(cd)
	return cd.Done()
}
