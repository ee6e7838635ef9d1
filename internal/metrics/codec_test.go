package metrics

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"
)

// codecHistogram builds a histogram whose state touches every encoded
// field: several buckets, a fractional sum, and distinct min and max.
func codecHistogram() *Histogram {
	h := NewHistogram()
	for _, v := range []float64{0.5, 3, 6.25, 100, 4434.7, 1e6} {
		h.Record(v)
	}
	return h
}

// codecCollector builds a mid-run collector with virtual-channel series,
// a rebinned window width and non-zero event counters, so every encoded
// field carries data.
func codecCollector() *Collector {
	c := NewCollector(Config{WindowCycles: 64, MaxWindows: 4}, 3, 2, 2)
	c.EnableVCs(2)
	c.Start(10)
	c.PrimeTraffic(100, 1, 0)
	busy := make([]int64, 3)
	for w := 0; w < 5; w++ {
		cycle := c.NextSample()
		for ch := range busy {
			busy[ch] += int64(ch*w + 1)
			c.SampleLink(ch, busy[ch])
		}
		c.SampleSwitchOcc(0, w)
		c.SampleSwitchOcc(1, 7)
		c.SampleHostPool(0, 1024*w)
		c.SampleHostPool(1, 3)
		c.SampleVCOcc(0, w)
		c.SampleVCOcc(1, 2*w+1)
		c.SampleTraffic(int64(100+10*w), int64(1+w), int64(w))
		c.CloseWindow(cycle)
	}
	c.Eject(1)
	c.Reinject(0)
	c.BackpressureStall(1)
	return c
}

// TestCodecRoundTrip requires both codecs to restore an equal value that
// re-encodes to the same bytes.
func TestCodecRoundTrip(t *testing.T) {
	h := codecHistogram()
	hb, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var h2 Histogram // the zero value must decode too (the journal uses it)
	if err := h2.UnmarshalBinary(hb); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, &h2) {
		t.Errorf("histogram round trip differs:\nwant %+v\ngot  %+v", h, &h2)
	}
	if again, _ := h2.MarshalBinary(); !bytes.Equal(hb, again) {
		t.Error("histogram re-encodes to different bytes")
	}

	c := codecCollector()
	cb, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCollector(Config{WindowCycles: 64, MaxWindows: 4}, 3, 2, 2)
	c2.EnableVCs(2)
	if err := c2.UnmarshalBinary(cb); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, c2) {
		t.Errorf("collector round trip differs:\nwant %+v\ngot  %+v", c, c2)
	}
	if again, _ := c2.MarshalBinary(); !bytes.Equal(cb, again) {
		t.Error("collector re-encodes to different bytes")
	}
}

// TestCodecFormatPinned pins the byte formats by digest. Journals carry
// histograms in this encoding and checkpoints carry both, so a change
// here breaks every file written by an earlier build: bump the codec
// version constants instead of updating the digests.
func TestCodecFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    interface{ MarshalBinary() ([]byte, error) }
		want string
	}{
		{"histogram", codecHistogram(), "bfc346ea9f465f38dcf741176a43d4a19f88929bdbd552448a6debb100004d55"},
		{"collector", codecCollector(), "41f8fb87b21e8776002749b91c1c874375811cf7ce371404fa7f6568760c858f"},
	} {
		b, err := tc.m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s encoding digest %s, want %s (%d bytes)", tc.name, got, tc.want, len(b))
		}
	}
}

// TestCodecRejectsHugeLength overwrites the first slice length of each
// encoding with 0xFFFFFFFF. Decoding must fail on the length, bounded by
// the bytes left, instead of allocating gigabytes for it.
func TestCodecRejectsHugeLength(t *testing.T) {
	hb, _ := codecHistogram().MarshalBinary()
	// version u8, count u64, sum/min/max f64, then the bucket-count length.
	binary.LittleEndian.PutUint32(hb[1+4*8:], 0xFFFFFFFF)
	if err := new(Histogram).UnmarshalBinary(hb); err == nil {
		t.Error("histogram with a 0xFFFFFFFF bucket count decoded")
	}

	// version u8 and seven i64 scalars, then the busyPrev length (a
	// per-channel array) and its three values, then the busySeries length
	// (a growing series).
	for _, off := range []int{1 + 7*8, 1 + 7*8 + 4 + 3*8} {
		cb, _ := codecCollector().MarshalBinary()
		binary.LittleEndian.PutUint32(cb[off:], 0xFFFFFFFF)
		c := NewCollector(Config{WindowCycles: 64, MaxWindows: 4}, 3, 2, 2)
		c.EnableVCs(2)
		if err := c.UnmarshalBinary(cb); err == nil {
			t.Errorf("collector with a 0xFFFFFFFF length at offset %d decoded", off)
		}
	}
}
