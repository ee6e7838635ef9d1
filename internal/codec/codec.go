// Package codec is the little-endian binary codec behind simulator
// checkpoints and the metrics state encodings (docs/CHECKPOINT.md).
//
// One Codec either writes or reads, and the same walk over an object's
// fields serves both directions, so every encoded field is named exactly
// once: in write mode each call appends the value its pointer refers to,
// in read mode it overwrites that value from the input. A walk that must
// validate what it read compares after the call; in write mode the value
// is unchanged, so the comparison holds trivially.
//
// Reads are sticky: after the first short or malformed read every later
// call is a no-op, values stay as they were, and Err reports the first
// failure. Every length prefix is a uint32 bounded by the bytes left, so
// a corrupt prefix cannot drive a large allocation.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec is one encoding or decoding pass over a byte buffer.
type Codec struct {
	buf     []byte
	off     int
	reading bool
	err     error
}

// NewWriter returns a write-mode Codec with capacity bytes preallocated.
func NewWriter(capacity int) *Codec { return &Codec{buf: make([]byte, 0, capacity)} }

// NewReader returns a read-mode Codec over data.
func NewReader(data []byte) *Codec { return &Codec{buf: data, reading: true} }

// Reading reports whether the Codec decodes (true) or encodes (false).
func (c *Codec) Reading() bool { return c.reading }

// Err returns the first failure, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records err as the pass's failure unless one is already recorded.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Failf records a formatted failure unless one is already recorded.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Bytes returns the encoded bytes of a write pass, or its failure.
func (c *Codec) Bytes() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	return c.buf, nil
}

// Done ends a read pass: it returns the first failure, or an error when
// input is left over.
func (c *Codec) Done() error {
	if c.err == nil && c.off != len(c.buf) {
		c.err = fmt.Errorf("codec: %d trailing bytes after the encoded state", len(c.buf)-c.off)
	}
	return c.err
}

// take consumes n bytes of input, or records a truncation failure.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf)-c.off {
		c.err = fmt.Errorf("codec: truncated input at offset %d (need %d of %d bytes)", c.off, n, len(c.buf))
		return nil
	}
	b := c.buf[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// Magic codes a fixed tag; reading any other bytes is a failure.
func (c *Codec) Magic(tag string) {
	if !c.reading {
		c.buf = append(c.buf, tag...)
		return
	}
	if b := c.take(len(tag)); b != nil && string(b) != tag {
		c.Failf("codec: bad magic %q, want %q", b, tag)
	}
}

// U8 codes one byte.
func (c *Codec) U8(v *uint8) {
	if !c.reading {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// U16 codes two bytes.
func (c *Codec) U16(v *uint16) {
	if !c.reading {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	}
}

// U32 codes four bytes.
func (c *Codec) U32(v *uint32) {
	if !c.reading {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// U64 codes eight bytes.
func (c *Codec) U64(v *uint64) {
	if !c.reading {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// I16 codes an int16 as two bytes.
func (c *Codec) I16(v *int16) {
	u := uint16(*v)
	c.U16(&u)
	if c.reading {
		*v = int16(u)
	}
}

// I32 codes an int32 as four bytes.
func (c *Codec) I32(v *int32) {
	u := uint32(*v)
	c.U32(&u)
	if c.reading {
		*v = int32(u)
	}
}

// I64 codes an int64 as eight bytes.
func (c *Codec) I64(v *int64) {
	u := uint64(*v)
	c.U64(&u)
	if c.reading {
		*v = int64(u)
	}
}

// Int codes an int as eight bytes.
func (c *Codec) Int(v *int) {
	u := uint64(*v)
	c.U64(&u)
	if c.reading {
		*v = int(u)
	}
}

// F64 codes a float64 by its IEEE-754 bits.
func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	if c.reading {
		*v = math.Float64frombits(u)
	}
}

// Bool codes a bool as one byte; any non-zero byte reads as true.
func (c *Codec) Bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.U8(&u)
	if c.reading {
		*v = u != 0
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(v *string) {
	n := c.Len(len(*v))
	if !c.reading {
		c.buf = append(c.buf, *v...)
	} else if b := c.take(n); b != nil {
		*v = string(b)
	}
}

// Len codes a length prefix: writing n, or reading one and checking it
// against the bytes left (every element of a sequence takes at least one
// byte). A failed read returns 0.
func (c *Codec) Len(n int) int {
	u := uint32(n)
	if !c.reading && n != int(u) {
		c.Failf("codec: length %d does not fit the uint32 prefix", n)
	}
	c.U32(&u)
	if c.reading && c.err == nil && int64(u) > int64(len(c.buf)-c.off) {
		c.Failf("codec: length %d exceeds the %d bytes left", u, len(c.buf)-c.off)
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// Slice codes a length-prefixed slice, each element with elem. Reading
// resizes *s to the decoded length, reusing its backing array when it is
// large enough, so a nil slice stays nil when the length is zero.
func Slice[S ~[]E, E any](c *Codec, s *S, elem func(*E)) {
	n := c.Len(len(*s))
	if c.reading {
		if cap(*s) >= n {
			*s = (*s)[:n]
		} else {
			*s = make(S, n)
		}
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// Fixed codes a length-prefixed slice whose length the reader already
// knows, such as one sized from the configuration: reading a different
// length is a failure naming what, and s is coded in place.
func Fixed[E any](c *Codec, s []E, what string, elem func(*E)) {
	if n := c.Len(len(s)); n != len(s) {
		c.Failf("codec: %d %s, want %d", n, what, len(s))
		return
	}
	for i := range s {
		elem(&s[i])
	}
}
