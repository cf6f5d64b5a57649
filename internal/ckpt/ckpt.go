// Package ckpt implements the CIVK checkpoint container: the versioned,
// CRC-protected envelope every civect checkpoint (full-machine processor
// state, sample state) is stored in, plus the flat little-endian Codec
// the state serializers are written against.
//
// The container mirrors the CIVT trace journal's robustness discipline:
// a magic number so foreign files fail immediately, an explicit format
// version so incompatible readers reject with a clear error instead of
// misparsing, a declared payload length so truncation is detected before
// decoding starts, and a CRC32 over header and payload so any flipped
// byte is caught. Decoding never panics on hostile input: every read
// is bounds-checked and the first failure latches into the codec's
// error state.
//
//	offset  size  field
//	0       4     magic "CIVK"
//	4       4     format version (little-endian uint32)
//	8       8     payload length (little-endian uint64)
//	16      n     payload
//	16+n    4     CRC32 (IEEE) over bytes [0, 16+n)
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Magic identifies a CIVK checkpoint container.
const Magic = "CIVK"

const (
	headerSize  = 16
	trailerSize = 4
)

// Codec walks a payload in one direction. The zero value encodes,
// appending to its buffer; Decode returns one that decodes a payload.
// Every primitive takes a pointer: encoding writes the value it points
// to, decoding stores into it. A structure's serializer is therefore
// one walk that both saves and loads it, and each field's position in
// the format is written once. Decoding never panics on hostile input:
// every read is bounds-checked, and the first failure latches, after
// which reads store zero values, so a walk can run to completion and
// check Err once.
type Codec struct {
	buf []byte
	off int
	err error
	dec bool
}

// Decode returns a codec that decodes payload.
func Decode(payload []byte) *Codec { return &Codec{buf: payload, dec: true} }

// Decoding reports the walk's direction.
func (c *Codec) Decoding() bool { return c.dec }

// Payload returns the bytes encoded so far or, decoding, the whole
// payload.
func (c *Codec) Payload() []byte { return c.buf }

// Err returns the first decoding error, if any.
func (c *Codec) Err() error { return c.err }

// Remaining returns the number of undecoded bytes.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// Offset returns the payload offset of the next undecoded byte, so a
// walk that validates a Raw block can name the exact offset of a bad
// byte.
func (c *Codec) Offset() int { return c.off }

// Fail latches an error from a walk that decoded a structurally valid
// but semantically impossible value (an out-of-range index, a geometry
// mismatch). The first latched error wins.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf)-c.off {
		c.Fail("payload truncated: need %d bytes at offset %d, have %d", n, c.off, len(c.buf)-c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U64 walks a uint64, little-endian.
func (c *Codec) U64(v *uint64) {
	if c.dec {
		*v = c.get(8)
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
}

// U32 walks a uint32, little-endian.
func (c *Codec) U32(v *uint32) {
	if c.dec {
		*v = uint32(c.get(4))
		return
	}
	c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
}

// U8 walks a single byte.
func (c *Codec) U8(v *uint8) {
	if c.dec {
		*v = uint8(c.get(1))
		return
	}
	c.buf = append(c.buf, *v)
}

// get decodes an n-byte little-endian value (n is 1, 4 or 8), or 0
// once an error has latched. It is out of line so that the primitives'
// encoding halves inline.
func (c *Codec) get(n int) uint64 {
	switch b := c.take(n); len(b) {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 1:
		return uint64(b[0])
	}
	return 0
}

// I64 walks an int64 as its two's-complement uint64.
func (c *Codec) I64(v *int64) {
	x := uint64(*v)
	c.U64(&x)
	if c.dec {
		*v = int64(x)
	}
}

// Int walks an int as an int64.
func (c *Codec) Int(v *int) {
	x := uint64(*v)
	c.U64(&x)
	if c.dec {
		*v = int(int64(x))
	}
}

// Int32 walks an int32 at the int64 width Int uses, so a field that
// narrowed in memory keeps its place in the format. Decoding truncates.
func (c *Codec) Int32(v *int32) {
	x := uint64(*v)
	c.U64(&x)
	if c.dec {
		*v = int32(x)
	}
}

// Bool walks a bool as one byte. Decoding rejects any byte other than
// 0 or 1.
func (c *Codec) Bool(v *bool) {
	if c.dec {
		c.getBool(v)
	} else if *v {
		c.buf = append(c.buf, 1)
	} else {
		c.buf = append(c.buf, 0)
	}
}

func (c *Codec) getBool(v *bool) {
	b := c.get(1)
	if b > 1 {
		c.Fail("malformed bool at offset %d", c.off-1)
	}
	*v = b == 1
}

// F64 walks a float64 by its IEEE-754 bit pattern, so round-tripping
// is exact.
func (c *Codec) F64(v *float64) {
	x := math.Float64bits(*v)
	c.U64(&x)
	if c.dec {
		*v = math.Float64frombits(x)
	}
}

// Str walks a length-prefixed string.
func (c *Codec) Str(v *string) {
	n := uint32(len(*v))
	c.U32(&n)
	if !c.dec {
		c.buf = append(c.buf, *v...)
		return
	}
	if c.err == nil && uint64(n) > uint64(c.Remaining()) {
		c.Fail("string length %d exceeds remaining payload %d", n, c.Remaining())
	}
	*v = string(c.take(int(n)))
}

// Tag walks a section marker. Decoding fails unless the marker is
// name, so a walk that drifted from the bytes fails at the section
// that drifted instead of misparsing everything after it.
func (c *Codec) Tag(name string) {
	got := name
	c.Str(&got)
	if c.err == nil && got != name {
		c.Fail("section marker mismatch: have %q, want %q", got, name)
	}
}

// Count walks a non-negative element count as an Int. Decoding rejects
// a count that could not possibly fit in the remaining payload (each
// element costs at least one byte), so a corrupt length fails here
// instead of driving a huge allocation; *n is then 0.
func (c *Codec) Count(n *int) {
	c.Int(n)
	if c.dec && c.err == nil && (*n < 0 || *n > c.Remaining()) {
		c.Fail("element count %d invalid with %d bytes remaining", *n, c.Remaining())
	}
	if c.err != nil {
		*n = 0
	}
}

// Size walks the size n of a structure decoded in place: encoding
// writes n, decoding fails unless the payload's size equals it. It
// reports whether the walk may go on into the structure.
func (c *Codec) Size(n int, what string) bool {
	got := n
	c.Int(&got)
	if c.err == nil && got != n {
		c.Fail("%s mismatch: checkpoint has %d, structure has %d", what, got, n)
	}
	return c.err == nil
}

// Bytes walks a fixed-length block, such as a table of byte counters:
// encoding appends b, decoding fills it.
func (c *Codec) Bytes(b []byte) {
	if !c.dec {
		c.buf = append(c.buf, b...)
	} else if r := c.take(len(b)); r != nil {
		copy(b, r)
	}
}

// Raw returns the next n payload bytes as they were encoded, for
// decoders that decode fixed-width arrays in bulk. A block running
// past the payload latches the truncation error and returns nil. The
// bytes alias the payload and must not be modified.
func (c *Codec) Raw(n int) []byte {
	if n < 0 {
		c.Fail("negative raw length %d at offset %d", n, c.off)
		return nil
	}
	return c.take(n)
}

// Slice walks a length-prefixed slice, each element by elem. Decoding
// replaces *s with a new slice of the decoded length.
func Slice[T any](c *Codec, s *[]T, elem func(*T)) {
	n := len(*s)
	c.Count(&n)
	if c.dec {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// Seal wraps payload in a CIVK container with the given format version.
func Seal(version uint32, payload []byte) []byte {
	out := make([]byte, 0, headerSize+len(payload)+trailerSize)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out
}

// Open validates a CIVK container — magic, declared length, CRC, then
// version — and returns its payload. The payload aliases data.
func Open(data []byte, wantVersion uint32) ([]byte, error) {
	if len(data) < headerSize+trailerSize {
		return nil, fmt.Errorf("ckpt: container truncated: %d bytes, need at least %d", len(data), headerSize+trailerSize)
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %q (not a CIVK checkpoint)", data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	plen := binary.LittleEndian.Uint64(data[8:16])
	want := uint64(len(data) - headerSize - trailerSize)
	if plen != want {
		return nil, fmt.Errorf("ckpt: container truncated: declares %d payload bytes, file holds %d", plen, want)
	}
	body := data[:headerSize+plen]
	sum := binary.LittleEndian.Uint32(data[len(data)-trailerSize:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("ckpt: CRC mismatch: computed %08x, stored %08x (corrupt checkpoint)", got, sum)
	}
	if version != wantVersion {
		return nil, fmt.Errorf("ckpt: format version %d not supported (want %d)", version, wantVersion)
	}
	return body[headerSize:], nil
}

// Version reports a container's declared format version without
// validating its body (inspection tooling).
func Version(data []byte) (uint32, error) {
	if len(data) < headerSize {
		return 0, fmt.Errorf("ckpt: container truncated: %d bytes, need at least %d", len(data), headerSize)
	}
	if string(data[:4]) != Magic {
		return 0, fmt.Errorf("ckpt: bad magic %q (not a CIVK checkpoint)", data[:4])
	}
	return binary.LittleEndian.Uint32(data[4:8]), nil
}

// WriteFile atomically writes a sealed container to path: the bytes land
// in a temporary file in the same directory, which is synced, closed
// and renamed over the destination, so a crash never leaves a
// half-written checkpoint where a resume would find it.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// ReadFile reads and validates a CIVK container from path.
func ReadFile(path string, wantVersion uint32) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return Open(data, wantVersion)
}
