// Package ckpt implements the CIVK checkpoint container: the versioned,
// CRC-protected envelope every civect checkpoint (full-machine processor
// state, emulator snapshots) is stored in, plus the flat little-endian
// encoder/decoder the state serializers are written against.
//
// The container mirrors the CIVT trace journal's robustness discipline:
// a magic number so foreign files fail immediately, an explicit format
// version so incompatible readers reject with a clear error instead of
// misparsing, a declared payload length so truncation is detected before
// decoding starts, and a CRC32 over header and payload so any flipped
// byte is caught. Decoding never panics on hostile input: every getter
// is bounds-checked and the first failure latches into the decoder's
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

// Encoder appends fixed-width little-endian primitives to a buffer. The
// zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U8 appends a single byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// I64 appends an int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends a float64 by its IEEE-754 bit pattern, so round-tripping
// is exact.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Tag appends a section marker. Decoders check tags with Decoder.Tag, so
// a serializer/deserializer mismatch fails at the section that drifted
// instead of misparsing everything after it.
func (e *Encoder) Tag(name string) { e.Str(name) }

// Decoder reads the primitives Encoder writes. The first malformed read
// latches an error; subsequent getters return zero values, so decode
// sequences can run to completion and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// Fail latches a decoding error from a state deserializer that found a
// structurally valid but semantically impossible value (an out-of-range
// index, a geometry mismatch). The first latched error wins.
func (d *Decoder) Fail(format string, args ...any) { d.fail(format, args...) }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.buf)-d.off {
		d.fail("payload truncated: need %d bytes at offset %d, have %d", n, d.off, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U8 reads a single byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads a bool. Any byte other than 0 or 1 is malformed.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("malformed bool at offset %d", d.off-1)
		return false
	}
}

// Offset returns the payload offset of the next undecoded byte, so a
// deserializer that validates a Raw block can name the exact offset
// of a bad byte.
func (d *Decoder) Offset() int { return d.off }

// Raw returns the next n payload bytes as they were encoded, for
// deserializers that decode fixed-width arrays in bulk. A block
// running past the payload latches the truncation error and returns
// nil. The bytes alias the payload and must not be modified.
func (d *Decoder) Raw(n int) []byte {
	if n < 0 {
		d.fail("negative raw length %d at offset %d", n, d.off)
		return nil
	}
	return d.take(n)
}

// F64 reads a float64 written by Encoder.F64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U32()
	if d.err != nil {
		return ""
	}
	if uint64(n) > uint64(d.Remaining()) {
		d.fail("string length %d exceeds remaining payload %d", n, d.Remaining())
		return ""
	}
	return string(d.take(int(n)))
}

// Tag reads a section marker and fails unless it matches want.
func (d *Decoder) Tag(want string) {
	got := d.Str()
	if d.err == nil && got != want {
		d.fail("section marker mismatch: have %q, want %q", got, want)
	}
}

// Count reads a non-negative element count written by Encoder.Int and
// rejects counts that could not possibly fit in the remaining payload
// (each element costs at least one byte), so corrupt lengths fail here
// instead of driving a huge allocation.
func (d *Decoder) Count() int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > d.Remaining() {
		d.fail("element count %d invalid with %d bytes remaining", n, d.Remaining())
		return 0
	}
	return n
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
// in a temporary file in the same directory which is renamed over the
// destination, so a crash mid-write never leaves a half-written
// checkpoint where a resume would find it.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
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
