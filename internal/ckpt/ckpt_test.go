package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample is a record walked by one function in both directions.
type sample struct {
	u   uint64
	i   int64
	b   bool
	f   float64
	s   string
	n   int
	n32 int32
	blk [3]byte
}

func (r *sample) walk(c *Codec) {
	c.Tag("sample")
	c.U64(&r.u)
	c.I64(&r.i)
	c.Bool(&r.b)
	c.F64(&r.f)
	c.Str(&r.s)
	c.Int(&r.n)
	c.Int32(&r.n32)
	c.Bytes(r.blk[:])
}

var want = sample{0xdeadbeefcafef00d, -42, true, 3.5, "hello, checkpoint", 7, -9, [3]byte{1, 2, 3}}

func samplePayload(t *testing.T) []byte {
	t.Helper()
	var c Codec
	r := want
	r.walk(&c)
	if r != want {
		t.Fatalf("encoding changed the record: %+v", r)
	}
	return c.Payload()
}

func TestRoundTrip(t *testing.T) {
	payload := samplePayload(t)
	sealed := Seal(3, payload)
	got, err := Open(sealed, 3)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch after round trip")
	}
	d := Decode(got)
	var r sample
	r.walk(d)
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
	if r != want {
		t.Errorf("decoded %+v, want %+v", r, want)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d undecoded bytes", d.Remaining())
	}
	// The 8-byte Int32 truncates a value wider than 32 bits.
	var wide Codec
	big := 1<<40 | 5
	wide.Int(&big)
	var n32 int32
	Decode(wide.Payload()).Int32(&n32)
	if n32 != 5 {
		t.Errorf("Int32 of 2^40+5 = %d, want 5", n32)
	}
}

// TestGrow: reserving room changes no encoded byte and makes the
// reserved appends allocation-free; a decoder ignores it.
func TestGrow(t *testing.T) {
	var c Codec
	r := want
	r.walk(&c)
	one := len(c.Payload())
	// AllocsPerRun walks twice: once to warm up, once measured.
	c.Grow(2 * one)
	if allocs := testing.AllocsPerRun(1, func() {
		r := want
		r.walk(&c)
	}); allocs != 0 {
		t.Errorf("walking into reserved room allocated %.0f times", allocs)
	}
	if want := bytes.Repeat(samplePayload(t), 3); !bytes.Equal(c.Payload(), want) {
		t.Error("Grow changed the encoding")
	}
	p := samplePayload(t)
	d := Decode(p[:len(p):len(p)])
	d.Grow(1 << 20)
	if cap(d.Payload()) != len(p) {
		t.Error("Grow resized a decoder's payload")
	}
}

// TestTruncationEveryPrefix mirrors the trace-journal suite: every
// proper prefix of a sealed container must fail loudly, never decode.
func TestTruncationEveryPrefix(t *testing.T) {
	sealed := Seal(1, samplePayload(t))
	for n := 0; n < len(sealed); n++ {
		if _, err := Open(sealed[:n], 1); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(sealed))
		}
	}
}

// TestFlippedByteSweep flips every bit of every byte in turn; the CRC
// (or an earlier structural check) must reject each corruption.
func TestFlippedByteSweep(t *testing.T) {
	sealed := Seal(1, samplePayload(t))
	for i := range sealed {
		for bit := uint(0); bit < 8; bit++ {
			corrupt := bytes.Clone(sealed)
			corrupt[i] ^= 1 << bit
			if _, err := Open(corrupt, 1); err == nil {
				t.Fatalf("flipping bit %d of byte %d went undetected", bit, i)
			}
		}
	}
}

func TestVersionMismatch(t *testing.T) {
	sealed := Seal(2, samplePayload(t))
	_, err := Open(sealed, 1)
	if err == nil {
		t.Fatalf("version 2 container accepted by version-1 reader")
	}
	if !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "want 1") {
		t.Fatalf("version mismatch error not clear: %v", err)
	}
	// The version probe, by contrast, reads it fine.
	if v, err := Version(sealed); err != nil || v != 2 {
		t.Fatalf("Version = %d, %v", v, err)
	}
}

func TestBadMagic(t *testing.T) {
	sealed := Seal(1, samplePayload(t))
	copy(sealed, "NOPE")
	if _, err := Open(sealed, 1); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected clearly: %v", err)
	}
}

// TestDecoderHostileInput drives the decoder over garbage: it must latch
// errors, never panic, and keep storing zero values.
func TestDecoderHostileInput(t *testing.T) {
	d := Decode([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	s := "x"
	if d.Str(&s); s != "" || d.Err() == nil {
		t.Fatalf("oversized string length accepted: %q, %v", s, d.Err())
	}
	// After the latch, every read stores a zero value.
	u, b, n := uint64(1), true, 1
	d.U64(&u)
	d.Bool(&b)
	d.Int(&n)
	if u != 0 || b || n != 0 {
		t.Fatalf("reads stored non-zero values after error latch")
	}

	d = Decode([]byte{7})
	if d.Bool(&b); d.Err() == nil {
		t.Fatalf("malformed bool byte accepted")
	}

	d = Decode(nil)
	d.Tag("x")
	if d.Err() == nil {
		t.Fatalf("tag read from empty payload succeeded")
	}

	var e Codec
	n = 1 << 40
	e.Int(&n)
	d = Decode(e.Payload())
	if d.Count(&n); d.Err() == nil || n != 0 {
		t.Fatalf("absurd element count accepted: %d", n)
	}

	// A size that differs from the structure's stops the walk.
	e = Codec{}
	n = 4
	e.Int(&n)
	d = Decode(e.Payload())
	if d.Size(8, "table") || d.Err() == nil || !strings.Contains(d.Err().Error(), "table mismatch: checkpoint has 4") {
		t.Fatalf("size mismatch accepted: %v", d.Err())
	}
}

func TestTagMismatch(t *testing.T) {
	var e Codec
	e.Tag("srsmt")
	d := Decode(e.Payload())
	d.Tag("rename")
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "srsmt") {
		t.Fatalf("tag mismatch not reported clearly: %v", err)
	}
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.civk")
	payload := samplePayload(t)
	if err := WriteFile(path, Seal(1, payload)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path, 1)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch through file round trip")
	}
	// No stray temporaries left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want just the checkpoint", len(ents))
	}
}

// TestRaw: Raw returns the next n bytes as encoded and advances past
// them; a block past the payload end (or a negative length) latches an
// error instead of panicking.
func TestRaw(t *testing.T) {
	var e Codec
	one, word, nine := uint8(1), uint32(0x04030201), uint8(9)
	e.U8(&one)
	e.U32(&word)
	e.U8(&nine)
	d := Decode(e.Payload())
	var v uint8
	d.U8(&v)
	if off := d.Offset(); off != 1 {
		t.Fatalf("Offset = %d, want 1", off)
	}
	if b := d.Raw(4); !bytes.Equal(b, []byte{1, 2, 3, 4}) {
		t.Fatalf("Raw(4) = %v", b)
	}
	if d.U8(&v); v != 9 || d.Err() != nil {
		t.Fatalf("read after Raw = %d, %v", v, d.Err())
	}

	d = Decode(e.Payload())
	if b := d.Raw(7); b != nil || d.Err() == nil || !strings.Contains(d.Err().Error(), "need 7 bytes at offset 0, have 6") {
		t.Fatalf("Raw past the end = %v, %v", b, d.Err())
	}
	d = Decode(e.Payload())
	if b := d.Raw(-1); b != nil || d.Err() == nil {
		t.Fatalf("Raw(-1) = %v, %v", b, d.Err())
	}
}
