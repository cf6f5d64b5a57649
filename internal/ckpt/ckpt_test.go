package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func samplePayload(t *testing.T) []byte {
	t.Helper()
	var e Encoder
	e.Tag("sample")
	e.U64(0xdeadbeefcafef00d)
	e.I64(-42)
	e.Bool(true)
	e.F64(3.5)
	e.Str("hello, checkpoint")
	e.Int(7)
	return e.Bytes()
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
	d := NewDecoder(got)
	d.Tag("sample")
	if v := d.U64(); v != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Bool(); !v {
		t.Errorf("Bool = false")
	}
	if v := d.F64(); v != 3.5 {
		t.Errorf("F64 = %v", v)
	}
	if v := d.Str(); v != "hello, checkpoint" {
		t.Errorf("Str = %q", v)
	}
	if v := d.Int(); v != 7 {
		t.Errorf("Int = %d", v)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d undecoded bytes", d.Remaining())
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
// errors, never panic, and keep returning zero values.
func TestDecoderHostileInput(t *testing.T) {
	d := NewDecoder([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	if s := d.Str(); s != "" || d.Err() == nil {
		t.Fatalf("oversized string length accepted: %q, %v", s, d.Err())
	}
	// After the latch, every getter is a zero-valued no-op.
	if d.U64() != 0 || d.Bool() || d.Int() != 0 {
		t.Fatalf("getters returned non-zero after error latch")
	}

	d = NewDecoder([]byte{7})
	if d.Bool(); d.Err() == nil {
		t.Fatalf("malformed bool byte accepted")
	}

	d = NewDecoder(nil)
	d.Tag("x")
	if d.Err() == nil {
		t.Fatalf("tag read from empty payload succeeded")
	}

	var e Encoder
	e.Int(1 << 40)
	d = NewDecoder(e.Bytes())
	if d.Count(); d.Err() == nil {
		t.Fatalf("absurd element count accepted")
	}
}

func TestTagMismatch(t *testing.T) {
	var e Encoder
	e.Tag("srsmt")
	d := NewDecoder(e.Bytes())
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
	var e Encoder
	e.U8(1)
	e.U32(0x04030201)
	e.U8(9)
	d := NewDecoder(e.Bytes())
	d.U8()
	if off := d.Offset(); off != 1 {
		t.Fatalf("Offset = %d, want 1", off)
	}
	if b := d.Raw(4); !bytes.Equal(b, []byte{1, 2, 3, 4}) {
		t.Fatalf("Raw(4) = %v", b)
	}
	if v := d.U8(); v != 9 || d.Err() != nil {
		t.Fatalf("read after Raw = %d, %v", v, d.Err())
	}

	d = NewDecoder(e.Bytes())
	if b := d.Raw(7); b != nil || d.Err() == nil || !strings.Contains(d.Err().Error(), "need 7 bytes at offset 0, have 6") {
		t.Fatalf("Raw past the end = %v, %v", b, d.Err())
	}
	d = NewDecoder(e.Bytes())
	if b := d.Raw(-1); b != nil || d.Err() == nil {
		t.Fatalf("Raw(-1) = %v, %v", b, d.Err())
	}
}
