package cache

import (
	"bytes"
	"fmt"
	"testing"

	"civect/internal/ckpt"
)

// TestLoadStateRoundTrip: the bulk line decoder restores exactly what
// SaveState wrote, and a valid or dirty byte other than 0 or 1 is
// rejected with its exact payload offset.
func TestLoadStateRoundTrip(t *testing.T) {
	src := New(small())
	for i := uint64(0); i < 40; i++ {
		src.Access(i*48, i%3 == 0)
	}
	var e ckpt.Encoder
	src.SaveState(&e)
	enc := e.Bytes()

	dst := New(small())
	d := ckpt.NewDecoder(enc)
	dst.LoadState(d)
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("LoadState: %v, %d bytes left", d.Err(), d.Remaining())
	}
	var again ckpt.Encoder
	dst.SaveState(&again)
	if !bytes.Equal(again.Bytes(), enc) {
		t.Fatal("loaded cache re-encodes differently")
	}

	// Tag "cache" (4+5 bytes) and the line count (8) precede the lines;
	// each line is tag(8) valid(1) dirty(1) lru(8).
	const lines, lineBytes = 17, 18
	for _, off := range []int{lines + 8, lines + 3*lineBytes + 9} {
		bad := append([]byte(nil), enc...)
		bad[off] = 2
		d := ckpt.NewDecoder(bad)
		New(small()).LoadState(d)
		if err, want := d.Err(), fmt.Sprintf("ckpt: malformed bool at offset %d", off); err == nil || err.Error() != want {
			t.Errorf("bad bool at %d: err = %v", off, err)
		}
	}
}
