package mem

import (
	"math/rand"
	"strings"
	"testing"
)

// words returns n distinct nonzero words starting at first.
func words(first uint64, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = first + uint64(i)
	}
	return w
}

// TestWriteWordsMatchesWrite64: a bulk write leaves a memory reading,
// checksumming and mapping pages exactly as the same words written one
// Write64 at a time, wherever it starts and however far it reaches:
// inside a page, across one page boundary or several, from a
// misaligned address, with zero words that still map their page.
func TestWriteWordsMatchesWrite64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		addr := uint64(rng.Intn(4*pageBytes)) + uint64(rng.Intn(3))<<20
		w := make([]uint64, rng.Intn(3*pageWords))
		for i := range w {
			if rng.Intn(4) != 0 {
				w[i] = rng.Uint64()
			}
		}
		bulk, single := New(), New()
		bulk.WriteWords(addr, w)
		for i, v := range w {
			single.Write64(addr+uint64(i)*8, v)
		}
		if bulk.PagesAllocated() != single.PagesAllocated() || bulk.Checksum() != single.Checksum() {
			t.Fatalf("addr %#x, %d words: bulk maps %d pages (checksum %x), Write64 %d (%x)",
				addr, len(w), bulk.PagesAllocated(), bulk.Checksum(), single.PagesAllocated(), single.Checksum())
		}
		for i := -1; i <= len(w); i++ {
			a := addr + uint64(i)*8
			if got, want := bulk.Read64(a), single.Read64(a); got != want {
				t.Fatalf("addr %#x, %d words: word %d reads %x, want %x", addr, len(w), i, got, want)
			}
		}
	}
}

// TestWriteWordsSpansPageBoundary: a write starting two words before a
// page boundary fills the end of one page and the start of the next,
// and touches nothing around it.
func TestWriteWordsSpansPageBoundary(t *testing.T) {
	m := New()
	start := uint64(3*pageBytes - 16)
	m.WriteWords(start, words(10, 5))
	if m.PagesAllocated() != 2 {
		t.Errorf("a 5-word write across one boundary maps %d pages, want 2", m.PagesAllocated())
	}
	for i := uint64(0); i < 5; i++ {
		if got := m.Read64(start + 8*i); got != 10+i {
			t.Errorf("word %d = %d, want %d", i, got, 10+i)
		}
	}
	if m.Read64(start-8) != 0 || m.Read64(start+40) != 0 {
		t.Error("the write spilled past its words")
	}
}

// TestWriteWordsIntoCloneCopiesPage: a bulk write into a clone copies
// each shared page it lands on first, so the source's pages, and the
// words of those pages the write does not cover, are intact.
func TestWriteWordsIntoCloneCopiesPage(t *testing.T) {
	for _, freeze := range []bool{false, true} {
		src := New()
		src.WriteWords(0, words(1, 2*pageWords))
		if freeze {
			src.Freeze()
		}
		c := src.Clone()
		c.WriteWords(pageBytes-8, []uint64{100, 200})
		if src.Read64(pageBytes-8) != pageWords || src.Read64(pageBytes) != pageWords+1 {
			t.Errorf("freeze=%v: the write into the clone changed the source", freeze)
		}
		if c.Read64(pageBytes-8) != 100 || c.Read64(pageBytes) != 200 {
			t.Errorf("freeze=%v: the clone does not read its own write", freeze)
		}
		if c.Read64(0) != 1 || c.Read64(2*pageBytes-8) != 2*pageWords {
			t.Errorf("freeze=%v: the clone lost the words of a copied page the write did not cover", freeze)
		}
		for k, r := range c.pages {
			if src.pages[k].p == r.p {
				t.Errorf("freeze=%v: page %d still shared after the clone wrote it", freeze, k)
			}
		}
	}
}

// TestWriteWordsToFrozenPanics: a bulk write to a frozen image panics
// as Write64 does, on a mapped page and on an unmapped one, and leaves
// the image as it was.
func TestWriteWordsToFrozenPanics(t *testing.T) {
	for _, addr := range []uint64{0x10, 0x9000} {
		m := New()
		m.Write64(0x10, 1)
		m.Freeze()
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "frozen") {
					t.Errorf("WriteWords(%#x) on a frozen image: recovered %v, want a frozen-image panic", addr, r)
				}
			}()
			m.WriteWords(addr, []uint64{2, 3})
		}()
		if m.Read64(0x10) != 1 || m.Read64(0x18) != 0 || m.Read64(0x9000) != 0 || m.PagesAllocated() != 1 {
			t.Errorf("failed write to a frozen image changed it")
		}
	}
}

// TestWriteWordsRefreshesTLB: a read after a bulk write returns the new
// words whether the TLB held the page before the write (a read filled
// it), held another page in the same entry, or held nothing.
func TestWriteWordsRefreshesTLB(t *testing.T) {
	keys := collidingKeys(2)
	for _, warm := range []string{"same page", "colliding page", "cold"} {
		m := New()
		addr := keys[0] << pageShift
		m.WriteWords(addr, []uint64{1, 2})
		m.Write64(keys[1]<<pageShift, 9)
		c := m.Clone() // the write below must copy the page it reads
		switch warm {
		case "same page":
			c.Read64(addr)
		case "colliding page":
			c.Read64(keys[1] << pageShift)
		case "cold":
			c = m.Clone()
		}
		c.WriteWords(addr, []uint64{7, 8})
		if c.Read64(addr) != 7 || c.Read64(addr+8) != 8 {
			t.Errorf("%s: read after the bulk write = %d, %d, want 7, 8", warm, c.Read64(addr), c.Read64(addr+8))
		}
		if m.Read64(addr) != 1 || m.Read64(addr+8) != 2 {
			t.Errorf("%s: the source reads %d, %d after the clone's write, want 1, 2", warm, m.Read64(addr), m.Read64(addr+8))
		}
		// The source's TLB holds the page from the read above, under
		// the generation the Clone revoked.
		m.WriteWords(addr, []uint64{5, 6})
		if m.Read64(addr) != 5 || m.Read64(addr+8) != 6 || c.Read64(addr) != 7 {
			t.Errorf("%s: after the source's own bulk write it reads %d, %d and the clone %d, want 5, 6 and 7",
				warm, m.Read64(addr), m.Read64(addr+8), c.Read64(addr))
		}
	}
}
