package mem

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"civect/internal/ckpt"
)

// refMem is the reference model for copy-on-write: a plain deep copy.
type refMem map[uint64]uint64

func (r refMem) clone() refMem {
	c := make(refMem, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// checksum mirrors Memory.Checksum over the model.
func (r refMem) checksum() uint64 {
	m := New()
	for a, v := range r {
		m.Write64(a, v)
	}
	return m.Checksum()
}

// collidingKeys returns the n smallest page keys sharing page 0's TLB
// entry, so that accesses alternating between them miss every time.
func collidingKeys(n int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if tlbSlot(k) == tlbSlot(0) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCopyOnWriteMatchesDeepCopy is the copy-on-write differential: a
// source, its clone and a clone of the clone receive interleaved random
// writes (clustered on a few pages, half of them sharing one TLB entry,
// so they collide on shared pages and evict each other's TLB entries),
// with further clones taken, memories frozen and memories replaced by
// their LoadDelta(SaveDelta) round trip mid-sequence, and every memory
// must read and checksum exactly as an independent deep copy taken at
// the same moment does. A write aimed at a frozen memory lands on a
// fresh clone of it, as runs write clones of frozen images. This
// enforces the invariant that a page reachable from two memories is
// never written in place, and that no TLB entry outlives the page-table
// entry it caches.
func TestCopyOnWriteMatchesDeepCopy(t *testing.T) {
	pages := append([]uint64{1, 2, 3}, collidingKeys(3)...)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addr := func() uint64 {
			return pages[rng.Intn(len(pages))]<<pageShift | uint64(rng.Intn(pageWords))<<wordShift
		}
		src, ref := New(), refMem{}
		for i := 0; i < 200; i++ {
			a, v := addr(), rng.Uint64()
			src.Write64(a, v)
			ref[a] = v
		}
		var base *Memory // the base checkpoints encode against
		if seed%2 == 0 {
			src.Freeze() // workload images are frozen; the rest behave alike
			base = src
		}
		mems := []*Memory{src, src.Clone()}
		refs := []refMem{ref, ref.clone()}
		mems = append(mems, mems[1].Clone())
		refs = append(refs, refs[1].clone())

		for step := 0; step < 3000; step++ {
			i := rng.Intn(len(mems))
			switch op := rng.Intn(40); {
			case op == 0 && len(mems) < 8:
				mems = append(mems, mems[i].Clone())
				refs = append(refs, refs[i].clone())
			case op == 1 && rng.Intn(4) == 0:
				mems[i].Freeze()
			case op == 2:
				var e ckpt.Encoder
				mems[i].SaveDelta(&e, base)
				d := ckpt.NewDecoder(e.Bytes())
				back := LoadDelta(d, base)
				if err := d.Err(); err != nil || d.Remaining() != 0 {
					t.Fatalf("seed %d step %d: LoadDelta(SaveDelta(memory %d)): err %v, %d bytes left", seed, step, i, err, d.Remaining())
				}
				mems[i] = back
			case op < 10:
				a := addr()
				if got, want := mems[i].Read64(a), refs[i][a]; got != want {
					t.Fatalf("seed %d step %d: memory %d Read64(%#x) = %#x, deep copy has %#x", seed, step, i, a, got, want)
				}
			default:
				if mems[i].frozen {
					mems[i] = mems[i].Clone()
				}
				a, v := addr(), rng.Uint64()
				mems[i].Write64(a, v)
				refs[i][a] = v
			}
		}
		for i := range mems {
			for a, v := range refs[i] {
				if got := mems[i].Read64(a); got != v {
					t.Fatalf("seed %d: memory %d Read64(%#x) = %#x, deep copy has %#x", seed, i, a, got, v)
				}
			}
			if got, want := mems[i].Checksum(), refs[i].checksum(); got != want {
				t.Fatalf("seed %d: memory %d checksum %#x, deep copy %#x", seed, i, got, want)
			}
		}
	}
}

// TestSaveDeltaSharedPagesDifferential: SaveDelta's no-scan skip of
// pages still shared with the base must not change a byte. A clone of a
// frozen base takes random writes (to shared pages, to new pages, and
// some writing back the base's own values) and must encode exactly as a
// deep copy of its contents that shares no page with the base; decoding
// must rebuild the same contents.
func TestSaveDeltaSharedPagesDifferential(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addr := func() uint64 {
			return uint64(rng.Intn(24))<<pageShift | uint64(rng.Intn(pageWords))<<wordShift
		}
		base := New()
		for i := 0; i < 4000; i++ {
			base.Write64(addr(), rng.Uint64())
		}
		base.Freeze()
		m := base.Clone()
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			a := addr()
			switch rng.Intn(4) {
			case 0:
				m.Write64(a, base.Read64(a)) // a write that changes nothing
			case 1:
				m.Write64(a, 0)
			default:
				m.Write64(a, rng.Uint64())
			}
		}
		deep := New()
		for k := range m.pages {
			for i := uint64(0); i < pageWords; i++ {
				a := k<<pageShift | i<<wordShift
				deep.Write64(a, m.Read64(a))
			}
		}
		enc := func(mm *Memory) []byte {
			var e ckpt.Encoder
			mm.SaveDelta(&e, base)
			return e.Bytes()
		}
		got, want := enc(m), enc(deep)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: SaveDelta of a copy-on-write clone (%d bytes) differs from a deep copy's (%d bytes)", seed, len(got), len(want))
		}
		d := ckpt.NewDecoder(got)
		back := LoadDelta(d, base)
		if err := d.Err(); err != nil || d.Remaining() != 0 {
			t.Fatalf("seed %d: LoadDelta: err %v, %d bytes left", seed, err, d.Remaining())
		}
		if back.Checksum() != m.Checksum() {
			t.Fatalf("seed %d: LoadDelta rebuilt different contents", seed)
		}
	}
}

// TestCloneSharesUntouchedPages pins the cost model: a clone shares
// every page with its source, and a write copies exactly the page it
// lands on.
func TestCloneSharesUntouchedPages(t *testing.T) {
	src := New()
	for pg := uint64(0); pg < 4; pg++ {
		src.Write64(pg<<pageShift, pg+1)
	}
	src.Freeze()
	c := src.Clone()
	for k, r := range c.pages {
		if src.pages[k].p != r.p {
			t.Fatalf("page %d copied by Clone", k)
		}
	}
	c.Write64(2<<pageShift+8, 99)
	for k, r := range c.pages {
		if shared := src.pages[k].p == r.p; shared == (k == 2) {
			t.Errorf("page %d: shared=%v after writing page 2", k, shared)
		}
	}
	if src.Read64(2<<pageShift+8) != 0 || src.Read64(2<<pageShift) != 3 || c.Read64(2<<pageShift) != 3 {
		t.Error("copy-on-write lost or leaked page contents")
	}
}

// TestWriteToFrozenPanics: a frozen image is shared by concurrent
// readers, so a write to it is a programming error and must fail
// loudly rather than corrupt every clone.
func TestWriteToFrozenPanics(t *testing.T) {
	for _, addr := range []uint64{0x10, 0x9000} { // a mapped page, an unmapped one
		m := New()
		m.Write64(0x10, 1)
		m.Freeze()
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "frozen") {
					t.Errorf("Write64(%#x) on a frozen image: recovered %v, want a frozen-image panic", addr, r)
				}
			}()
			m.Write64(addr, 2)
		}()
		if m.Read64(0x10) != 1 || m.Read64(0x9000) != 0 {
			t.Errorf("failed write to a frozen image changed it")
		}
	}
}

// TestConcurrentClonesRaceFree clones one frozen image from two
// goroutines while each writes its own clones (as the harness's workers
// do with Benchmark.NewMem), and also clones an unfrozen memory nobody
// writes; run under -race this must report nothing, and every clone must
// see only its own writes.
func TestConcurrentClonesRaceFree(t *testing.T) {
	img := New()
	for i := uint64(0); i < 64; i++ {
		img.Write64(i<<pageShift, i)
	}
	idle := img.Clone()
	img.Freeze()
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for _, src := range []*Memory{img, idle} {
					c := src.Clone()
					for i := uint64(0); i < 64; i += 3 {
						c.Write64(i<<pageShift, uint64(g*1000+round))
					}
					for i := uint64(0); i < 64; i++ {
						want := i
						if i%3 == 0 {
							want = uint64(g*1000 + round)
						}
						if got := c.Read64(i << pageShift); got != want {
							errs <- "clone saw another clone's write"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for i := uint64(0); i < 64; i++ {
		if img.Read64(i<<pageShift) != i || idle.Read64(i<<pageShift) != i {
			t.Fatalf("clone writes leaked into a source at page %d", i)
		}
	}
}

// TestConcurrentReadsOfFrozenImage: a frozen image never fills its TLB,
// so eight goroutines may read and clone it at once (run under -race),
// each reading through its own clone's TLB as well.
func TestConcurrentReadsOfFrozenImage(t *testing.T) {
	keys := append(collidingKeys(4), 1, 2, 3, 4)
	img := New()
	for _, k := range keys {
		img.Write64(k<<pageShift|8, k+1)
	}
	img.Freeze()
	var wg sync.WaitGroup
	for g := uint64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := uint64(0); round < 100; round++ {
				c := img.Clone()
				for _, k := range keys {
					a := k<<pageShift | 8
					if img.Read64(a) != k+1 || c.Read64(a) != k+1 {
						t.Errorf("goroutine %d: page %d read wrong before any write", g, k)
						return
					}
					c.Write64(a, g<<32|round)
					if c.Read64(a) != g<<32|round || img.Read64(a) != k+1 {
						t.Errorf("goroutine %d: a clone's write leaked or was lost at page %d", g, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestOwnedPageAccessAllocFree: reads and writes of pages a memory
// already owns allocate nothing, on TLB hits and on misses served by the
// page table (the two keys share one TLB entry).
func TestOwnedPageAccessAllocFree(t *testing.T) {
	keys := collidingKeys(2)
	img := New()
	img.Write64(keys[0]<<pageShift, 1)
	img.Freeze()
	m := img.Clone()
	for _, k := range keys {
		m.Write64(k<<pageShift, 2) // take ownership before measuring
	}
	for name, ks := range map[string][]uint64{"hit": keys[:1], "miss": keys} {
		allocs := testing.AllocsPerRun(100, func() {
			var sum uint64
			for _, k := range ks {
				sum += m.Read64(k<<pageShift | 16)
			}
			for _, k := range ks {
				m.Write64(k<<pageShift|16, sum)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Read64+Write64 on owned pages allocated %.1f times per run", name, allocs)
		}
	}
}
