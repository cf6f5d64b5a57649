package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"civect/internal/bpred"
	"civect/internal/cache"
	"civect/internal/ckpt"
	"civect/internal/stride"
	"civect/internal/workload"
)

// TestAdoptWarmStateCopiesExactly: the transplant copies each warmed
// structure field for field, so the adopted structure serializes to the
// same bytes as its source; a structure passed as nil stays cold; and a
// geometry mismatch is refused with the structure named.
func TestAdoptWarmStateCopiesExactly(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCI)
	fresh := func() *Proc {
		p, err := New(cfg, wl.Program, wl.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	g := bpred.NewGshare(cfg.GshareEntries)
	mbs := bpred.NewMBS(cfg.MBSSets, cfg.MBSAssoc)
	sp := stride.New(cfg.StrideSets, cfg.StrideAssoc)
	l1i, l1d, l2 := cache.New(cfg.Hier.L1I), cache.New(cfg.Hier.L1D), cache.New(cfg.Hier.L2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		pc, addr := uint64(rng.Intn(4096)), uint64(rng.Intn(1<<22))&^7
		g.Update(pc, rng.Intn(3) == 0)
		mbs.Update(pc, rng.Intn(3) == 0)
		sp.Observe(pc, addr)
		l1i.Access(pc*InstBytes, false)
		l1d.Access(addr, rng.Intn(4) == 0)
		l2.Access(addr, false)
	}

	p := fresh()
	if err := p.AdoptWarmState(g, mbs, sp, l1i, l1d, l2, nil); err != nil {
		t.Fatal(err)
	}
	enc := func(save func(*ckpt.Encoder)) []byte {
		var e ckpt.Encoder
		save(&e)
		return e.Bytes()
	}
	cold := fresh()
	for _, c := range []struct {
		name      string
		got, want func(*ckpt.Encoder)
	}{
		{"gshare", p.bp.SaveState, g.SaveState},
		{"mbs", p.mbs.SaveState, mbs.SaveState},
		{"stride", p.sp.SaveState, sp.SaveState},
		{"l1i", p.hier.L1I.SaveState, l1i.SaveState},
		{"l1d", p.hier.L1D.SaveState, l1d.SaveState},
		{"l2", p.hier.L2.SaveState, l2.SaveState},
		{"l3 (nil: stays cold)", p.hier.L3.SaveState, cold.hier.L3.SaveState},
	} {
		if !bytes.Equal(enc(c.got), enc(c.want)) {
			t.Errorf("%s: adopted state differs from its source", c.name)
		}
	}

	if err := fresh().AdoptWarmState(bpred.NewGshare(cfg.GshareEntries/2), nil, nil, nil, nil, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "gshare size mismatch") {
		t.Errorf("mismatched gshare: err = %v, want a size mismatch", err)
	}
	if err := fresh().AdoptWarmState(nil, nil, nil, nil, nil, l1d, nil); err == nil ||
		!strings.Contains(err.Error(), "cache geometry mismatch") {
		t.Errorf("L1D state into L2: err = %v, want a geometry mismatch", err)
	}
	if err := p.AdoptWarmState(nil, nil, nil, nil, nil, nil, nil); err != nil {
		t.Errorf("adopting nothing before the first cycle: %v", err)
	}
	p.Step()
	if err := p.AdoptWarmState(g, nil, nil, nil, nil, nil, nil); err == nil {
		t.Error("AdoptWarmState after the first cycle succeeded")
	}
}

// TestLoadWarmStateMatchesAdopt: decoding the warm structures straight
// into a fresh machine leaves it in the same state as adopting them,
// consumes exactly their sections, latches truncation, and is refused
// once the machine has run.
func TestLoadWarmStateMatchesAdopt(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCI)
	fresh := func() *Proc {
		p, err := New(cfg, wl.Program, wl.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	g := bpred.NewGshare(cfg.GshareEntries)
	mbs := bpred.NewMBS(cfg.MBSSets, cfg.MBSAssoc)
	sp := stride.New(cfg.StrideSets, cfg.StrideAssoc)
	l1i, l1d := cache.New(cfg.Hier.L1I), cache.New(cfg.Hier.L1D)
	l2, l3 := cache.New(cfg.Hier.L2), cache.New(cfg.Hier.L3)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20_000; i++ {
		pc, addr := uint64(rng.Intn(4096)), uint64(rng.Intn(1<<24))&^7
		g.Update(pc, rng.Intn(3) == 0)
		mbs.Update(pc, rng.Intn(3) == 0)
		sp.Observe(pc, addr)
		l1i.Access(pc*InstBytes, false)
		l1d.Access(addr, rng.Intn(4) == 0)
		l2.Access(addr, false)
		l3.Access(addr, rng.Intn(4) == 0)
	}
	var e ckpt.Encoder
	for _, save := range []func(*ckpt.Encoder){g.SaveState, mbs.SaveState, sp.SaveState,
		l1i.SaveState, l1d.SaveState, l2.SaveState, l3.SaveState} {
		save(&e)
	}

	adopted := fresh()
	if err := adopted.AdoptWarmState(g, mbs, sp, l1i, l1d, l2, l3); err != nil {
		t.Fatal(err)
	}
	loaded := fresh()
	d := ckpt.NewDecoder(e.Bytes())
	if err := loaded.LoadWarmState(d); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Errorf("LoadWarmState left %d bytes undecoded", d.Remaining())
	}
	var a, b ckpt.Encoder
	adopted.hier.SaveState(&a)
	loaded.hier.SaveState(&b)
	for _, p := range []struct {
		p *Proc
		e *ckpt.Encoder
	}{{adopted, &a}, {loaded, &b}} {
		p.p.bp.SaveState(p.e)
		p.p.mbs.SaveState(p.e)
		p.p.sp.SaveState(p.e)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("loaded warm state differs from adopted warm state")
	}

	d = ckpt.NewDecoder(e.Bytes()[:e.Len()-5])
	if err := fresh().LoadWarmState(d); err == nil || !strings.Contains(err.Error(), "payload truncated") {
		t.Errorf("truncated warm state: err = %v, want truncation", err)
	}
	loaded.Step()
	if err := loaded.LoadWarmState(ckpt.NewDecoder(e.Bytes())); err == nil {
		t.Error("LoadWarmState after the first cycle succeeded")
	}
}
