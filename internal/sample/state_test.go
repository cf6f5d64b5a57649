package sample

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"civect/internal/core"
	"civect/internal/workload"
)

// TestStateBitIdentical is the capture contract: measuring from a
// captured state file returns exactly the Estimate a live sampled run
// produces — same samples, same stitched statistics, bit for bit — on
// both workload tiers.
func TestStateBitIdentical(t *testing.T) {
	for _, bench := range []string{"gcc", "gcc.big"} {
		wl, err := workload.Spec(bench)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 5_000, MaxInstr: 120_000})
		if err != nil {
			t.Fatal(err)
		}
		plan := prof.BuildPlan(4)
		cfg := core.DefaultConfig(core.ModeCI)
		const warmup = 2_000

		live, err := Run(context.Background(), plan, wl.Program, wl.NewMem(), cfg, warmup, Slots{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := CaptureState(context.Background(), plan, wl.Program, wl.NewMem(), cfg, warmup)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := RunFromState(context.Background(), data, wl.Program, wl.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, replayed) {
			t.Errorf("%s: RunFromState differs from live Run:\nlive:     %+v\nreplayed: %+v", bench, live, replayed)
		}

		// Capturing twice yields the same bytes (the determinism
		// invariant every civect byte format keeps).
		again, err := CaptureState(context.Background(), plan, wl.Program, wl.NewMem(), cfg, warmup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(data, again) {
			t.Errorf("%s: capture is not byte-deterministic", bench)
		}
	}
}

// TestCIVKDigestsPinned pins the exact bytes of a sample-state file and
// of a mid-run machine checkpoint. On gcc.big (~2,300 pages) every page
// the run leaves untouched is still shared with the pristine image and
// skipped by SaveDelta without a scan; vortex also stores into pages of
// its image, so a delta encoder that missed writes to once-shared pages
// would change its digests.
func TestCIVKDigestsPinned(t *testing.T) {
	digest := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	for _, tc := range []struct {
		bench               string
		stateLen, ckptLen   int
		stateHash, ckptHash string
	}{
		{"gcc.big", 3658512, 996341,
			"687c3900d4c21a097d083f572044b24cd2d2870cb4cf1fe8671c593f74a0133c",
			"09efbb9304cf85d7e46ff2775a18d807654d56bdb2fe1f99dd218ded933744a4"},
		{"vortex", 3642521, 989863,
			"c5df7f387d6a4de8aa5b020a8a619edc35b12933df7785e0cfa915075f5a307e",
			"5fbdb95531e8e051ce76dae8225af4f59445b07a853d9b9c8549036788b1d32e"},
	} {
		wl, err := workload.Spec(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 5_000, MaxInstr: 120_000})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(core.ModeCI)
		state, err := CaptureState(context.Background(), prof.BuildPlan(4), wl.Program, wl.NewMem(), cfg, 2_000)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(state); len(state) != tc.stateLen || got != tc.stateHash {
			t.Errorf("%s sample state: %d bytes, sha256 %s; want %d bytes, %s", tc.bench, len(state), got, tc.stateLen, tc.stateHash)
		}

		cfg.MaxInstr = 40_000
		p, err := core.New(cfg, wl.Program, wl.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		ck := p.SaveCheckpoint(wl.NewMem())
		if got := digest(ck); len(ck) != tc.ckptLen || got != tc.ckptHash {
			t.Errorf("%s checkpoint: %d bytes, sha256 %s; want %d bytes, %s", tc.bench, len(ck), got, tc.ckptLen, tc.ckptHash)
		}
	}
}

// TestStateRejects pins the failure modes: wrong program, wrong payload
// kind, flipped bytes, truncation.
func TestStateRejects(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 5_000, MaxInstr: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	plan := prof.BuildPlan(3)
	cfg := core.DefaultConfig(core.ModeCI)
	data, err := CaptureState(context.Background(), plan, wl.Program, wl.NewMem(), cfg, 1_000)
	if err != nil {
		t.Fatal(err)
	}

	info, err := PeekState(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Program != wl.Program.Name || info.Plan.TotalInstr != plan.TotalInstr ||
		len(info.Plan.Samples) != len(plan.Samples) || info.Warmup != 1_000 {
		t.Errorf("PeekState = %+v, want the captured plan over %s", info, wl.Program.Name)
	}

	other, err := workload.Spec("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFromState(context.Background(), data, other.Program, other.NewMem()); err == nil {
		t.Error("RunFromState accepted the wrong program")
	}

	// A full-machine checkpoint is a different payload kind under the
	// shared CIVK version space; the state reader must refuse it on the
	// version, before decoding anything.
	proc, err := core.New(cfg, wl.Program, wl.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFromState(context.Background(), proc.SaveCheckpoint(wl.NewMem()), wl.Program, wl.NewMem()); err == nil {
		t.Error("RunFromState accepted a full-machine checkpoint")
	}

	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		b := append([]byte(nil), data...)
		if _, err := RunFromState(context.Background(), tc.mut(b), wl.Program, wl.NewMem()); err == nil {
			t.Errorf("%s state file was accepted", tc.name)
		}
	}
}
