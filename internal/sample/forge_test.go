package sample

import (
	"context"
	"math"
	"testing"

	"civect/internal/ckpt"
	"civect/internal/core"
	"civect/internal/workload"
)

// captureSmall captures a sample-state file over gcc on a small machine
// (a few-kilobyte gshare and caches), so the file is tens of kilobytes
// and a restore measures in milliseconds.
func captureSmall(t testing.TB) (*workload.Benchmark, []byte) {
	t.Helper()
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 2_000, MaxInstr: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ModeCI)
	cfg.WindowSize, cfg.LSQSize, cfg.PhysRegs = 32, 16, 128
	cfg.GshareEntries = 1 << 8
	cfg.MBSSets, cfg.StrideSets, cfg.SRSMTSets = 8, 16, 8
	cfg.Hier.L1I.SizeBytes, cfg.Hier.L1D.SizeBytes = 1<<10, 1<<10
	cfg.Hier.L2.SizeBytes, cfg.Hier.L3.SizeBytes = 2<<10, 4<<10
	data, err := CaptureState(context.Background(), prof.BuildPlan(3), wl.Program, wl.NewMem(), cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	return wl, data
}

// TestStateRejectsForgedRecords: a CRC-valid state file whose header or
// first sample record is rewritten to values a capture cannot produce
// must be refused. A sample PC past the program, a NaN or negative
// weight and an empty sample all used to measure to an estimate (NaN
// IPC for the NaN weight) with a nil error.
func TestStateRejectsForgedRecords(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 5_000, MaxInstr: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	data, err := CaptureState(context.Background(), prof.BuildPlan(3), wl.Program, wl.NewMem(), core.DefaultConfig(core.ModeCI), 1_000)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ckpt.Open(data, StateVersion)
	if err != nil {
		t.Fatal(err)
	}
	hdr, info, err := decodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Plan.Samples) < 2 {
		t.Fatalf("plan has %d samples, want at least 2", len(info.Plan.Samples))
	}
	headerLen := hdr.Offset()

	// forgeHeader re-encodes the header after edit; forgePC rewrites the
	// first sample's PC, which follows its 10-byte marker.
	forgeHeader := func(edit func(*StateInfo)) []byte {
		forged := info
		forged.Plan.Samples = append([]PlanSample(nil), info.Plan.Samples...)
		edit(&forged)
		var c ckpt.Codec
		forged.walk(&c)
		return ckpt.Seal(StateVersion, append(c.Payload(), payload[headerLen:]...))
	}
	forgePC := func(pc int) []byte {
		var c ckpt.Codec
		c.Int(&pc)
		b := append([]byte(nil), payload...)
		copy(b[headerLen+10:], c.Payload())
		return ckpt.Seal(StateVersion, b)
	}
	if _, err := RunFromState(context.Background(), forgeHeader(func(*StateInfo) {}), wl.Program, wl.NewMem()); err != nil {
		t.Fatalf("re-encoded header refused: %v", err)
	}

	for _, tc := range []struct {
		name string
		data []byte
		plan bool // refused by the header walk, so by PeekState too
	}{
		{"PC past the program", forgePC(wl.Program.Len() + 5), false},
		{"PC 2^40", forgePC(1 << 40), false},
		{"NaN weight", forgeHeader(func(s *StateInfo) { s.Plan.Samples[0].Weight = math.NaN() }), true},
		{"negative weight", forgeHeader(func(s *StateInfo) { s.Plan.Samples[1].Weight = -5 }), true},
		{"weight above 1", forgeHeader(func(s *StateInfo) { s.Plan.Samples[0].Weight = 1.5 }), true},
		{"empty sample", forgeHeader(func(s *StateInfo) { s.Plan.Samples[0].Len = 0 }), true},
		{"starts out of order", forgeHeader(func(s *StateInfo) { s.Plan.Samples[1].Start = s.Plan.Samples[0].Start }), true},
		{"sample past the stream", forgeHeader(func(s *StateInfo) { s.Plan.TotalInstr = s.Plan.Samples[1].Start }), true},
		{"start+len overflows", forgeHeader(func(s *StateInfo) { s.Plan.Samples[1].Start = math.MaxUint64 - 1 }), true},
	} {
		if _, err := PeekState(tc.data); (err != nil) != tc.plan {
			t.Errorf("%s: PeekState err = %v, want refused %t", tc.name, err, tc.plan)
		}
		if est, err := RunFromState(context.Background(), tc.data, wl.Program, wl.NewMem()); err == nil {
			ipc, _ := est.IPC()
			t.Errorf("%s: RunFromState accepted the file (IPC %v)", tc.name, ipc)
		}
	}
}

// FuzzSampleState feeds arbitrary sample-state payloads to PeekState
// and RunFromState, both as given and resealed (so the decoder rather
// than the CRC meets the damage). The contract is an error, or an
// estimate whose every mean is finite; never a panic. The seeds are a
// small gcc capture plus its single-byte flips and truncations.
func FuzzSampleState(f *testing.F) {
	wl, data := captureSmall(f)
	payload, err := ckpt.Open(data, StateVersion)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	for pos := 0; pos < len(payload); pos += 89 * 4 {
		mut := append([]byte(nil), payload...)
		mut[pos] ^= 0x40
		f.Add(mut)
	}
	for cut := 0; cut < len(payload); cut += 103 * 4 {
		f.Add(payload[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, ckpt.Seal(StateVersion, data)} {
			PeekState(in)
			est, err := RunFromState(context.Background(), in, wl.Program, wl.NewMem())
			if err != nil {
				continue
			}
			for _, s := range est.Stats {
				if math.IsNaN(s.Mean) || math.IsInf(s.Mean, 0) {
					t.Fatalf("accepted state estimates %s = %v", s.Name, s.Mean)
				}
			}
		}
	})
}
