package serve

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestOversizedSpecRejectedBounded: an oversized spec once built its
// throwaway admission session before answering — regs 1,000,000
// allocated about 600 MB, spec_mem 100,000,000 about 1.7 GB. Each
// oversized field must now be a bad request, allocating almost
// nothing. The values here stay small enough (tens of MB if admitted)
// that a regressed ceiling fails the test instead of exhausting memory.
func TestOversizedSpecRejectedBounded(t *testing.T) {
	cfg := Config{}.withDefaults()
	if _, _, err := (&JobSpec{Workload: "gcc"}).resolve(&cfg); err != nil {
		t.Fatalf("baseline spec rejected: %v", err) // also warms the workload cache
	}
	for _, sp := range []JobSpec{
		{Workload: "gcc", Regs: 1 << 16},
		{Workload: "gcc", Regs: MaxRegs + 1},
		{Workload: "gcc", Ports: 1 << 10},
		{Workload: "gcc", Ports: MaxPorts + 1},
		{Workload: "gcc", Ports: -1},
		{Workload: "gcc", SpecMem: 1 << 20},
		{Workload: "gcc", SpecMem: MaxSpecMem + 1},
		{Workload: "gcc", SpecMem: -1},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, err := sp.resolve(&cfg)
		runtime.ReadMemStats(&after)
		if c := Classify(err); c != ClassBadRequest {
			t.Errorf("regs %d ports %d spec_mem %d: class %q (%v), want %q",
				sp.Regs, sp.Ports, sp.SpecMem, c, err, ClassBadRequest)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("regs %d ports %d spec_mem %d: rejecting allocated %d bytes",
				sp.Regs, sp.Ports, sp.SpecMem, grew)
		}
	}
	// The ceilings themselves are admitted.
	for _, sp := range []JobSpec{
		{Workload: "gcc", Regs: MaxRegs, Ports: MaxPorts, SpecMem: MaxSpecMem},
		{Workload: "gcc", Regs: -1},
	} {
		if _, _, err := sp.resolve(&cfg); err != nil {
			t.Errorf("spec at the ceilings %+v rejected: %v", sp, err)
		}
	}
}

// FuzzJobSpec feeds arbitrary POST /v1/jobs bodies through readSpec,
// the decode-and-resolve path of handleSubmit. The contract: no panic,
// every error is a bad request, and every accepted spec is within the
// per-job budget and the size ceilings.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		// TestSubmitBadRequests' bodies.
		`{"workload":`,
		`{"workload":"gcc","warp_factor":9}`,
		`{}`,
		`{"workload":"doom"}`,
		`{"workload":"gcc","mode":"warp"}`,
		`{"workload":"gcc","engine":"imaginary"}`,
		`{"workload":"gcc","regs":-7}`,
		`{"workload":"gcc","max_instr":100000}`,
		`{"workload":"gcc","trace":true}`,
		`{"workload":"gcc","trace_level":"full"}`,
		`{"workload":"gcc","trace":true,"trace_first":100,"trace_last":5}`,
		// Oversized fields.
		`{"workload":"gcc","regs":65536}`,
		`{"workload":"gcc","spec_mem":1048576}`,
		`{"workload":"gcc","ports":1024}`,
		// Valid specs.
		`{"workload":"gcc","max_instr":5000}`,
		`{"workload":"mcf","mode":"vect","engine":"event","ports":2,"regs":768,"replicas":4,` +
			`"strided_pcs":2,"spec_mem":768,"spec_mem_lat":3,"no_daec":true,"max_instr":9000,` +
			`"checkpoint_key":"k-1","trace":true,"trace_level":"commits","trace_first":10,"trace_last":90}`,
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	cfg := Config{MaxInstrPerJob: 10_000, TraceDir: dir, CheckpointDir: dir}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, w, _, err := readSpec(bytes.NewReader(body), &cfg)
		if err != nil {
			if c := Classify(err); c != ClassBadRequest {
				t.Fatalf("body %q: error %v classified %q, want %q", body, err, c, ClassBadRequest)
			}
			return
		}
		if w == nil {
			t.Fatalf("body %q accepted without a workload", body)
		}
		if spec.Regs < -1 || spec.Regs > MaxRegs || spec.Ports < 0 || spec.Ports > MaxPorts ||
			spec.SpecMem < 0 || spec.SpecMem > MaxSpecMem || spec.MaxInstr > cfg.MaxInstrPerJob {
			t.Fatalf("body %q accepted outside the ceilings: %+v", body, spec)
		}
		if k := spec.CheckpointKey; strings.ContainsAny(k, "/\\") || strings.HasPrefix(k, ".") {
			t.Fatalf("body %q accepted an unsafe checkpoint key %q", body, spec.CheckpointKey)
		}
		if _, err := json.Marshal(spec); err != nil {
			t.Fatalf("accepted spec does not render: %v", err)
		}
	})
}
