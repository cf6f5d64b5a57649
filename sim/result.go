package sim

import "civect/internal/benchfmt"

// Result is the outcome of one simulation session. It embeds the
// versioned benchfmt row — the same schema cibench writes to
// BENCH_core.json and cigate gates on — so every tool in the stack
// emits one JSON format, and adds the full statistics block.
type Result struct {
	// Result is the embedded benchfmt row: mode, workload, committed
	// instructions, wall time, throughput and the deterministic
	// headline stats (IPC, reuse fraction). BytesPerOp/AllocsPerOp are
	// zero here; only benchmark harnesses that measure allocation
	// (cibench) fill them.
	benchfmt.Result
	// Schema versions this JSON layout (BenchSchemaVersion).
	Schema int `json:"schema"`
	// Partial marks a run cut short — by context cancellation or an
	// expired deadline — before its budget or halt; the statistics are
	// a well-formed prefix of the full run's.
	Partial bool `json:"partial,omitempty"`
	// Stats is the full simulated-statistics block.
	Stats Stats `json:"stats"`
	// Sampled carries the stitched estimates of a sampled run
	// (WithSampling); nil for detailed runs. When set, Stats is zero —
	// a sampled run has no single detailed statistics block — and the
	// embedded row's IPC/ReuseFraction are the stitched means.
	Sampled *SampledRun `json:"sampled,omitempty"`
}

// makeResult renders a stats snapshot as a Result using the wall time
// accumulated so far.
func (s *Session) makeResult(stats *Stats, partial bool) *Result {
	ns := s.wall.Nanoseconds()
	r := &Result{
		Result: benchfmt.Result{
			Mode:          s.cfg.Mode.String(),
			Bench:         s.w.Name(),
			Instr:         stats.Committed,
			NsPerOp:       ns,
			IPC:           stats.IPC(),
			ReuseFraction: stats.ReuseFraction(),
		},
		Schema:  BenchSchemaVersion,
		Partial: partial,
		Stats:   *stats,
	}
	if ns > 0 {
		r.SimInstrsPerSec = float64(stats.Committed) / (float64(ns) * 1e-9)
	}
	return r
}
