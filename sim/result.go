package sim

// resultSchema versions Result's JSON layout; bump it on a breaking
// change. Version 2 dropped the always-zero bytes_per_op and
// allocs_per_op fields.
const resultSchema = 2

// Result is the outcome of one simulation session: a summary row
// followed by the full statistics block, in the one versioned JSON
// format that cisim -json, cickpt and ciserve emit.
type Result struct {
	// The summary row: machine mode and workload; committed
	// instructions (for a sampled run, the stream the estimates
	// extrapolate to); the session's wall time and throughput, which
	// are host measurements, not simulated state; and the
	// deterministic headline statistics.
	Mode            string  `json:"mode"`
	Bench           string  `json:"bench"`
	Instr           uint64  `json:"sim_instrs_per_run"`
	NsPerOp         int64   `json:"ns_per_op"`
	SimInstrsPerSec float64 `json:"sim_instrs_per_sec"`
	IPC             float64 `json:"ipc"`
	ReuseFraction   float64 `json:"reuse_fraction"`
	// Schema versions this JSON layout (2).
	Schema int `json:"schema"`
	// Partial marks a run cut short — by context cancellation or an
	// expired deadline — before its budget or halt; the statistics are
	// a well-formed prefix of the full run's.
	Partial bool `json:"partial,omitempty"`
	// Stats is the full simulated-statistics block.
	Stats Stats `json:"stats"`
	// Sampled carries the stitched estimates of a sampled run
	// (WithSampling); nil for detailed runs. When set, Stats is zero —
	// a sampled run has no single detailed statistics block — and
	// IPC/ReuseFraction are the stitched means.
	Sampled *SampledRun `json:"sampled,omitempty"`
}

// makeResult renders a stats snapshot as a Result using the wall time
// accumulated so far.
func (s *Session) makeResult(stats *Stats, partial bool) *Result {
	ns := s.wall.Nanoseconds()
	r := &Result{
		Mode:          s.cfg.Mode.String(),
		Bench:         s.w.Name(),
		Instr:         stats.Committed,
		NsPerOp:       ns,
		IPC:           stats.IPC(),
		ReuseFraction: stats.ReuseFraction(),
		Schema:        resultSchema,
		Partial:       partial,
		Stats:         *stats,
	}
	if ns > 0 {
		r.SimInstrsPerSec = float64(stats.Committed) / (float64(ns) * 1e-9)
	}
	return r
}
