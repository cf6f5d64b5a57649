package sample

import (
	"context"
	"fmt"

	"civect/internal/ckpt"
	"civect/internal/core"
	"civect/internal/emu"
	"civect/internal/isa"
	"civect/internal/mem"
)

// Sample-state capture: the amortizable half of checkpointed sampling.
// A sampled run's cost splits into a one-time part — the functional
// profiling pass and the warming fast-forward, both linear in the full
// stream — and a per-run part: the detailed samples themselves, a few
// percent of the stream. CaptureState pays the one-time part once and
// persists, for every planned sample, the state the measurement needs
// at its warmup start: the emulator's registers and PC, the memory
// image as sparse deltas against the pristine base, and the
// functionally-warmed structures (gshare, MBS, stride tables, all four
// cache levels). RunFromState then measures all samples straight from
// the file, skipping both full-stream passes — which is what makes a
// sampled run an order of magnitude cheaper than detailed simulation
// in wall-clock, not just in detailed instructions.
//
// The contract is bit-identity: RunFromState over a capture must
// return exactly the Estimate Run would produce live (both funnel into
// measureSample, and the warm structures round-trip through the same
// SaveState/LoadState encoding AdoptWarmState uses internally).

// StateVersion is the CIVK payload version for sample-state files. The
// CIVK version space is shared across payload kinds — 1 is the
// full-machine checkpoint (core.CheckpointVersion), 2 the sample state
// captured here — so a file of one kind fed to the other reader fails
// loudly on the version, before any payload decoding.
const StateVersion = 2

// StateInfo is the cheap-to-decode prefix of a sample-state file.
type StateInfo struct {
	Config  core.Config
	Program string
	// ProgramHash guards restoration against a different program under
	// the same name.
	ProgramHash uint64
	// Plan mirrors the captured plan's geometry; Warmup the detailed
	// warmup the capture assumed.
	Plan   Plan
	Warmup uint64
}

// CaptureState runs the full-stream warming pass once and serializes
// per-sample restart state for every sample in the plan, returning the
// sealed CIVK container. image must be the workload's pristine initial
// memory (the delta base RunFromState will rebuild against); warmup is
// the detailed warmup RunFromState will run before each measurement.
func CaptureState(ctx context.Context, plan *Plan, prog *isa.Program, image *mem.Memory, cfg core.Config, warmup uint64) ([]byte, error) {
	if len(plan.Samples) == 0 {
		return nil, fmt.Errorf("sample: empty plan")
	}
	var m *mem.Memory
	if image != nil {
		m = image.Clone()
	}
	cpu := emu.New(m)
	w := newWarmer(&cfg)

	var e ckpt.Encoder
	e.Tag("sample-state")
	core.SaveConfigState(&e, &cfg)
	e.Tag("prog")
	e.Str(prog.Name)
	e.Int(prog.Len())
	e.U64(core.HashProgram(prog))
	e.Tag("plan")
	e.U64(plan.IntervalLen)
	e.U64(plan.TotalInstr)
	e.Int(plan.K)
	e.U64(warmup)
	e.Int(len(plan.Samples))
	for _, s := range plan.Samples {
		e.Int(s.Interval)
		e.U64(s.Start)
		e.U64(s.Len)
		e.F64(s.Weight)
	}

	for _, s := range plan.Samples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		warmStart := uint64(0)
		if s.Start > warmup {
			warmStart = s.Start - warmup
		}
		for !cpu.Halted && cpu.Executed < warmStart {
			st := cpu.StepOne(prog)
			w.observe(&st)
		}
		if cpu.Executed != warmStart {
			return nil, fmt.Errorf("sample: stream ended at %d before sample start %d (stale plan?)", cpu.Executed, s.Start)
		}
		e.Tag("sample")
		e.Int(cpu.PC)
		for _, r := range cpu.Regs {
			e.U64(r)
		}
		mm := cpu.Mem
		if mm == nil {
			mm = mem.New()
		}
		mm.SaveDelta(&e, image)
		w.g.SaveState(&e)
		w.mbs.SaveState(&e)
		w.sp.SaveState(&e)
		w.l1i.SaveState(&e)
		w.l1d.SaveState(&e)
		w.l2.SaveState(&e)
		w.l3.SaveState(&e)
	}
	return ckpt.Seal(StateVersion, e.Bytes()), nil
}

// WriteStateFile atomically persists a captured state container
// (temp file + rename — a crash mid-write never leaves a torn file
// where a later measure would find it).
func WriteStateFile(path string, data []byte) error { return ckpt.WriteFile(path, data) }

// decodeHeader validates the container and decodes everything up to the
// first per-sample record.
func decodeHeader(data []byte) (*ckpt.Decoder, StateInfo, error) {
	payload, err := ckpt.Open(data, StateVersion)
	if err != nil {
		return nil, StateInfo{}, err
	}
	d := ckpt.NewDecoder(payload)
	d.Tag("sample-state")
	var info StateInfo
	info.Config = core.LoadConfigState(d)
	d.Tag("prog")
	info.Program = d.Str()
	d.Int() // program length (re-checked against the supplied program)
	info.ProgramHash = d.U64()
	d.Tag("plan")
	info.Plan.IntervalLen = d.U64()
	info.Plan.TotalInstr = d.U64()
	info.Plan.K = d.Int()
	info.Warmup = d.U64()
	n := d.Count()
	for i := 0; i < n; i++ {
		info.Plan.Samples = append(info.Plan.Samples, PlanSample{
			Interval: d.Int(),
			Start:    d.U64(),
			Len:      d.U64(),
			Weight:   d.F64(),
		})
	}
	if err := d.Err(); err != nil {
		return nil, StateInfo{}, err
	}
	return d, info, nil
}

// PeekState decodes a sample-state file's header without touching the
// per-sample machine state.
func PeekState(data []byte) (StateInfo, error) {
	_, info, err := decodeHeader(data)
	return info, err
}

// RunFromState measures every sample of a captured state file and
// stitches the estimates, exactly as Run would live — same plan, same
// warm state, same measurement path, bit-identical Estimate — without
// either full-stream functional pass. prog and image must be the
// workload the state was captured over (verified by name, length and
// program hash; the memory deltas rebuild against image).
func RunFromState(ctx context.Context, data []byte, prog *isa.Program, image *mem.Memory) (*Estimate, error) {
	d, info, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	if prog.Name != info.Program || core.HashProgram(prog) != info.ProgramHash {
		return nil, fmt.Errorf("sample: state was captured over program %q (hash %016x), not the supplied %q (hash %016x)",
			info.Program, info.ProgramHash, prog.Name, core.HashProgram(prog))
	}
	if _, err := prog.Decode(); err != nil {
		return nil, err
	}

	est := &Estimate{TotalInstr: info.Plan.TotalInstr}
	for _, s := range info.Plan.Samples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d.Tag("sample")
		pc := d.Int()
		var regs [isa.NumLogical]uint64
		for i := range regs {
			regs[i] = d.U64()
		}
		m := mem.LoadDelta(d, image)
		w := newWarmer(&info.Config)
		w.g.LoadState(d)
		w.mbs.LoadState(d)
		w.sp.LoadState(d)
		w.l1i.LoadState(d)
		w.l1d.LoadState(d)
		w.l2.LoadState(d)
		w.l3.LoadState(d)
		if err := d.Err(); err != nil {
			return nil, err
		}

		warmStart := uint64(0)
		if s.Start > info.Warmup {
			warmStart = s.Start - info.Warmup
		}
		res, detailed, err := measureSample(prog, info.Config, s, s.Start-warmStart, m, regs, pc, w)
		if err != nil {
			return nil, err
		}
		est.DetailedInstr += detailed
		est.Samples = append(est.Samples, res)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("sample: state file has %d trailing bytes", d.Remaining())
	}
	est.stitch()
	return est, nil
}
