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
// return exactly the Estimate Run would produce live. Both drive the
// same pipeline (measureAll, resetMachine, measure); where Run copies
// the live warmer into each machine (core.AdoptWarmState),
// RunFromState decodes the captured structures straight into it
// (core.LoadWarmState). Capture and restore walk each record with the
// same functions (walkSample, core.WalkWarmState), so the two cannot
// disagree on its layout.

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
	// ProgramLen and ProgramHash guard restoration against a different
	// program under the same name.
	ProgramLen  int
	ProgramHash uint64
	// Plan mirrors the captured plan's geometry; Warmup the detailed
	// warmup the capture assumed.
	Plan   Plan
	Warmup uint64
}

// planRecordBytes is the encoded size of one PlanSample.
const planRecordBytes = 32

// walk saves or loads the header: configuration, program identity and
// plan. A load rejects a configuration whose machine the payload could
// not describe, and a plan BuildPlan cannot produce: a weight outside
// (0, 1], an empty sample, starts that do not strictly ascend, or a
// sample past the stream's end.
func (info *StateInfo) walk(c *ckpt.Codec) {
	c.Tag("sample-state")
	core.WalkConfig(c, &info.Config)
	c.Tag("prog")
	c.Str(&info.Program)
	c.Int(&info.ProgramLen)
	c.U64(&info.ProgramHash)
	c.Tag("plan")
	pl := &info.Plan
	c.U64(&pl.IntervalLen)
	c.U64(&pl.TotalInstr)
	c.Int(&pl.K)
	c.U64(&info.Warmup)
	n := len(pl.Samples)
	c.Count(&n)
	if c.Decoding() {
		// A count the payload cannot hold is rejected before it sizes
		// anything.
		if n > c.Remaining()/planRecordBytes {
			c.Fail("plan of %d samples exceeds the %d bytes remaining", n, c.Remaining())
			return
		}
		pl.Samples = make([]PlanSample, n)
	}
	for i := range pl.Samples {
		s := &pl.Samples[i]
		c.Int(&s.Interval)
		c.U64(&s.Start)
		c.U64(&s.Len)
		c.F64(&s.Weight)
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		switch {
		case !(s.Weight > 0 && s.Weight <= 1):
			c.Fail("sample %d weight %v outside (0, 1]", i, s.Weight)
		case s.Len == 0 || s.Len > pl.TotalInstr || s.Start > pl.TotalInstr-s.Len:
			c.Fail("sample %d [%d, +%d) empty or past the stream's %d instructions", i, s.Start, s.Len, pl.TotalInstr)
		case i > 0 && s.Start <= pl.Samples[i-1].Start:
			c.Fail("sample %d start %d does not follow %d", i, s.Start, pl.Samples[i-1].Start)
		}
	}
	if c.Decoding() && c.Err() == nil {
		err := info.Config.Validate()
		if err == nil {
			err = core.FitsPayload(&info.Config, len(c.Payload()))
		}
		if err != nil {
			c.Fail("sample-state configuration: %v", err)
		}
	}
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
	defer w.stop()

	var c ckpt.Codec
	info := StateInfo{Config: cfg, Program: prog.Name, ProgramLen: prog.Len(),
		ProgramHash: prog.Hash(), Plan: *plan, Warmup: warmup}
	info.walk(&c)
	for i, s := range plan.Samples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := w.warmTo(cpu, prog, warmStart(s, warmup), s.Start); err != nil {
			return nil, err
		}
		start := len(c.Payload())
		walkSample(&c, &cpu.PC, &cpu.Regs, &cpu.Mem, image)
		core.WalkWarmState(&c, &w.g, &w.mbs, &w.sp, &w.l1i, &w.l1d, &w.l2, &w.l3)
		if i == 0 {
			// Every record carries a warm state of the same size:
			// reserve the rest of the payload at the first one's size.
			c.Grow((len(c.Payload()) - start) * (len(plan.Samples) - 1))
		}
	}
	return ckpt.Seal(StateVersion, c.Payload()), nil
}

// walkSample saves or loads the architectural half of a sample record:
// the PC, the registers and the memory image as deltas against base.
func walkSample(c *ckpt.Codec, pc *int, regs *[isa.NumLogical]uint64, m **mem.Memory, base *mem.Memory) {
	c.Tag("sample")
	c.Int(pc)
	for i := range regs {
		c.U64(&regs[i])
	}
	if c.Decoding() {
		*m = mem.LoadDelta(c, base)
	} else {
		(*m).SaveDelta(c, base)
	}
}

// WriteStateFile atomically persists a captured state container
// (temp file + rename — a crash mid-write never leaves a torn file
// where a later measure would find it).
func WriteStateFile(path string, data []byte) error { return ckpt.WriteFile(path, data) }

// decodeHeader validates the container and decodes everything up to the
// first per-sample record.
func decodeHeader(data []byte) (*ckpt.Codec, StateInfo, error) {
	var info StateInfo
	payload, err := ckpt.Open(data, StateVersion)
	if err != nil {
		return nil, info, err
	}
	c := ckpt.Decode(payload)
	info.walk(c)
	if err := c.Err(); err != nil {
		return nil, StateInfo{}, err
	}
	return c, info, nil
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
	c, info, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	if prog.Name != info.Program || prog.Len() != info.ProgramLen || prog.Hash() != info.ProgramHash {
		return nil, fmt.Errorf("sample: state was captured over program %q (len %d, hash %016x), not the supplied %q (len %d, hash %016x)",
			info.Program, info.ProgramLen, info.ProgramHash, prog.Name, prog.Len(), prog.Hash())
	}
	if _, err := prog.Decode(); err != nil {
		return nil, err
	}

	est, err := measureAll(ctx, info.Plan.TotalInstr, info.Plan.Samples, info.Warmup, Slots{}, func(s PlanSample, warmupInstr uint64, proc *core.Proc) error {
		var pc int
		var regs [isa.NumLogical]uint64
		var m *mem.Memory
		walkSample(c, &pc, &regs, &m, image)
		if err := c.Err(); err != nil {
			return err
		}
		if err := resetMachine(proc, prog, info.Config, s, warmupInstr, m, regs, pc); err != nil {
			return err
		}
		return proc.LoadWarmState(c)
	})
	if err != nil {
		return nil, err
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("sample: state file has %d trailing bytes", c.Remaining())
	}
	return est, nil
}
