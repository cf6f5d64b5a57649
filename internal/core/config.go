// Package core implements the execution-driven out-of-order superscalar
// timing simulator and the paper's control-flow independence mechanism.
//
// The pipeline models fetch (8-wide, one taken branch per cycle, I-cache
// timing), decode/rename (merged register file with free list), a
// 256-entry instruction window (ROB), 8-way out-of-order issue over the
// Table 1 functional units, a 64-entry load/store queue with store-load
// forwarding, multi-level data caches with optional wide buses, and
// 8-wide in-order commit. Wrong paths execute for real: fetch follows
// the predicted PC through the static program and instructions compute
// real values; stores are buffered until commit so architectural memory
// stays exact.
//
// Five machine modes reproduce the paper's configurations: the scalar
// baseline, the wide-bus baseline, the proposed control-independence
// mechanism (ci), the squash-reuse restriction of it (ci-iw, Figure 10),
// and the full speculative dynamic vectorization baseline of reference
// [12] (vect, Figure 14).
package core

import (
	"fmt"

	"civect/internal/cache"
)

// Mode selects the machine organisation.
type Mode int

const (
	// ModeScalar is the plain superscalar baseline (scalxp).
	ModeScalar Mode = iota
	// ModeWideBus adds wide L1D buses (wbxp, §2.4.5).
	ModeWideBus
	// ModeCI is the proposed control-independence mechanism on top of
	// wide buses (cixp).
	ModeCI
	// ModeCIIW exploits control independence only for instructions
	// already inside the instruction window when the misprediction is
	// detected — squash reuse (ci-iw, Figure 10).
	ModeCIIW
	// ModeVect is the full-blown speculative dynamic vectorization of
	// [12]: every confident strided load is vectorized, with no
	// control-independence filtering (Figure 14).
	ModeVect
)

// String names the mode as the paper's figures do.
func (m Mode) String() string {
	switch m {
	case ModeScalar:
		return "scal"
	case ModeWideBus:
		return "wb"
	case ModeCI:
		return "ci"
	case ModeCIIW:
		return "ci-iw"
	case ModeVect:
		return "vect"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Modes lists every machine mode in the paper's presentation order
// (scal, wb, ci, ci-iw, vect).
func Modes() []Mode {
	return []Mode{ModeScalar, ModeWideBus, ModeCI, ModeCIIW, ModeVect}
}

// ParseMode inverts Mode.String: it is the one mode-name table shared
// by every CLI flag, bench row and the sim façade.
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (want scal, wb, ci, ci-iw or vect)", s)
}

// UsesWideBus reports whether the mode includes wide L1D buses. In the
// paper every configuration beyond the plain scalar baseline is built on
// wide buses.
func (m Mode) UsesWideBus() bool { return m != ModeScalar }

// Vectorizes reports whether the mode creates speculative replicas.
func (m Mode) Vectorizes() bool { return m == ModeCI || m == ModeVect }

// Engine names a timing engine. The three are observation-equivalent —
// bit-identical statistics, journals and checkpoints — and differ only
// in host speed. Machines run the zero value; the two slower engines
// are the references the differential tests compare it against.
type Engine uint8

const (
	// EngineFastForward is the event-driven scheduler plus the
	// stall-cycle fast-forward engine (fastforward.go), which jumps
	// provably inert cycle ranges.
	EngineFastForward Engine = iota
	// EngineEvent is the event-driven scheduler stepping every cycle.
	EngineEvent
	// EngineNaive is the polled scheduler: issue re-scans the whole
	// waiting list and blocked replicas re-attempt arbitration every
	// cycle. It never fast-forwards.
	EngineNaive
)

// SetEngineForTest selects the timing engine. It is for tests only:
// no command, option or service sets it, and a checkpoint carries the
// engine it was taken on.
func (c *Config) SetEngineForTest(e Engine) { c.engine = e }

// Config holds every processor parameter. DefaultConfig returns
// Table 1; the experiment harness varies the fields each figure sweeps.
type Config struct {
	Mode Mode

	// FetchWidth instructions per cycle, up to one taken branch
	// (Table 1: 8).
	FetchWidth int
	// DecodeWidth is the rename/dispatch width (8).
	DecodeWidth int
	// IssueWidth is the out-of-order issue width (8).
	IssueWidth int
	// CommitWidth is the in-order commit width (8).
	CommitWidth int

	// FrontEndDepth is the number of pipeline stages between fetch and
	// rename (decode stages); it sets the minimum branch misprediction
	// penalty together with resolution latency.
	FrontEndDepth int

	// WindowSize is the instruction window / reorder buffer capacity
	// (Table 1: 256). For register files larger than 256 the paper
	// grows the window to the register count; the harness applies that
	// rule.
	WindowSize int
	// LSQSize is the load/store queue capacity (64).
	LSQSize int

	// Functional units (Table 1) with latencies in brackets: 6 simple
	// int (1); 3 int mult/div (2 mult, 12 div); 4 simple FP (2); 2 FP
	// mult/div (4, 14); load/store units track the L1D port count.
	IntALUs    int
	IntMulDivs int
	LatIntALU  int
	LatIntMul  int
	LatIntDiv  int

	// PhysRegs is the physical register file size; 0 means unbounded
	// ("Inf"). 64 registers are permanently committed state, so the
	// usable rename pool is PhysRegs-64.
	PhysRegs int

	// GshareEntries sizes the branch predictor (Table 1: 64K).
	GshareEntries int

	// Hier configures the caches; DL1Ports and WideBus within it are
	// overridden from DL1Ports and Mode at construction.
	Hier cache.HierConfig
	// DL1Ports is the number of L1 data cache ports (1 or 2).
	DL1Ports int

	// Replicas per vectorized instruction (the paper sweeps 1/2/4/8;
	// default 4).
	Replicas int
	// StridedPCsPerEntry bounds the stridedPC list each rename entry
	// propagates (Figure 4 sweeps 1/2/4; default 2).
	StridedPCsPerEntry int

	// Stride predictor geometry (Table 1: 256 sets, 4-way).
	StrideSets, StrideAssoc int
	// SRSMT geometry (Table 1: 64 sets, 4-way).
	SRSMTSets, SRSMTAssoc int
	// MBS geometry (Table 1: 64 sets, 4-way).
	MBSSets, MBSAssoc int
	// NRBQEntries is the Not Retired Branch Queue capacity (16).
	NRBQEntries int

	// SpecMemSize enables the speculative data memory of §2.4.6 with
	// that many positions (0 disables it: replicas use the register
	// file). SpecMemLat is its access latency (2; §3.2 also tries 5).
	SpecMemSize int
	SpecMemLat  int

	// ReplicaRegReserve keeps this many physical registers free before
	// replicas may allocate; it prevents the speculative work from
	// starving the conventional pipeline completely.
	ReplicaRegReserve int
	// RenameRegHeadroom stalls scalar renaming while fewer than this
	// many registers remain free (vectorizing modes only): replicas
	// compete with the conventional window for registers, which is the
	// §3.2 register-pressure effect ("a large number of scalar
	// registers are used to store the values created by the speculative
	// instructions, slowing down the execution of the code that has not
	// been vectorized").
	RenameRegHeadroom int

	// DisableDAEC turns off the Dead Association Elimination Counter
	// (§2.4.2) for the register-pressure ablation: without it, dead
	// replica registers survive until their entry is evicted.
	DisableDAEC bool

	// DisableMBSGate activates the control-independence scheme on every
	// misprediction instead of only MBS-hard branches (§2.3.1 argues
	// the filter focuses the mechanism on branches responsible for many
	// mispredictions; this ablation measures what it buys).
	DisableMBSGate bool

	// engine is the timing engine the machine steps with; the zero
	// value is the default fast-forward engine. Only differential tests
	// choose another, through SetEngineForTest.
	engine Engine

	// commitRecomputeAll restores the reference commit path that
	// recomputes every instruction architecturally (archResult) before
	// retiring it. The default (false) skips the recomputation for
	// instructions whose rename-time operand sources carried no reused
	// (validated or squash-reuse) value — for those the issue-time
	// result is exact by construction, which the reference mode's
	// commit assertion checks. Only core's differential tests set it.
	commitRecomputeAll bool

	// MaxInstr bounds committed instructions (0: run to halt).
	MaxInstr uint64
	// MaxCycles is a hard safety bound (0: 200M).
	MaxCycles uint64
}

// DefaultConfig returns the Table 1 processor with the mechanism's
// default knobs (4 replicas, 2 strided PCs per rename entry, 256
// registers, 1 wide L1D port) in the given mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:          mode,
		FetchWidth:    8,
		DecodeWidth:   8,
		IssueWidth:    8,
		CommitWidth:   8,
		FrontEndDepth: 3,
		WindowSize:    256,
		LSQSize:       64,

		IntALUs:    6,
		IntMulDivs: 3,
		LatIntALU:  1,
		LatIntMul:  2,
		LatIntDiv:  12,

		PhysRegs:      256,
		GshareEntries: 1 << 16,

		Hier:     cache.DefaultHierConfig(),
		DL1Ports: 1,

		Replicas:           4,
		StridedPCsPerEntry: 2,

		StrideSets: 256, StrideAssoc: 4,
		SRSMTSets: 64, SRSMTAssoc: 4,
		MBSSets: 64, MBSAssoc: 4,
		NRBQEntries: 16,

		SpecMemSize: 0,
		SpecMemLat:  2,

		ReplicaRegReserve: 4,
		RenameRegHeadroom: 24,

		MaxInstr:  0,
		MaxCycles: 0,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Mode < ModeScalar || c.Mode > ModeVect:
		return fmt.Errorf("core: invalid mode %d", int(c.Mode))
	case c.engine > EngineNaive:
		return fmt.Errorf("core: invalid engine %d", c.engine)
	case c.FetchWidth <= 0 || c.DecodeWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("core: pipeline widths must be positive")
	case c.WindowSize < 4:
		return fmt.Errorf("core: window size %d too small", c.WindowSize)
	case c.LSQSize < 2:
		return fmt.Errorf("core: LSQ size %d too small", c.LSQSize)
	case c.PhysRegs != 0 && c.PhysRegs < 96:
		return fmt.Errorf("core: %d physical registers cannot cover 64 architectural + rename", c.PhysRegs)
	case c.DL1Ports < 1:
		return fmt.Errorf("core: need at least one L1D port")
	case c.Replicas < 1 || c.Replicas > 64:
		return fmt.Errorf("core: replicas %d out of range", c.Replicas)
	case c.StridedPCsPerEntry < 1:
		return fmt.Errorf("core: need at least one strided PC per rename entry")
	case c.StridedPCsPerEntry > maxStridedPCs:
		return fmt.Errorf("core: at most %d strided PCs per rename entry", maxStridedPCs)
	case !pow2(c.GshareEntries):
		return fmt.Errorf("core: gshare entries %d not a positive power of two", c.GshareEntries)
	case !pow2(c.MBSSets) || c.MBSAssoc < 0:
		return fmt.Errorf("core: MBS geometry %dx%d invalid", c.MBSSets, c.MBSAssoc)
	case !pow2(c.StrideSets) || c.StrideAssoc < 1:
		return fmt.Errorf("core: stride predictor geometry %dx%d invalid", c.StrideSets, c.StrideAssoc)
	case c.Mode.Vectorizes() && (!pow2(c.SRSMTSets) || c.SRSMTAssoc < 1):
		return fmt.Errorf("core: SRSMT geometry %dx%d invalid", c.SRSMTSets, c.SRSMTAssoc)
	case (c.Mode == ModeCI || c.Mode == ModeCIIW) && c.NRBQEntries < 1:
		return fmt.Errorf("core: NRBQ needs at least one entry")
	case c.SpecMemSize < 0:
		return fmt.Errorf("core: negative spec memory size %d", c.SpecMemSize)
	}
	for _, l := range []struct {
		name string
		c    cache.Config
	}{{"L1I", c.Hier.L1I}, {"L1D", c.Hier.L1D}, {"L2", c.Hier.L2}, {"L3", c.Hier.L3}} {
		// The caps keep LineBytes·Assoc (Sets' divisor) from overflowing.
		if l.c.LineBytes < 1 || l.c.Assoc < 1 || l.c.LineBytes > 1<<16 || l.c.Assoc > 1<<16 ||
			!pow2(l.c.LineBytes) || !pow2(l.c.Sets()) {
			return fmt.Errorf("core: %s geometry %d B, %d-byte lines, %d-way: need power-of-two lines and sets", l.name, l.c.SizeBytes, l.c.LineBytes, l.c.Assoc)
		}
	}
	return nil
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// WindowFor applies the paper's reorder-buffer sizing rule: 256
// entries, grown to the register count when the register file exceeds
// 256 ("for configurations with more than 256 registers the reorder
// buffer has been increased to the size of the number of registers"),
// and 1024 for the unbounded file.
func WindowFor(physRegs int) int {
	switch {
	case physRegs == 0:
		return 1024
	case physRegs > 256:
		return physRegs
	default:
		return 256
	}
}
