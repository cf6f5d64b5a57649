package emu_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"reflect"
	"testing"

	"civect/internal/asm"
	"civect/internal/emu"
	"civect/internal/isa"
	"civect/internal/workload"
)

// recorder is a Walk observer that keeps every instruction as a Step.
// NextPC is filled from the following instruction's PC (the last one's
// from the CPU once the walk returns) and Dest from the instruction, so
// the recorded sequence compares field for field with StepOne's.
type recorder struct{ steps *[]emu.Step }

func (r recorder) Observe(pc int, in isa.Instr, addr, val uint64, taken bool) {
	if n := len(*r.steps); n > 0 {
		(*r.steps)[n-1].NextPC = pc
	}
	s := emu.Step{PC: pc, Instr: in, Addr: addr, Value: val, Taken: taken}
	s.Dest, s.HasDest = in.WritesReg()
	*r.steps = append(*r.steps, s)
}

// walkRecorded walks c to limit and returns the recorded steps.
func walkRecorded(c *emu.CPU, p *isa.Program, limit uint64) ([]emu.Step, error) {
	var steps []emu.Step
	err := emu.Walk(c, p, limit, recorder{&steps})
	if n := len(steps); n > 0 {
		steps[n-1].NextPC = c.PC
	}
	return steps, err
}

// stepDigest hashes a step sequence field by field.
func stepDigest(steps []emu.Step) string {
	h := sha256.New()
	for _, s := range steps {
		put(h, uint64(s.PC))
		put(h, uint64(s.Instr.Op)|uint64(s.Instr.Rd)<<8|uint64(s.Instr.Ra)<<16|uint64(s.Instr.Rb)<<24)
		put(h, uint64(s.Instr.Imm))
		put(h, uint64(s.Instr.Target))
		put(h, s.Addr)
		put(h, s.Value)
		put(h, b2u(s.Taken))
		put(h, uint64(s.NextPC))
		put(h, uint64(s.Dest)|b2u(s.HasDest)<<8)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func put(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// archState is everything the three execution paths must agree on.
type archState struct {
	Regs     [isa.NumLogical]uint64
	Mem      uint64
	PC       int
	Executed uint64
	Halted   bool
}

func stateOf(c *emu.CPU) archState {
	return archState{c.Regs, c.Mem.Checksum(), c.PC, c.Executed, c.Halted}
}

// TestWalkRunStepOneEquivalent runs random programs to their halt and
// three registry programs into their instruction limit three ways —
// Run, repeated StepOne, and Walk with a recording observer — and
// requires identical architectural state, identical step sequences,
// and sequences whose digest matches the one recorded before Run and
// StepOne were rebuilt on Walk.
func TestWalkRunStepOneEquivalent(t *testing.T) {
	const limit = 200_000
	type tc struct {
		b      *workload.Benchmark
		digest string
	}
	var cases []tc
	for seed, d := range []string{
		"30fda16d599a0c8266cbaeec2e70ea974b97a3cfc1bd8ed63b3d3b79f14ebe75",
		"4b2e3f962474794e920a093da5784984a2115dceffe6d3adac11cbb35b0bd3da",
		"e2f60914aff55e66e81cacd7db4e1ae953fb9b0c4fd04f126b137fd044eed01a",
		"0e676488b8204500c64de534a61d839aa5104c66be0bda6b84e5f8e2d272e9c8",
		"630c6641fc26f81ca3e7fba1a69ad04f7edb444193597afba78e01015c10a011",
		"1d72bd7fc38d535aef98a46d34fb2bf8c647bdc02a1e5138416ce6a53eb89832",
		"0c5680edf77fb6ee8a3d3124f72b5f928108a282e8dfb5f18c99810260a5a29e",
		"9897feb0bd201ea836d667bcb84e658b0cd3f418792f6aae16385729cfedf784",
	} {
		cases = append(cases, tc{workload.Random(int64(seed)), d})
	}
	for _, x := range []struct{ name, digest string }{
		{"gcc", "286c847b242faf1c92734b21fd6eb5e555e471d0a31025362464df6a4a16697e"},
		{"mcf", "54b8c7caf13acddb032532e7ed214ad7e6e97b85c3061fd1359c602752ecb54e"},
		{"vortex", "68595a739cf8e734f258db7d7ecf3db59f17f3e76cbaaf0196498c112f48ab41"},
	} {
		b, err := workload.Spec(x.name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{b, x.digest})
	}

	for _, c := range cases {
		name := c.b.Program.Name
		prog := c.b.Program

		run := emu.New(c.b.NewMem())
		runErr := run.Run(prog, limit)

		stepped := emu.New(c.b.NewMem())
		var steps []emu.Step
		for !stepped.Halted && stepped.Executed < limit {
			steps = append(steps, stepped.StepOne(prog))
		}

		walked := emu.New(c.b.NewMem())
		walkSteps, walkErr := walkRecorded(walked, prog, limit)

		want := stateOf(stepped)
		if got := stateOf(run); got != want {
			t.Errorf("%s: Run state %+v, StepOne state %+v", name, got, want)
		}
		if got := stateOf(walked); got != want {
			t.Errorf("%s: Walk state %+v, StepOne state %+v", name, got, want)
		}
		wantErr := error(nil)
		if !want.Halted {
			wantErr = emu.ErrLimit
		}
		if runErr != wantErr || walkErr != wantErr {
			t.Errorf("%s: Run err %v, Walk err %v, want %v", name, runErr, walkErr, wantErr)
		}
		if !reflect.DeepEqual(walkSteps, steps) {
			t.Errorf("%s: Walk and StepOne step sequences differ", name)
		}
		if got := stepDigest(steps); got != c.digest {
			t.Errorf("%s: step sequence digest %s, want %s", name, got, c.digest)
		}
	}
}

// TestWalkEdges pins the budget and halt boundaries: a limit already
// reached executes nothing, a halt on the last budgeted instruction is
// a clean halt rather than ErrLimit, StepOne and Walk on a halted CPU
// do nothing, and a PC past the image executes as a halt.
func TestWalkEdges(t *testing.T) {
	loop := asm.MustAssemble("inf", "loop: addi r1, r1, 1\njmp loop\nhalt\n")
	two := asm.MustAssemble("two", "movi r1, 7\nhalt\n")

	t.Run("limit already reached", func(t *testing.T) {
		c := emu.New(nil)
		if err := c.Run(loop, 10); err != emu.ErrLimit {
			t.Fatalf("Run err = %v, want ErrLimit", err)
		}
		before := stateOf(c)
		for _, limit := range []uint64{10, 5} {
			steps, err := walkRecorded(c, loop, limit)
			if err != emu.ErrLimit || len(steps) != 0 || stateOf(c) != before {
				t.Errorf("limit %d: err %v, %d steps, state %+v; want ErrLimit, none, %+v", limit, err, len(steps), stateOf(c), before)
			}
		}
	})

	t.Run("ErrLimit", func(t *testing.T) {
		c := emu.New(nil)
		steps, err := walkRecorded(c, loop, 101)
		if err != emu.ErrLimit || len(steps) != 101 || c.Executed != 101 || c.Halted {
			t.Fatalf("err %v, %d steps, executed %d, halted %v", err, len(steps), c.Executed, c.Halted)
		}
		if c.PC != 1 || c.Regs[1] != 51 {
			t.Errorf("stopped at pc %d with r1=%d, want pc 1, r1=51", c.PC, c.Regs[1])
		}
	})

	t.Run("halt on the last budgeted instruction", func(t *testing.T) {
		c := emu.New(nil)
		steps, err := walkRecorded(c, two, 2)
		if err != nil || !c.Halted || c.Executed != 2 || c.PC != 1 || len(steps) != 2 {
			t.Fatalf("err %v, halted %v, executed %d, pc %d, %d steps", err, c.Halted, c.Executed, c.PC, len(steps))
		}
		if last := steps[1]; last.Instr.Op != isa.OpHalt || last.NextPC != 1 {
			t.Errorf("last step %+v, want the halt at pc 1", last)
		}
		c = emu.New(nil)
		if err := c.Run(two, 1); err != emu.ErrLimit || c.Halted || c.Executed != 1 {
			t.Errorf("one short: err %v, halted %v, executed %d", err, c.Halted, c.Executed)
		}
	})

	t.Run("halted CPU", func(t *testing.T) {
		c := emu.New(nil)
		if err := c.Run(two, 0); err != nil {
			t.Fatal(err)
		}
		before := stateOf(c)
		s := c.StepOne(two)
		want := emu.Step{PC: 1, Instr: isa.Instr{Op: isa.OpHalt}, NextPC: 1}
		if s != want || stateOf(c) != before {
			t.Errorf("StepOne after halt = %+v, state %+v; want %+v, %+v", s, stateOf(c), want, before)
		}
		steps, err := walkRecorded(c, two, 0)
		if err != nil || len(steps) != 0 || stateOf(c) != before {
			t.Errorf("Walk after halt: err %v, %d steps, state %+v", err, len(steps), stateOf(c))
		}
	})

	t.Run("pc past the image", func(t *testing.T) {
		c := emu.New(nil)
		c.PC = two.Len()
		s := c.StepOne(two)
		want := emu.Step{PC: 2, Instr: isa.Instr{Op: isa.OpHalt}, NextPC: 2}
		if s != want || !c.Halted || c.Executed != 1 {
			t.Errorf("step %+v, halted %v, executed %d; want %+v, halted, 1", s, c.Halted, c.Executed, want)
		}
	})
}

// BenchmarkWalk times the bare interpreter loop (Run, a Walk with a
// no-op observer) over the first million instructions of two registry
// programs and reports it per instruction.
func BenchmarkWalk(b *testing.B) {
	const n = 1_000_000
	for _, name := range []string{"gcc", "mcf"} {
		wl, err := workload.Spec(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var executed uint64
			for b.Loop() {
				c := emu.New(wl.NewMem())
				if err := c.Run(wl.Program, n); err != nil && err != emu.ErrLimit {
					b.Fatal(err)
				}
				executed += c.Executed
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(executed), "ns/instr")
		})
	}
}
