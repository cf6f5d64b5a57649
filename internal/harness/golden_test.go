package harness

import (
	"fmt"
	"testing"

	"civect/internal/core"
)

// TestGoldenStats pins exact simulation statistics for a spread of
// fixed-seed workloads and machine configurations. The simulator is
// deterministic, so any change to these digests means the modeled
// machine behaved differently — the hot-path optimisations (buffer
// pooling, dense tables, the active-entry worklist) are required to be
// semantics-preserving, and this test is the tripwire.
//
// The values were recorded after the worklist aliasing fix (an SRSMT
// way's next incarnation used to inherit its predecessor's worklist
// listing and got two replica-arbitration turns per cycle); the scalar
// and wide-bus rows are bit-identical with the original seed, the
// vectorizing rows differ from the seed only through that fix.
func TestGoldenStats(t *testing.T) {
	cases := []struct {
		spec RunSpec
		want string
	}{
		{RunSpec{Bench: "gcc", Mode: core.ModeScalar, Ports: 1, Regs: 256, MaxInstr: 40000},
			"30626 40000 0 89726 49665 0 766 0 0 0 0 5301"},
		{RunSpec{Bench: "gcc", Mode: core.ModeCI, Ports: 1, Regs: 256, MaxInstr: 40000},
			"28968 40004 11470 50950 10900 17467 798 1294 577 0 0 4796"},
		{RunSpec{Bench: "gzip", Mode: core.ModeCI, Ports: 2, Regs: 512, Replicas: 8, MaxInstr: 40000},
			"11159 40000 7909 61733 21709 20678 499 1094 984 0 0 3494"},
		{RunSpec{Bench: "mcf", Mode: core.ModeCIIW, Ports: 1, Regs: 256, MaxInstr: 40000},
			"178901 40003 5762 52233 12010 0 903 0 0 6881 0 6353"},
		{RunSpec{Bench: "parser", Mode: core.ModeVect, Ports: 2, Regs: 256, MaxInstr: 40000},
			"23734 40005 10878 54662 14638 22530 952 2544 1029 0 0 4965"},
		{RunSpec{Bench: "gcc", Mode: core.ModeCI, Ports: 1, Regs: 256, SpecMem: 768, MaxInstr: 40000},
			"20997 40005 11165 66218 26048 19038 837 1467 1002 0 14867 4336"},
		{RunSpec{Bench: "twolf", Mode: core.ModeWideBus, Ports: 1, Regs: 128, MaxInstr: 40000},
			"84410 40005 0 63100 23021 0 840 0 0 0 0 4378"},
		{RunSpec{Bench: "vpr", Mode: core.ModeCI, Ports: 1, Regs: 0, NoDAEC: true, MaxInstr: 40000},
			"11516 40005 5579 62263 22201 19519 620 2020 2012 0 0 4410"},
	}
	// Every mode of gcc, gcc.big and mcf.big on the Table 1 machine at
	// 30k instructions, with the IPC and reuse fraction these runs
	// were first recorded with, compared bit for bit.
	table1 := []struct {
		bench      string
		mode       core.Mode
		want       string
		ipc, reuse float64
	}{
		{"gcc", core.ModeScalar, "23435 30007 0 65864 35822 0 579 0 0 0 0 3937", 1.2804352464262854, 0},
		{"gcc", core.ModeWideBus, "23402 30007 0 65706 35664 0 582 0 0 0 0 3685", 1.2822408341167422, 0},
		{"gcc", core.ModeCI, "24109 30006 8835 37946 7853 12753 600 853 348 0 0 3607", 1.2445974532332325, 0.2944411117776445},
		{"gcc", core.ModeCIIW, "23275 30007 7310 62821 32689 0 583 0 0 13968 0 3385", 1.2892373791621912, 0.24360982437431267},
		{"gcc", core.ModeVect, "24477 30006 8928 37673 7580 13872 606 1098 375 0 0 3730", 1.22588552518691, 0.2975404919016197},
		{"gcc.big", core.ModeScalar, "26111 30005 0 63745 33537 0 675 0 0 0 0 3990", 1.1491325495002107, 0},
		{"gcc.big", core.ModeWideBus, "26078 30005 0 63785 33577 0 675 0 0 0 0 3619", 1.150586701434159, 0},
		{"gcc.big", core.ModeCI, "25424 30004 0 55496 25319 2107 675 523 19 0 0 5679", 1.1801447451227187, 0},
		{"gcc.big", core.ModeCIIW, "25694 30005 5975 60204 29996 0 675 0 0 10613 0 3398", 1.16778236164085, 0.1991334777537077},
		{"gcc.big", core.ModeVect, "24971 30004 0 53497 23320 2722 675 678 14 0 0 6171", 1.2015538024107966, 0},
		{"mcf.big", core.ModeScalar, "100473 30004 0 39407 9190 0 609 0 0 0 0 5444", 0.2986274919630149, 0},
		{"mcf.big", core.ModeWideBus, "100472 30004 0 39721 9504 0 602 0 0 0 0 5073", 0.29863046420893385, 0},
		{"mcf.big", core.ModeCI, "100586 30004 0 40513 10349 1576 604 392 8 0 0 6527", 0.29829200882826634, 0},
		{"mcf.big", core.ModeCIIW, "100472 30004 3624 39427 9210 0 602 0 0 4063 0 4876", 0.29863046420893385, 0.12078389548060259},
		{"mcf.big", core.ModeVect, "100642 30004 0 39782 9622 4797 601 1192 28 0 0 9075", 0.2981260308817392, 0},
	}
	h := New(Options{Workers: 1})
	check := func(spec RunSpec, want string, ipc, reuse float64) {
		name := fmt.Sprintf("%s-%v-p%d-r%d", spec.Bench, spec.Mode, spec.Ports, spec.Regs)
		t.Run(name, func(t *testing.T) {
			st, err := h.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%d %d %d %d %d %d %d %d %d %d %d %d",
				st.Cycles, st.Committed, st.CommittedReuse, st.Fetched, st.SquashedBP,
				st.ReplicasDispatched, st.Mispredicts, st.VectorizedEntries,
				st.ValidationFails, st.IWCaptured, st.SpecMemCopies, st.L1D.Accesses)
			if got != want {
				t.Errorf("stats digest changed:\n got %s\nwant %s", got, want)
			}
			if ipc != 0 && (st.IPC() != ipc || st.ReuseFraction() != reuse) {
				t.Errorf("IPC %v, reuse fraction %v; want %v, %v", st.IPC(), st.ReuseFraction(), ipc, reuse)
			}
		})
	}
	for _, c := range cases {
		check(c.spec, c.want, 0, 0)
	}
	for _, c := range table1 {
		check(RunSpec{Bench: c.bench, Mode: c.mode, Ports: 1, Regs: 256, MaxInstr: 30_000}, c.want, c.ipc, c.reuse)
	}
}
