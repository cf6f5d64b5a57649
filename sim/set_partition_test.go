package sim

import (
	"reflect"
	"testing"
)

// TestPartitionCoalescesDuplicates pins the sweep partition: a
// duplicate configuration over the same program and image joins the
// unit that first took it, however far down the point list it comes
// and even from a separate Load of the same name, while solo points
// (here a sampled one sharing a configuration with plain points) get a
// unit of their own. Workloads that own their image — two Custom
// workloads from one source, or a registry workload after SetWord —
// never coalesce with another workload. Units keep first-occurrence
// order.
func TestPartitionCoalescesDuplicates(t *testing.T) {
	cfg := func(regs int) Config {
		c := DefaultConfig(CI)
		c.PhysRegs = regs
		return c
	}
	load := func(name string) *Workload {
		w, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	custom := func() *Workload {
		w, err := Custom("k", "addi r1, r1, 1\nhalt\n")
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	gcc, gcc2, gzip := load("gcc"), load("gcc"), load("gzip")
	poked := load("gcc")
	poked.SetWord(0x1000, 7)
	c1, c2 := custom(), custom()
	a, b, c, d := cfg(256), cfg(320), cfg(384), cfg(448)
	points := []point{
		{w: gcc, st: settings{cfg: a}},
		{w: gcc, st: settings{cfg: b}},
		{w: gcc, st: settings{cfg: c}},
		{w: gcc, st: settings{cfg: a}}, // duplicate of point 0, three points on
		{w: gcc, st: settings{cfg: d}},
		{w: gcc, st: settings{cfg: b, sampling: &SamplingConfig{}}},
		{w: gcc2, st: settings{cfg: c}}, // a separate Load: joins point 2
		{w: gcc, st: settings{cfg: b}},
		{w: gzip, st: settings{cfg: a}},
		{w: poked, st: settings{cfg: a}},
		{w: c1, st: settings{cfg: a}},
		{w: c2, st: settings{cfg: a}},
		{w: c1, st: settings{cfg: a}}, // the same Custom workload: joins point 10
	}
	want := [][]int{{0, 3}, {1, 7}, {2, 6}, {4}, {5}, {8}, {9}, {10, 12}, {11}}
	if got := partition(points); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
