package sim

import (
	"reflect"
	"testing"
)

// TestPartitionCoalescesDuplicates pins the sweep partition: a
// duplicate configuration joins the unit that first took it, however
// far down the point list it comes, while solo points (here a sampled
// one sharing a configuration with plain points) get a unit of their
// own and never coalesce. Units keep first-occurrence order.
func TestPartitionCoalescesDuplicates(t *testing.T) {
	cfg := func(regs int) Config {
		c := DefaultConfig(CI)
		c.PhysRegs = regs
		return c
	}
	a, b, c, d := cfg(256), cfg(320), cfg(384), cfg(448)
	points := []settings{
		{cfg: a},
		{cfg: b},
		{cfg: c},
		{cfg: a}, // duplicate of point 0, three points on
		{cfg: d},
		{cfg: b, sampling: &SamplingConfig{}},
		{cfg: c},
		{cfg: b},
	}
	want := [][]int{{0, 3}, {1, 7}, {2, 6}, {4}, {5}}
	if got := partition(points); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
