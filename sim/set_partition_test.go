package sim

import (
	"reflect"
	"testing"
)

// TestPartitionCoalescesAcrossWaves pins the sweep partition at width
// 2: a duplicate three points after its first occurrence — two waves
// later — joins the first lane instead of taking a lane of its own, a
// session point runs alone and never coalesces, and width 1 keeps one
// unit per point.
func TestPartitionCoalescesAcrossWaves(t *testing.T) {
	cfg := func(regs int) Config {
		c := DefaultConfig(CI)
		c.PhysRegs = regs
		return c
	}
	a, b, c, d := cfg(256), cfg(320), cfg(384), cfg(448)
	points := []setPoint{
		{cfg: a},
		{cfg: b},
		{cfg: c},
		{cfg: a}, // duplicate of point 0, three points on
		{cfg: d},
		{cfg: b, session: true},
		{cfg: c},
	}
	want := []sweepUnit{
		{lanes: [][]int{{0, 3}, {1}}},
		{lanes: [][]int{{2, 6}, {4}}},
		{single: 5},
	}
	if got := partition(points, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("width 2:\n got %+v\nwant %+v", got, want)
	}

	want = []sweepUnit{
		{lanes: [][]int{{0}}}, {lanes: [][]int{{1}}}, {lanes: [][]int{{2}}}, {lanes: [][]int{{3}}},
		{lanes: [][]int{{4}}}, {single: 5}, {lanes: [][]int{{6}}},
	}
	if got := partition(points, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("width 1:\n got %+v\nwant %+v", got, want)
	}
}
