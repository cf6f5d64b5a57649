package sample_test

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"civect/internal/sample"
	"civect/sim"
)

// TestSetBoundsSampledMachines sweeps sampled points in a sim.Set with
// Workers = k on more CPUs than k. Each sampled point measures its
// samples on helper goroutines, which may borrow the machines of idle
// workers but never more: at no moment do more than k machines step,
// and every point's Result still equals a lone Session's.
func TestSetBoundsSampledMachines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var stepping, peak atomic.Int32
	defer sample.SetMeasureHook(func(delta int) {
		n := stepping.Add(int32(delta))
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
	})()

	w, err := sim.Load("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var pts []sim.Point
	for _, c := range []int{3, 4, 5} {
		pts = append(pts, sim.Point{Workload: w, Options: []sim.Option{sim.WithInstrBudget(80_000),
			sim.WithSampling(sim.SamplingConfig{IntervalLen: 4_000, Clusters: c, Warmup: 1_000})}})
	}
	want := make([]*sim.SampledRun, len(pts))
	for i, p := range pts {
		sess, err := sim.New(p.Workload, p.Options...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Sampled
	}
	for _, k := range []int{1, 2} {
		peak.Store(0)
		set, err := sim.NewSet(pts...)
		if err != nil {
			t.Fatal(err)
		}
		set.Workers = k
		results, err := set.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if !reflect.DeepEqual(res.Sampled, want[i]) {
				t.Errorf("workers=%d point %d: sampled estimate differs from a lone Session's", k, i)
			}
		}
		if got := peak.Load(); got > int32(k) {
			t.Errorf("workers=%d: %d sample machines stepped at once", k, got)
		}
		t.Logf("workers=%d: peak %d machines stepping", k, peak.Load())
	}
}
