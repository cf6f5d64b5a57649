package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no values).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

func durationsMS(samples []opSample) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = ms(s.dur)
	}
	return xs
}

// byCell groups op samples by cell, in cell order.
func byCell(samples []opSample) [][]opSample {
	groups := map[int][]opSample{}
	for _, s := range samples {
		groups[s.cell] = append(groups[s.cell], s)
	}
	cells := make([]int, 0, len(groups))
	for c := range groups {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	out := make([][]opSample, len(cells))
	for i, c := range cells {
		out[i] = groups[c]
	}
	return out
}

// cellMedianMS is the geometric mean over cells of each cell's median op
// time. Cells differ in cost by up to 10x; pooling them would put the
// median in a gap between cells and make it jump between runs.
func cellMedianMS(samples []opSample) float64 {
	cells := byCell(samples)
	var logSum float64
	for _, ops := range cells {
		logSum += math.Log(median(durationsMS(ops)))
	}
	return math.Exp(logSum / float64(len(cells)))
}

// typicalRound returns the simulated and stream instructions of one
// round of cells and its time in seconds when every cell takes its
// median op time; throughput from it ignores outlier ops the way
// cellMedianMS does.
func typicalRound(samples []opSample) (instr, stream, secs float64) {
	for _, ops := range byCell(samples) {
		// A cell's instruction counts repeat exactly; a failed op
		// reports none, so take the largest.
		var in, st uint64
		for _, s := range ops {
			in, st = max(in, s.instr), max(st, s.stream)
		}
		instr += float64(in)
		stream += float64(st)
		secs += median(durationsMS(ops)) / 1000
	}
	return instr, stream, secs
}
