// Package stats provides the simulator's two statistical helpers: the
// relative error of a prediction table, and the fixed-bucket histogram
// behind the obs metrics registry's histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// RelErr returns |measured−predicted| / |predicted| (0 when the
// prediction is 0), the accuracy column of the prediction tables.
func RelErr(measured, predicted float64) float64 {
	if predicted == 0 {
		return 0
	}
	return math.Abs(measured-predicted) / math.Abs(predicted)
}

// Histogram is a fixed-bucket histogram: Bounds are ascending upper
// bounds, and observations beyond the last bound land in an implicit
// +Inf overflow bucket.
type Histogram struct {
	Bounds []float64 // ascending upper bounds (inclusive, Prometheus-style le)
	Counts []int64   // len(Bounds)+1: last entry is the overflow bucket
	N      int64
	Sum    float64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. It panics on empty or unsorted bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]int64, len(bounds)+1),
	}
}

// ExpBounds returns n ascending bounds start, start·factor, … .
func ExpBounds(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("stats: ExpBounds needs n ≥ 1, start > 0, factor > 1")
	}
	out := make([]float64, n)
	x := start
	for i := range out {
		out[i] = x
		x *= factor
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.Bounds, x) // first bound ≥ x
	h.Counts[i]++
	h.N++
	h.Sum += x
}

// Reset clears every observation, keeping the bucket bounds.
func (h *Histogram) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.N, h.Sum = 0, 0
}
