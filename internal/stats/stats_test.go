package stats

import (
	"math"
	"testing"
)

func TestRelErr(t *testing.T) {
	if RelErr(110, 100) != 0.1 {
		t.Fatalf("relerr %g", RelErr(110, 100))
	}
	if RelErr(90, 100) != 0.1 {
		t.Fatalf("relerr %g", RelErr(90, 100))
	}
	if RelErr(5, 0) != 0 {
		t.Fatal("zero prediction not handled")
	}
	if RelErr(-110, -100) != 0.1 {
		t.Fatalf("negative relerr %g", RelErr(-110, -100))
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, x := range []float64{0.5, 1.5, 1.6, 3, 10} {
		h.Observe(x)
	}
	if h.N != 5 {
		t.Fatalf("n %d", h.N)
	}
	want := []int64{1, 2, 1, 1} // ≤1, ≤2, ≤4, overflow
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d: %d want %d (%v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if math.Abs(h.Sum-(0.5+1.5+1.6+3+10)) > 1e-12 {
		t.Fatalf("sum %g", h.Sum)
	}
	h.Reset()
	if h.N != 0 || h.Sum != 0 || h.Counts[3] != 0 || len(h.Bounds) != 3 {
		t.Fatalf("reset left %+v", h)
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(1) // le="1" is inclusive, Prometheus-style
	if h.Counts[0] != 1 || h.Counts[1] != 0 {
		t.Fatalf("boundary bucket: %v", h.Counts)
	}
}

func TestBucketBuilders(t *testing.T) {
	exp := ExpBounds(1, 4, 3)
	if exp[0] != 1 || exp[1] != 4 || exp[2] != 16 {
		t.Fatalf("exp %v", exp)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds not rejected")
		}
	}()
	NewHistogram([]float64{2, 1})
}
