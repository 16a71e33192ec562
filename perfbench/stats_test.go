package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		ok     bool
		wantAt float64
	}{
		{99, false, 90}, // rank 90 leaves 9 beyond
		{100, true, 90}, // rank 90 leaves 10 beyond
		{250, true, 225},
	} {
		s := summarize(seq(c.n))
		if s.N != c.n {
			t.Errorf("n=%d: summary reports %d samples", c.n, s.N)
		}
		if s.P90OK != c.ok {
			t.Errorf("n=%d: p90 reportable = %v, want %v", c.n, s.P90OK, c.ok)
		}
		if s.P90 != c.wantAt {
			t.Errorf("n=%d: p90 = %v, want %v", c.n, s.P90, c.wantAt)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %v, want NaN", got)
	}
	s := summarize([]float64{5})
	if s.N != 1 || s.P50 != 5 || s.P90OK {
		t.Errorf("single sample summary = %+v", s)
	}
}
