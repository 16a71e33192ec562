package gen

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/sparse"
	"repro/internal/star"
)

// Distributed degree tallies must equal the realized matrix's row degrees
// for every loop mode and worker count.
func TestRowDegreesMatchRealized(t *testing.T) {
	for _, tc := range []struct {
		pts  []int
		loop star.LoopMode
	}{
		{[]int{3, 4, 5}, star.LoopNone},
		{[]int{3, 4, 5}, star.LoopHub},
		{[]int{3, 4, 5}, star.LoopLeaf},
	} {
		d, g := mustGen(t, tc.pts, tc.loop, 2)
		a, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		want := sparse.RowNNZCounts(a, sr)
		for _, np := range []int{1, 3, 8} {
			got, err := g.RowDegrees(context.Background(), np)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v: %d degrees, want %d", d, len(got), len(want))
			}
			for v := range want {
				if got[v] != int64(want[v]) {
					t.Errorf("%v np=%d: degree[%d] = %d, want %d", d, np, v, got[v], want[v])
				}
			}
		}
	}
}

// The distributed histogram must equal the design's predicted distribution.
func TestDegreeHistogramMatchesPrediction(t *testing.T) {
	d, g := mustGen(t, []int{3, 4, 5, 9}, star.LoopHub, 2)
	hist, err := g.DegreeHistogram(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := d.DegreeDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(hist)) != int64(dist.Len()) {
		t.Fatalf("histogram has %d degrees, prediction %d", len(hist), dist.Len())
	}
	for deg, n := range hist {
		if want := dist.CountAt(big.NewInt(deg)); want.Int64() != n {
			t.Errorf("n(%d) = %d, predicted %s", deg, n, want)
		}
	}
}

// Degree sum equals twice nothing — it equals the edge (nnz) count exactly.
func TestRowDegreesSumEqualsEdges(t *testing.T) {
	_, g := mustGen(t, []int{3, 4, 5}, star.LoopLeaf, 1)
	deg, err := g.RowDegrees(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range deg {
		sum += v
	}
	if sum != g.NumEdges() {
		t.Errorf("Σdeg = %d, want %d", sum, g.NumEdges())
	}
}
