package triangle

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/star"
)

// randomSymmetric builds a random simple symmetric graph on n vertices.
func randomSymmetric(n int, density float64, seed int64) *sparse.COO[int64] {
	rng := rand.New(rand.NewSource(seed))
	var tr []sparse.Triple[int64]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				tr = append(tr,
					sparse.Triple[int64]{Row: i, Col: j, Val: 1},
					sparse.Triple[int64]{Row: j, Col: i, Val: 1})
			}
		}
	}
	return sparse.MustCOO(n, n, tr)
}

func TestCSRCountersMatchCOOCounters(t *testing.T) {
	ctx := context.Background()
	graphs := []*sparse.COO[int64]{
		complete(6),
		randomSymmetric(40, 0.15, 1),
		randomSymmetric(25, 0.4, 2),
	}
	// Hub-heavy star products, the shape the weighted entry bands and the
	// degree ordering exist for, under each loop placement: hub loops put a
	// self-loop on the product's diagonal, leaf loops many.
	for _, loop := range []star.LoopMode{star.LoopHub, star.LoopLeaf, star.LoopNone} {
		d, err := core.FromPoints([]int{5, 3, 4}, loop)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for gi, a := range graphs {
		want, err := CountBoth(a)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		csr := a.ToCSR(sr)
		for _, np := range []int{1, 2, 4, 9} {
			got, err := CountBothCSR(ctx, csr, np)
			if err != nil {
				t.Fatalf("graph %d np=%d: %v", gi, np, err)
			}
			if got != want {
				t.Errorf("graph %d np=%d: CSR count %d, COO count %d", gi, np, got, want)
			}
			// The oriented counter consumes its input, so it gets a fresh copy.
			got, err = CountOrientedCSR(ctx, a.ToCSR(sr), np, nil)
			if err != nil {
				t.Fatalf("graph %d np=%d: oriented: %v", gi, np, err)
			}
			if got != want {
				t.Errorf("graph %d np=%d: oriented count %d, COO count %d", gi, np, got, want)
			}
		}
	}
}

func TestCSRCountersEmptyGraph(t *testing.T) {
	csr := sparse.MustCOO[int64](8, 8, nil).ToCSR(sr)
	got, err := CountBothCSR(context.Background(), csr, 4)
	if err != nil || got != 0 {
		t.Fatalf("empty graph: %d, %v", got, err)
	}
	got, err = CountOrientedCSR(context.Background(), csr, 4, nil)
	if err != nil || got != 0 {
		t.Fatalf("empty graph, oriented: %d, %v", got, err)
	}
}

func TestCSRCountersRejectBadInput(t *testing.T) {
	rect := sparse.MustCOO[int64](3, 4, nil).ToCSR(sr)
	if _, err := CountLinearAlgebraCSR(context.Background(), rect, 2); err == nil {
		t.Error("non-square accepted by linear-algebra counter")
	}
	if _, err := CountNodeIteratorCSR(context.Background(), rect, 2); err == nil {
		t.Error("non-square accepted by node-iterator counter")
	}
	if _, err := CountOrientedCSR(context.Background(), rect, 2, nil); err == nil {
		t.Error("non-square accepted by oriented counter")
	}
	sq := complete(4).ToCSR(sr)
	if _, err := CountLinearAlgebraCSR(context.Background(), sq, 0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := CountOrientedCSR(context.Background(), sq, 0, nil); err == nil {
		t.Error("zero workers accepted by oriented counter")
	}
	// A directed triangle 0→1→2→0 stores one direction of each edge. Every
	// vertex has degree 1, so ranking by id keeps 0→1 and 1→2 and drops
	// 2→0: kept 2 ≠ dropped 1 must be rejected, not counted.
	asym := &sparse.CSR[int64]{
		NumRows: 3, NumCols: 3,
		RowPtr: []int{0, 1, 2, 3},
		ColIdx: []int{1, 2, 0},
		Val:    []int64{1, 1, 1},
	}
	for _, np := range []int{1, 2} {
		a := &sparse.CSR[int64]{NumRows: 3, NumCols: 3, RowPtr: asym.RowPtr,
			ColIdx: append([]int(nil), asym.ColIdx...), Val: asym.Val}
		if got, err := CountOrientedCSR(context.Background(), a, np, nil); err == nil {
			t.Errorf("np=%d: asymmetric input accepted by oriented counter (count %d)", np, got)
		}
	}
}

func TestCSRCountersCancelled(t *testing.T) {
	csr := randomSymmetric(60, 0.3, 3).ToCSR(sr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountLinearAlgebraCSR(ctx, csr, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("linear-algebra err = %v, want context.Canceled", err)
	}
	if _, err := CountNodeIteratorCSR(ctx, csr, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("node-iterator err = %v, want context.Canceled", err)
	}
	if _, err := CountOrientedCSR(ctx, csr, 3, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("oriented err = %v, want context.Canceled", err)
	}
}
