package gen

import (
	"context"
	"fmt"
)

// RowDegrees computes the generated graph's structural row degrees (= the
// paper's vertex degrees) with np workers, without materializing any edges:
// the generation engine streams into a per-worker row tally, and the
// workers' private arrays are summed afterwards. Because the generator never
// emits duplicate entries, the tallies are exact. This is how degree
// validation would run on a real distributed machine — one local pass, one
// reduction. A cancelled ctx returns ctx.Err().
func (g *Generator) RowDegrees(ctx context.Context, np int) ([]int64, error) {
	if g.mA > 1<<31 {
		return nil, fmt.Errorf("gen: %d vertices too many for an in-memory degree vector", g.mA)
	}
	if np < 1 {
		return nil, fmt.Errorf("gen: worker count %d; need at least 1", np)
	}
	tally := rowTally{n: g.mA, locals: make([][]int64, np)}
	if err := g.StreamTo(ctx, np, 0, tally); err != nil {
		return nil, err
	}
	total := make([]int64, g.mA)
	for _, local := range tally.locals {
		for i, v := range local {
			total[i] += v
		}
	}
	return total, nil
}

// rowTally is a batch-only fold sink: worker p counts its edges' rows into
// a private degree array, allocated on p's first batch (workers without
// triples never allocate one).
type rowTally struct {
	n      int64
	locals [][]int64
}

func (t rowTally) WriteBatch(p int, batch []Edge) error {
	local := t.locals[p]
	if local == nil {
		local = make([]int64, t.n)
		t.locals[p] = local
	}
	for _, e := range batch {
		local[e.Row]++
	}
	return nil
}

func (rowTally) Close() error { return nil }

// DegreeHistogram reduces RowDegrees into the n(d) histogram the paper's
// validation compares against predictions, skipping empty rows.
func (g *Generator) DegreeHistogram(ctx context.Context, np int) (map[int64]int64, error) {
	deg, err := g.RowDegrees(ctx, np)
	if err != nil {
		return nil, err
	}
	h := make(map[int64]int64)
	for _, d := range deg {
		if d > 0 {
			h[d]++
		}
	}
	return h, nil
}
