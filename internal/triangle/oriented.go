package triangle

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// CountOrientedCSR counts the triangles of a symmetric adjacency matrix once
// each, with the degree-ordered "forward" algorithm (Chiba & Nishizeki 1985;
// Schank & Wagner 2005). Vertices are ranked by (degree, id), with degree
// taken as the row's stored-entry count, and each row keeps only the
// neighbours that rank above it. A triangle u ≺ w ≺ x is then found exactly
// once, as x ∈ out(u) ∩ out(w) for the oriented entry (u, w), and a hub's
// oriented row is nearly empty instead of holding the whole vertex set. It
// is validation's exact-path counter: one pass of intersection work over
// short rows, where CountBothCSR makes two passes over full rows. The
// design's closed-form count is its oracle.
//
// The count consumes a. Orientation compacts each row's kept neighbours
// into a sorted prefix of that row's span of a.ColIdx, in place, recording
// only an O(n) array of prefix ends, so no second adjacency copy is made.
// Afterwards a.ColIdx no longer holds a's rows and a must not be used again;
// a.RowPtr and a.Val are left untouched. Diagonal entries are dropped.
//
// Orientation also checks symmetry: a symmetric matrix keeps each
// off-diagonal entry in one direction and drops its mirror, so the kept and
// dropped totals must be equal, and the count errors when they are not.
//
// Both steps run on np workers — orientation over row bands of equal stored
// entries, the count over row bands of equal oriented intersection cost —
// and check ctx about every cancelCheckStride entries. Once the count
// completes, each worker records its oriented entries and its busy time
// across both steps into st, which may be nil.
func CountOrientedCSR(ctx context.Context, a *sparse.CSR[int64], np int, st *obs.Stage) (int64, error) {
	if err := checkShape(a, np); err != nil {
		return 0, err
	}
	n := a.NumRows
	ends := make([]int, n)
	busy := make([]time.Duration, np)
	kept := make([]int64, np)
	dropped := make([]int64, np)

	// Step 1: orient every row in place. A row reads only RowPtr (the
	// original degrees) and writes only its own span, so bands share nothing.
	cuts := make([]int, np+1)
	for p := 1; p < np; p++ {
		cuts[p] = rowOfEntry(a, a.NNZ()/np*p)
	}
	cuts[np] = n
	err := parallel.RunContext(ctx, np, func(ctx context.Context, p int) error {
		start := time.Now()
		var k, d int64
		untilCheck := cancelCheckStride
		for u := cuts[p]; u < cuts[p+1]; u++ {
			lo, hi := a.RowPtr[u], a.RowPtr[u+1]
			du := hi - lo
			end := lo
			for q := lo; q < hi; q++ {
				w := a.ColIdx[q]
				if dw := a.RowPtr[w+1] - a.RowPtr[w]; dw > du || (dw == du && w > u) {
					a.ColIdx[end] = w
					end++
				} else if w != u {
					d++
				}
			}
			ends[u] = end
			k += int64(end - lo)
			if untilCheck -= hi - lo + 1; untilCheck <= 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				untilCheck = cancelCheckStride
			}
		}
		kept[p], dropped[p] = k, d
		busy[p] = time.Since(start)
		return nil
	})
	if err != nil {
		return 0, err
	}
	var keptAll, droppedAll int64
	for p := range kept {
		keptAll += kept[p]
		droppedAll += dropped[p]
	}
	if keptAll != droppedAll {
		return 0, fmt.Errorf("triangle: orientation kept %d off-diagonal entries but dropped %d; input not symmetric?", keptAll, droppedAll)
	}

	// Step 2: sum |out(u) ∩ out(w)| over every oriented entry (u, w).
	cuts = orientedCostCuts(a, ends, np)
	sums := make([]int64, np)
	err = parallel.RunContext(ctx, np, func(ctx context.Context, p int) error {
		start := time.Now()
		var acc, entries int64
		untilCheck := cancelCheckStride
		for u := cuts[p]; u < cuts[p+1]; u++ {
			out := a.ColIdx[a.RowPtr[u]:ends[u]]
			for _, w := range out {
				wOut := a.ColIdx[a.RowPtr[w]:ends[w]]
				acc += intersectCount(out, wOut, u, w)
				if untilCheck -= len(out) + len(wOut) + 1; untilCheck <= 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
					untilCheck = cancelCheckStride
				}
			}
			entries += int64(len(out))
		}
		sums[p] = acc
		st.RecordWorker(p, int(entries), busy[p]+time.Since(start))
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range sums {
		total += s
	}
	return total, nil
}

// orientedCostCuts splits the rows of an oriented matrix into np contiguous
// bands of about equal intersection cost, weighing each oriented entry
// (u, w) by sparse.IntersectWeight(|out(u)|, |out(w)|) — the cost model the
// entry bands of the full-row counters use. It returns np+1 row boundaries.
// Row granularity suffices here, unlike for full rows: the k neighbours an
// oriented row keeps each have degree ≥ k, so k ≤ √nnz and a hub no longer
// concentrates the work in one row.
func orientedCostCuts(a *sparse.CSR[int64], ends []int, np int) []int {
	rowCost := func(u int) int64 {
		du := int64(ends[u] - a.RowPtr[u])
		var c int64
		for _, w := range a.ColIdx[a.RowPtr[u]:ends[u]] {
			c += sparse.IntersectWeight(du, int64(ends[w]-a.RowPtr[w]))
		}
		return c
	}
	n := a.NumRows
	var total int64
	for u := 0; u < n; u++ {
		total += rowCost(u)
	}
	cuts := make([]int, np+1)
	for p := 1; p <= np; p++ {
		cuts[p] = n
	}
	var acc int64
	p := 1
	for u := 0; u < n && p < np; u++ {
		acc += rowCost(u)
		for ; p < np && acc >= total/int64(np)*int64(p); p++ {
			cuts[p] = u + 1
		}
	}
	return cuts
}
