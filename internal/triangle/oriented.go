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
// The intersections are marked rows: each worker owns an n-byte mark array,
// marks out(u) once per row, sums the marks under out(w) for every w in
// out(u), and clears out(u)'s marks before the next row. The probe loop is
// branchless, and needs no endpoint test: an oriented row never holds its
// own vertex, so neither u nor w can be in the intersection.
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
// Every step runs on np workers — orientation over row bands of equal stored
// entries, the count over row bands of equal probe cost — and checks ctx
// about every cancelCheckStride entries. Once the count completes, each
// worker records its oriented entries and its busy time across all steps
// into st, which may be nil.
func CountOrientedCSR(ctx context.Context, a *sparse.CSR[int64], np int, st *obs.Stage) (int64, error) {
	if err := checkShape(a, np); err != nil {
		return 0, err
	}
	busy := make([]time.Duration, np)
	o, bands, err := orient(ctx, a, np, busy)
	if err != nil {
		return 0, err
	}
	cuts, err := o.probeCuts(ctx, bands, busy)
	if err != nil {
		return 0, err
	}

	// Step 2: sum |out(u) ∩ out(w)| over every oriented entry (u, w).
	sums := make([]int64, np)
	err = parallel.RunContext(ctx, np, func(ctx context.Context, p int) error {
		start := time.Now()
		tris, entries, err := o.probeRows(ctx, cuts[p], cuts[p+1], make([]byte, a.NumRows))
		if err != nil {
			return err
		}
		sums[p] = tris
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

// oriented is an adjacency matrix after orientation: row u's out-neighbours,
// sorted, are a.ColIdx[a.RowPtr[u]:ends[u]].
type oriented struct {
	a    *sparse.CSR[int64]
	ends []int
}

func (o oriented) out(u int) []int { return o.a.ColIdx[o.a.RowPtr[u]:o.ends[u]] }

// orient is step 1: it orients every row of a in place on np workers and
// checks symmetry. A row reads only RowPtr (the original degrees) and writes
// only its own span, so bands share nothing. It returns the oriented matrix
// and its np+1 row-band boundaries, of about equal stored entries, and adds
// each worker's time to busy.
func orient(ctx context.Context, a *sparse.CSR[int64], np int, busy []time.Duration) (oriented, []int, error) {
	n := a.NumRows
	o := oriented{a: a, ends: make([]int, n)}
	kept := make([]int64, np)
	dropped := make([]int64, np)
	bands := make([]int, np+1)
	for p := 1; p < np; p++ {
		bands[p] = rowOfEntry(a, a.NNZ()/np*p)
	}
	bands[np] = n
	err := parallel.RunContext(ctx, np, func(ctx context.Context, p int) error {
		start := time.Now()
		var k, d int64
		untilCheck := cancelCheckStride
		for u := bands[p]; u < bands[p+1]; u++ {
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
			o.ends[u] = end
			k += int64(end - lo)
			if untilCheck -= hi - lo + 1; untilCheck <= 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				untilCheck = cancelCheckStride
			}
		}
		kept[p], dropped[p] = k, d
		busy[p] += time.Since(start)
		return nil
	})
	if err != nil {
		return oriented{}, nil, err
	}
	var keptAll, droppedAll int64
	for p := range kept {
		keptAll += kept[p]
		droppedAll += dropped[p]
	}
	if keptAll != droppedAll {
		return oriented{}, nil, fmt.Errorf("triangle: orientation kept %d off-diagonal entries but dropped %d; input not symmetric?", keptAll, droppedAll)
	}
	return o, bands, nil
}

// probeRows is step 2 on rows [lo, hi): it returns the triangles those rows'
// oriented entries close and the number of those entries. mark must be
// all zero, one byte per vertex, and is all zero again on return.
//
// A row with fewer than two entries closes no triangle (both w and x must
// be in out(u)), so it is only counted. Every row, skipped ones included,
// advances the cancellation countdown by its probeCost, so a run of tiny
// rows still checks ctx about every cancelCheckStride entries.
func (o oriented) probeRows(ctx context.Context, lo, hi int, mark []byte) (tris, entries int64, err error) {
	rowPtr, colIdx, ends := o.a.RowPtr, o.a.ColIdx, o.ends
	untilCheck := cancelCheckStride
	for u := lo; u < hi; u++ {
		out := colIdx[rowPtr[u]:ends[u]]
		entries += int64(len(out))
		untilCheck -= len(out) + 1
		if len(out) >= 2 {
			for _, x := range out {
				mark[x] = 1
			}
			for _, w := range out {
				wOut := colIdx[rowPtr[w]:ends[w]]
				var c int
				for _, x := range wOut {
					c += int(mark[x])
				}
				tris += int64(c)
				untilCheck -= len(wOut) + 1
			}
			for _, x := range out {
				mark[x] = 0
			}
		}
		if untilCheck <= 0 {
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
			untilCheck = cancelCheckStride
		}
	}
	return tris, entries, nil
}

// probeCost is probeRows' work on row u: marking and clearing out(u), plus,
// when the row is probed at all, one pass over out(w) for each w in out(u).
// The extra 1s charge each row and each probe a constant overhead, so a
// band of many empty rows is not weighed as free.
func (o oriented) probeCost(u int) int64 {
	out := o.out(u)
	c := int64(len(out)) + 1
	if len(out) >= 2 {
		for _, w := range out {
			c += int64(o.ends[w]-o.a.RowPtr[w]) + 1
		}
	}
	return c
}

// costChunk is how many consecutive rows share one partial sum in
// probeCuts, which so allocates n/costChunk sums instead of one per row.
const costChunk = 64

// probeCuts splits the oriented rows into np contiguous bands of about
// equal probeCost and returns their np+1 row boundaries. The costs are
// summed per chunk of costChunk rows in parallel, over orientation's bands
// rounded down to whole chunks, and cut by one serial prefix scan over the
// chunk sums, which re-walks only the rows of a chunk a boundary falls in.
// Row granularity suffices, unlike for full rows: the k neighbours an
// oriented row keeps each have degree ≥ k, so k ≤ √nnz and a hub no longer
// concentrates the work in one row. Worker p's time is added to busy[p].
func (o oriented) probeCuts(ctx context.Context, bands []int, busy []time.Duration) ([]int, error) {
	np := len(bands) - 1
	n := o.a.NumRows
	chunkEnd := func(c int) int { return min(n, (c+1)*costChunk) }
	sums := make([]int64, (n+costChunk-1)/costChunk)
	err := parallel.RunContext(ctx, np, func(ctx context.Context, p int) error {
		start := time.Now()
		hi := len(sums)
		if p+1 < np {
			hi = bands[p+1] / costChunk
		}
		untilCheck := int64(cancelCheckStride)
		for c := bands[p] / costChunk; c < hi; c++ {
			var s int64
			for u := c * costChunk; u < chunkEnd(c); u++ {
				s += o.probeCost(u)
			}
			sums[c] = s
			if untilCheck -= s; untilCheck <= 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				untilCheck = cancelCheckStride
			}
		}
		busy[p] += time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, s := range sums {
		total += s
	}
	target := func(p int) int64 { return total / int64(np) * int64(p) }
	cuts := make([]int, np+1)
	for p := 1; p <= np; p++ {
		cuts[p] = n
	}
	var acc int64
	p := 1
	for c := 0; c < len(sums) && p < np; c++ {
		if acc+sums[c] < target(p) {
			acc += sums[c]
			continue
		}
		for u := c * costChunk; u < chunkEnd(c) && p < np; u++ {
			acc += o.probeCost(u)
			for ; p < np && acc >= target(p); p++ {
				cuts[p] = u + 1
			}
		}
	}
	return cuts, nil
}
