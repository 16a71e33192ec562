// Package triangle counts triangles in realized graphs. Validation counts
// each triangle once with the degree-ordered forward algorithm
// (CountOrientedCSR) and confirms the designer's closed-form prediction with
// it. Two independent counters stay as the tests' oracles and the
// benchmark's probes: the linear-algebra formula of Section IV-A,
// Ntri = (1/6)·1ᵀ(AA ⊗ A)1, via the sparse substrate, and a combinatorial
// node-iterator.
package triangle

import (
	"context"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// CountLinearAlgebra evaluates Ntri = (1/6)·1ᵀ((A·A) ⊗ A)1 on a symmetric
// 0/1 adjacency matrix with an empty diagonal. The element-wise product with
// A restricts the 2-path counts in A·A to closed triangles; each triangle is
// counted 6 times (3 vertices × 2 orientations). The product is evaluated
// through the masked multiply (A·A masked by A's pattern), so memory stays
// O(nnz) even when A·A itself would be dense — as it is for the hub-heavy
// graphs this library designs.
func CountLinearAlgebra(a *sparse.COO[int64]) (int64, error) {
	sr := semiring.PlusTimesInt64()
	if a.NumRows != a.NumCols {
		return 0, fmt.Errorf("triangle: adjacency must be square, got %dx%d", a.NumRows, a.NumCols)
	}
	csr := a.ToCSR(sr)
	hadamard, err := sparse.MxMMasked(csr, csr, csr, sr)
	if err != nil {
		return 0, err
	}
	total := sparse.ReduceAll(hadamard.ToCOO(), sr)
	if total%6 != 0 {
		return 0, fmt.Errorf("triangle: 1ᵀ(AA⊗A)1 = %d not divisible by 6; input not a simple symmetric graph?", total)
	}
	return total / 6, nil
}

// CountNodeIterator counts triangles combinatorially with the edge-iterator
// strategy: for every edge (u, w) with u < w it counts the common neighbors
// |N(u) ∩ N(w)| by merging the two sorted adjacency lists; each triangle is
// found once per edge, so the total divides by 3. Self-loops are ignored.
// It serves as an independent cross-check on the algebraic count.
func CountNodeIterator(a *sparse.COO[int64]) (int64, error) {
	sr := semiring.PlusTimesInt64()
	if a.NumRows != a.NumCols {
		return 0, fmt.Errorf("triangle: adjacency must be square, got %dx%d", a.NumRows, a.NumCols)
	}
	csr := a.ToCSR(sr)
	var count int64
	for u := 0; u < csr.NumRows; u++ {
		uCols, _ := csr.Row(u)
		for _, w := range uCols {
			if w <= u {
				continue // lower triangle or self-loop; symmetric input
			}
			wCols, _ := csr.Row(w)
			count += commonNeighbors(uCols, wCols, u, w)
		}
	}
	// Each triangle is found once per edge.
	if count%3 != 0 {
		return 0, fmt.Errorf("triangle: edge-iterator count %d not divisible by 3; input not symmetric?", count)
	}
	return count / 3, nil
}

// commonNeighbors merge-counts indices present in both sorted lists,
// excluding the endpoints themselves (self-loop entries).
func commonNeighbors(a, b []int, u, w int) int64 {
	var n int64
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			if a[x] != u && a[x] != w {
				n++
			}
			x++
			y++
		}
	}
	return n
}

// CountBoth runs both algorithms and errors if they disagree — a cheap
// self-consistency check the validation harness leans on.
func CountBoth(a *sparse.COO[int64]) (int64, error) {
	la, err := CountLinearAlgebra(a)
	if err != nil {
		return 0, err
	}
	ni, err := CountNodeIterator(a)
	if err != nil {
		return 0, err
	}
	if la != ni {
		return 0, fmt.Errorf("triangle: algorithms disagree: linear-algebra %d, node-iterator %d", la, ni)
	}
	return la, nil
}

// --- CSR-native parallel counters ----------------------------------------
//
// The streaming validation engine holds the measured graph as a canonical
// CSR, so the counters below (and CountOrientedCSR, which validation runs)
// work on it directly — no COO round trip, no re-sort, no dedupe. The
// full-row counters here partition the work across np goroutines at
// stored-entry granularity. Row-granular partitions starve on the
// hub-dominated graphs this library designs (a single hub row can carry
// half the quadratic merge work), so bands come from sparse.EdgeBands,
// which weighs each entry (i,j) by deg(i)+deg(j) and may split a hub row
// across workers. Partial sums are integers, so any partition yields the
// identical total. Cancellation is checked about every cancelCheckStride
// stored entries per worker.

// cancelCheckStride is how many stored entries a triangle worker processes
// between context checks: coarse enough to stay off the hot path, fine
// enough that a hub row cannot pin a cancelled validation for long.
const cancelCheckStride = 1 << 12

// CountLinearAlgebraCSR evaluates Ntri = (1/6)·1ᵀ((A·A) ⊗ A)1 on a
// canonical CSR adjacency matrix with np parallel workers. A must be
// symmetric — true by construction for the measured undirected graphs the
// engine validates — which lets entry (i,j) accumulate
// A(i,j) · Σₖ A(i,k)A(k,j) by intersecting row i with row j directly, with
// no transposed copy doubling the peak memory the 2^30-edge cap is sized
// to. An asymmetric input fails the divisibility check below (or the
// CountBothCSR cross-check) rather than returning silently wrong counts.
func CountLinearAlgebraCSR(ctx context.Context, a *sparse.CSR[int64], np int) (int64, error) {
	bands, err := checkCSR(a, np)
	if err != nil {
		return 0, err
	}
	return countLinearAlgebraBands(ctx, a, bands)
}

func countLinearAlgebraBands(ctx context.Context, a *sparse.CSR[int64], bands [][2]int) (int64, error) {
	total, err := sumLinearAlgebraBands(ctx, a, bands)
	if err != nil {
		return 0, err
	}
	if total%6 != 0 {
		return 0, fmt.Errorf("triangle: 1ᵀ(AA⊗A)1 = %d not divisible by 6; input not a simple symmetric graph?", total)
	}
	return total / 6, nil
}

// sumLinearAlgebraBands evaluates the raw quantity 1ᵀ((A·A) ⊗ A)1 restricted
// to the given stored-entry bands, exploiting symmetry: for an entry (i,j)
// with j > i the mirrored entry (j,i) contributes the identical dot product,
// so only the upper triangle is intersected and its sum doubled (diagonal
// entries, absent from the simple graphs the engine measures but tolerated,
// count once). That halves the intersection work of the dominant validation
// phase without touching the band partition — upper- and lower-triangle
// entries of a symmetric matrix are equally distributed across entry bands,
// so the halving thins every band evenly rather than starving some workers.
// Skipped lower-triangle entries still advance the cancellation budget, so a
// cancelled count stops within the same stride it always did.
func sumLinearAlgebraBands(ctx context.Context, a *sparse.CSR[int64], bands [][2]int) (int64, error) {
	sums := make([]int64, len(bands))
	err := parallel.RunContext(ctx, len(bands), func(ctx context.Context, p int) error {
		var upper, diag int64
		i := rowOfEntry(a, bands[p][0])
		untilCheck := cancelCheckStride
		for k := bands[p][0]; k < bands[p][1]; k++ {
			for a.RowPtr[i+1] <= k {
				i++
			}
			j := a.ColIdx[k]
			if j < i {
				if untilCheck--; untilCheck <= 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
					untilCheck = cancelCheckStride
				}
				continue // mirrored by (j,i) in some band; counted there, doubled below
			}
			iCols, iVals := a.Row(i)
			jCols, jVals := a.Row(j)
			dot := sparseDotInt64(iCols, iVals, jCols, jVals) * a.Val[k]
			if j == i {
				diag += dot
			} else {
				upper += dot
			}
			if untilCheck -= len(iCols) + len(jCols) + 1; untilCheck <= 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				untilCheck = cancelCheckStride
			}
		}
		sums[p] = 2*upper + diag
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

// SumLinearAlgebraBands exposes the raw band-restricted sum 1ᵀ((A·A) ⊗ A)1
// over an explicit list of stored-entry [lo, hi) bands — no /6, no
// divisibility check. It exists for the sampled validation mode: the sum is
// linear over bands, and sparse.EdgeBands produces approximately equal-weight
// bands, so evaluating a subset and scaling by the inverse sampling fraction
// estimates the whole-graph quantity at a fraction of the cost. A must be
// symmetric (the halving above assumes each off-diagonal entry has its
// mirror somewhere in the full entry space, whether or not that mirror's
// band is evaluated).
func SumLinearAlgebraBands(ctx context.Context, a *sparse.CSR[int64], bands [][2]int) (int64, error) {
	if a.NumRows != a.NumCols {
		return 0, fmt.Errorf("triangle: adjacency must be square, got %dx%d", a.NumRows, a.NumCols)
	}
	return sumLinearAlgebraBands(ctx, a, bands)
}

// CountNodeIteratorCSR is the combinatorial cross-check on CSR input: for
// every stored entry (u, w) with u < w it merge-counts |N(u) ∩ N(w)|, in
// parallel over the same weighted entry bands. Like the algebraic counter
// it requires symmetric input.
func CountNodeIteratorCSR(ctx context.Context, a *sparse.CSR[int64], np int) (int64, error) {
	bands, err := checkCSR(a, np)
	if err != nil {
		return 0, err
	}
	return countNodeIteratorBands(ctx, a, bands)
}

func countNodeIteratorBands(ctx context.Context, a *sparse.CSR[int64], bands [][2]int) (int64, error) {
	sums := make([]int64, len(bands))
	err := parallel.RunContext(ctx, len(bands), func(ctx context.Context, p int) error {
		var acc int64
		u := rowOfEntry(a, bands[p][0])
		untilCheck := cancelCheckStride
		for k := bands[p][0]; k < bands[p][1]; k++ {
			for a.RowPtr[u+1] <= k {
				u++
			}
			w := a.ColIdx[k]
			if w <= u {
				continue // lower triangle or self-loop; symmetric input
			}
			uCols, _ := a.Row(u)
			wCols, _ := a.Row(w)
			acc += intersectCount(uCols, wCols, u, w)
			if untilCheck -= len(uCols) + len(wCols) + 1; untilCheck <= 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				untilCheck = cancelCheckStride
			}
		}
		sums[p] = acc
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range sums {
		total += s
	}
	if total%3 != 0 {
		return 0, fmt.Errorf("triangle: edge-iterator count %d not divisible by 3; input not symmetric?", total)
	}
	return total / 3, nil
}

// CountBothCSR runs both CSR counters with np workers each and errors if
// they disagree — a self-consistency check that tests use as an oracle for
// CountOrientedCSR and the benchmark times as a probe. The weighted bands are computed once and shared: the band scan is a serial
// O(nnz) pass, and paying it twice would bottleneck the parallel counters
// on large graphs.
func CountBothCSR(ctx context.Context, a *sparse.CSR[int64], np int) (int64, error) {
	bands, err := checkCSR(a, np)
	if err != nil {
		return 0, err
	}
	la, err := countLinearAlgebraBands(ctx, a, bands)
	if err != nil {
		return 0, err
	}
	ni, err := countNodeIteratorBands(ctx, a, bands)
	if err != nil {
		return 0, err
	}
	if la != ni {
		return 0, fmt.Errorf("triangle: algorithms disagree: linear-algebra %d, node-iterator %d", la, ni)
	}
	return la, nil
}

// checkCSR validates counter input and computes the shared entry bands.
func checkCSR(a *sparse.CSR[int64], np int) ([][2]int, error) {
	if err := checkShape(a, np); err != nil {
		return nil, err
	}
	return a.EdgeBands(np), nil
}

// checkShape rejects non-square adjacency and worker counts below one.
func checkShape(a *sparse.CSR[int64], np int) error {
	if a.NumRows != a.NumCols {
		return fmt.Errorf("triangle: adjacency must be square, got %dx%d", a.NumRows, a.NumCols)
	}
	if np < 1 {
		return fmt.Errorf("triangle: need at least one worker, got %d", np)
	}
	return nil
}

// rowOfEntry binary-searches RowPtr for the row containing stored-entry
// index k (the first row whose span ends past k).
func rowOfEntry[T any](a *sparse.CSR[T], k int) int {
	lo, hi := 0, a.NumRows
	for lo < hi {
		mid := (lo + hi) / 2
		if a.RowPtr[mid+1] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intersectRatio is the length imbalance at which the CSR counters switch
// from a linear merge to binary-searching the short list into the long one.
// Hub-dominated power-law graphs pair tiny leaf lists against the hub's
// near-complete row constantly; a linear merge pays deg(hub) per pair where
// the search pays |short|·log deg(hub). This is where the streaming engine's
// triangle throughput on paper-shaped graphs comes from — the materialized
// baseline keeps the plain merge on purpose. The constant is
// sparse.IntersectRatio so EdgeBands' cost model and the counters' actual
// work cannot drift apart.
const intersectRatio = sparse.IntersectRatio

// searchFrom returns the first index p ≥ lo with cols[p] >= want.
func searchFrom(cols []int, lo, want int) int {
	hi := len(cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cols[mid] < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sparseDotInt64 computes the plus-times dot product of two sorted sparse
// vectors, adaptively: linear merge for comparable lengths, binary search
// of the shorter into the longer when badly imbalanced.
func sparseDotInt64(ai []int, av []int64, bi []int, bv []int64) int64 {
	if len(ai) > len(bi) {
		ai, bi = bi, ai
		av, bv = bv, av
	}
	var acc int64
	if len(bi) >= intersectRatio*len(ai) {
		p := 0
		for x, c := range ai {
			p = searchFrom(bi, p, c)
			if p == len(bi) {
				break
			}
			if bi[p] == c {
				acc += av[x] * bv[p]
				p++
			}
		}
		return acc
	}
	x, y := 0, 0
	for x < len(ai) && y < len(bi) {
		switch {
		case ai[x] < bi[y]:
			x++
		case ai[x] > bi[y]:
			y++
		default:
			acc += av[x] * bv[y]
			x++
			y++
		}
	}
	return acc
}

// intersectCount counts indices present in both sorted lists, excluding the
// endpoints u and w, with the same adaptive merge/search strategy.
func intersectCount(a, b []int, u, w int) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var n int64
	if len(b) >= intersectRatio*len(a) {
		p := 0
		for _, c := range a {
			p = searchFrom(b, p, c)
			if p == len(b) {
				break
			}
			if b[p] == c {
				if c != u && c != w {
					n++
				}
				p++
			}
		}
		return n
	}
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			if a[x] != u && a[x] != w {
				n++
			}
			x++
			y++
		}
	}
	return n
}

// PerFactorTraceProduct computes ∏ₖ 1ᵀ(AₖAₖ ⊗ Aₖ)1 directly from realized
// constituent matrices, the component form of the paper's triangle identity.
func PerFactorTraceProduct(factors []*sparse.COO[int64]) (int64, error) {
	sr := semiring.PlusTimesInt64()
	prod := int64(1)
	for i, f := range factors {
		if f.NumRows != f.NumCols {
			return 0, fmt.Errorf("triangle: factor %d not square", i)
		}
		csr := f.ToCSR(sr)
		h, err := sparse.MxMMasked(csr, csr, csr, sr)
		if err != nil {
			return 0, err
		}
		prod *= sparse.ReduceAll(h.ToCOO(), sr)
	}
	return prod, nil
}
