package validate

import (
	"context"
	"fmt"
	"math/big"
	"strings"

	"repro/internal/bigdeg"
	"repro/internal/core"
	"repro/internal/triangle"
)

// The sampled triangle estimate partitions the measured CSR into
// sampleBands weight-balanced entry bands and evaluates every sampleStride-th
// one, ~1/8 of the intersection work. Fine bands keep the sample's variance
// low: on hub-dominated power-law graphs the triangle mass concentrates in a
// few rows, and coarse bands make any sample that includes (or misses) a hub
// band wildly over- (or under-) shoot; at 1024 bands the hub rows spread
// over enough bands that a 1-in-8 stride lands within a few percent.
const (
	sampleBands  = 1024
	sampleStride = 8
)

// SampledReport is the approximate counterpart of Report, for interactive
// checks on designs whose exact triangle count would take minutes. The
// degree side is NOT approximated — tallying degrees in flight costs one
// pass over the edges regardless — so vertices, edges, and the full degree
// distribution are exact, summarized against the prediction by a
// Kolmogorov–Smirnov statistic (0 means the distributions agree exactly).
// Only the superlinear phase, triangle counting, is sampled: a deterministic
// stride-subset of the CSR's weight-balanced entry bands is evaluated and
// scaled by the inverse sampling fraction.
type SampledReport struct {
	Design  *core.Design
	Workers int

	PredictedVertices  *big.Int
	PredictedEdges     *big.Int
	PredictedTriangles *big.Int
	PredictedDegrees   *bigdeg.Dist

	MeasuredVertices int64
	MeasuredEdges    int64
	MeasuredDegrees  *bigdeg.Dist

	// KSStatistic is the Kolmogorov–Smirnov distance between the predicted
	// and measured degree CDFs — exactly 0 when the exact distributions
	// agree point-for-point.
	KSStatistic float64

	// EstimatedTriangles scales the sampled bands' count by the inverse
	// sampling fraction; TriangleRelError is its relative deviation from the
	// predicted count (what the estimate is for — a fast "is this graph the
	// one I designed" signal, not an exact measurement).
	EstimatedTriangles float64
	TriangleRelError   float64
	// SampledBands of TotalBands entry bands were evaluated.
	SampledBands int
	TotalBands   int

	// ExactAgreement covers the exactly-measured properties only (vertices,
	// edges, degree distribution); triangles are judged by TriangleRelError.
	ExactAgreement bool
	Mismatches     []string
}

// RunSampled generates the design with np workers and measures everything
// that is cheap exactly — edges, vertices, the full degree distribution, off
// the same two-pass CSR build Run uses — then estimates triangles from a
// deterministic stride-sample of the measured CSR's weight-balanced entry
// bands (sampleBands bands, every sampleStride-th evaluated). The estimate
// intersects full rows, while Run counts over a degree-ordered orientation,
// so the sampled mode is not reliably faster: on a 2-vCPU box it took
// 0.68–1.74× the time of Run across hub, leaf and none designs.
func RunSampled(ctx context.Context, d *core.Design, nb, np int) (*SampledReport, error) {
	return runSampled(ctx, d, nb, np, sampleBands, sampleStride)
}

// runSampled is RunSampled over nBands entry bands, evaluating every
// stride-th; stride 1 evaluates every band, making the estimate the exact
// count.
func runSampled(ctx context.Context, d *core.Design, nb, np, nBands, stride int) (*SampledReport, error) {
	pred, g, err := prepare(d, nb)
	if err != nil {
		return nil, err
	}
	a, err := buildCSR(ctx, pred, np, nil, g.StreamTo)
	if err != nil {
		return nil, err
	}
	md, touched, err := degrees(a.RowPtr, np)
	if err != nil {
		return nil, err
	}
	rep := &SampledReport{
		Design:             d,
		Workers:            np,
		PredictedVertices:  pred.Vertices,
		PredictedEdges:     pred.Edges,
		PredictedTriangles: pred.Triangles,
		PredictedDegrees:   pred.Degrees,
		MeasuredVertices:   touched,
		MeasuredEdges:      int64(a.NNZ()),
		MeasuredDegrees:    md,
		KSStatistic:        ksStatistic(pred.Degrees, md),
	}

	bands := a.EdgeBands(nBands)
	picked := make([][2]int, 0, (len(bands)+stride-1)/stride)
	for i := 0; i < len(bands); i += stride {
		picked = append(picked, bands[i])
	}
	raw, err := triangle.SumLinearAlgebraBands(ctx, a, picked)
	if err != nil {
		return nil, err
	}
	rep.TotalBands = len(bands)
	rep.SampledBands = len(picked)
	rep.EstimatedTriangles = float64(raw) * float64(len(bands)) / float64(len(picked)) / 6
	predTri, _ := new(big.Float).SetInt(pred.Triangles).Float64()
	if predTri > 0 {
		rep.TriangleRelError = (rep.EstimatedTriangles - predTri) / predTri
		if rep.TriangleRelError < 0 {
			rep.TriangleRelError = -rep.TriangleRelError
		}
	} else if rep.EstimatedTriangles != 0 {
		rep.TriangleRelError = 1
	}

	rep.Mismatches = mismatches(rep.PredictedVertices, rep.PredictedEdges, rep.PredictedDegrees,
		rep.MeasuredVertices, rep.MeasuredEdges, rep.MeasuredDegrees)
	rep.ExactAgreement = len(rep.Mismatches) == 0
	return rep, nil
}

// String renders the sampled report in the style of Report.String, with the
// triangle row marked as an estimate.
func (r *SampledReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design: %v  workers: %d  (sampled: %d/%d triangle bands)\n",
		r.Design, r.Workers, r.SampledBands, r.TotalBands)
	fmt.Fprintf(&b, "%-12s %24s %24s\n", "property", "predicted", "measured")
	fmt.Fprintf(&b, "%-12s %24s %24d\n", "vertices", r.PredictedVertices, r.MeasuredVertices)
	fmt.Fprintf(&b, "%-12s %24s %24d\n", "edges", r.PredictedEdges, r.MeasuredEdges)
	fmt.Fprintf(&b, "%-12s %24s %24.4g (estimate, %+.2f%%)\n", "triangles", r.PredictedTriangles,
		r.EstimatedTriangles, 100*r.TriangleRelError)
	fmt.Fprintf(&b, "degree KS statistic: %g\n", r.KSStatistic)
	if r.ExactAgreement {
		b.WriteString("RESULT: exact agreement on all exactly-measured properties\n")
	} else {
		fmt.Fprintf(&b, "RESULT: %d mismatches\n", len(r.Mismatches))
		for _, m := range r.Mismatches {
			fmt.Fprintf(&b, "  - %s\n", m)
		}
	}
	return b.String()
}

// ksStatistic computes the Kolmogorov–Smirnov distance between two exact
// degree distributions: the maximum absolute difference of their CDFs over
// the union of degree supports, each CDF normalized by its own total count.
// The cumulative sums stay arbitrary-precision; only the final per-point
// differences round to float64. Two empty distributions are distance 0; an
// empty one against a non-empty one is distance 1.
func ksStatistic(p, m *bigdeg.Dist) float64 {
	pe, me := p.Entries(), m.Entries()
	pt, mt := p.SumCounts(), m.SumCounts()
	pEmpty, mEmpty := pt.Sign() == 0, mt.Sign() == 0
	if pEmpty && mEmpty {
		return 0
	}
	if pEmpty != mEmpty {
		return 1
	}
	cumP, cumM := new(big.Int), new(big.Int)
	var maxDiff big.Rat
	var diff big.Rat
	i, j := 0, 0
	for i < len(pe) || j < len(me) {
		// Advance over the next degree in the union, folding counts from
		// whichever distributions have mass there.
		switch {
		case j >= len(me) || (i < len(pe) && pe[i].D.Cmp(me[j].D) < 0):
			cumP.Add(cumP, pe[i].N)
			i++
		case i >= len(pe) || pe[i].D.Cmp(me[j].D) > 0:
			cumM.Add(cumM, me[j].N)
			j++
		default:
			cumP.Add(cumP, pe[i].N)
			cumM.Add(cumM, me[j].N)
			i++
			j++
		}
		diff.Sub(new(big.Rat).SetFrac(cumP, pt), new(big.Rat).SetFrac(cumM, mt))
		if diff.Sign() < 0 {
			diff.Neg(&diff)
		}
		if diff.Cmp(&maxDiff) > 0 {
			maxDiff.Set(&diff)
		}
	}
	out, _ := maxDiff.Float64()
	return out
}
