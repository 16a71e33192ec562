// Package validate is the paper's "validation" pillar: generate a designed
// graph in parallel, measure its properties from the realized edges alone,
// and confirm exact agreement with the design-time predictions (the
// predicted-vs-measured comparison of Figure 4).
//
// The measurement engine is streaming and communication-free, mirroring the
// generator it checks. Edges are never collected into a global triple slice
// and never comparison-sorted. Instead, one private engine (buildCSR) rides
// a generation stream twice:
//
//   - Pass 1 (measure in flight): each worker tallies its own per-row
//     degree counts over its contiguous B-column band while the edges are
//     generated. Merging the bands yields the row pointers — the measured
//     edge total, vertex count, and exact degree distribution — before a
//     single edge is stored.
//   - Pass 2 (build CSR in parallel): the same tallies, prefix-summed into
//     per-worker write cursors, let every worker scatter its band straight
//     into the final CSR arrays with no locks and no sort (the generator's
//     band-order guarantee makes each row arrive column-sorted; see
//     gen.StreamTo and sparse.CSRBuilder).
//
// One report step (measure) then reads edges, vertices and degrees off the
// CSR and counts triangles once each by the same worker pool, over a
// degree-ordered orientation built in place; the design's closed-form count
// is the oracle, so no second count runs. Peak memory is the CSR itself
// plus the O(workers·vertices) tally tables and the count's O(vertices) row
// ends — there is no materialized COO, no Dedupe clone, and no reflection
// sort anywhere on the path, which is what lifts MaxRealizableEdges 8× over
// the retired materialized engine (kept as a test oracle).
//
// Run is that engine over the whole stream plus the report step; RunShard
// keeps one shard's CSR as a fragment, which Merge concatenates before the
// same report step; RunSampled replaces the exact count with an estimate.
package validate

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"strings"

	"repro/internal/bigdeg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/triangle"
)

// Stage names the validation passes report under in the process-default
// stage registry (kronserve renders them as kronserve_stage_*_total{stage=...}
// when validation runs in-server), so the per-pass batch/edge/busy totals
// behind a fig4 scaling run are readable off /metrics.
const (
	stageTally     = "validate_tally"
	stageScatter   = "validate_scatter"
	stageTriangles = "validate_triangles"
)

// Report compares predicted and measured properties of one design.
type Report struct {
	Design *core.Design
	// Workers is the processor count used for generation.
	Workers int

	PredictedVertices  *big.Int
	PredictedEdges     *big.Int
	PredictedTriangles *big.Int
	PredictedDegrees   *bigdeg.Dist

	MeasuredVertices  int64 // vertices with ≥1 incident edge
	MeasuredEdges     int64
	MeasuredTriangles int64
	MeasuredDegrees   *bigdeg.Dist

	// ExactAgreement is true when every measured property equals its
	// prediction — the paper's headline validation result.
	ExactAgreement bool
	// Mismatches lists any disagreements found.
	Mismatches []string
}

// MaxRealizableEdges caps the designs Run will realize in memory; larger
// designs must be validated through the design-side identities alone. The
// bound is set by the CSR footprint (16 bytes per stored entry) rather than
// a globally sorted triple pipeline, which is why it sits 8× above the
// materialized engine's historical 2^27 cap.
const MaxRealizableEdges = 1 << 30

// maxRealizableVertices bounds the row space: the engine keeps one int32
// degree tally per vertex per worker plus the CSR row pointers. Star-product
// designs have no isolated vertices, so vertices ≤ 2·edges keeps any design
// under the edge cap under this bound too; it exists to fail loudly rather
// than allocate absurdly on a degenerate input.
const maxRealizableVertices = 1 << 31

// Run generates the design with np workers via the split generator (split
// after nb factors), measures everything from the streamed edges, and
// compares against the design's predictions. Cancellation is cooperative:
// generation passes stop within one batch and triangle counting within one
// band stride of ctx cancelling, returning ctx's error.
func Run(ctx context.Context, d *core.Design, nb, np int) (*Report, error) {
	pred, g, err := prepare(d, nb)
	if err != nil {
		return nil, err
	}
	a, err := buildCSR(ctx, pred, np, nil, g.StreamTo)
	if err != nil {
		return nil, err
	}
	return measure(ctx, d, pred, a, np)
}

// buildCSR is the two-pass engine of the package doc, shared by every entry
// point: it realizes the edges of stream — g.StreamTo for the whole design,
// or a closure over g.StreamShardTo for one shard — as a CSR over the
// design's full vertex space, teeing the tally pass with fold when fold is
// non-nil. Both passes are pipeline sinks over the same engine every other
// stream consumer rides: the measurement is just another fold.
func buildCSR(ctx context.Context, pred *core.Properties, np int, fold pipeline.Sink,
	stream func(ctx context.Context, np, batchSize int, sink pipeline.Sink) error) (*sparse.CSR[int64], error) {
	n := int(pred.Vertices.Int64())
	builder, err := sparse.NewCSRBuilder[int64](n, n, np)
	if err != nil {
		return nil, err
	}
	var tally pipeline.Sink = tallySink{builder}
	if fold != nil {
		tally = pipeline.Tee(tally, fold)
	}
	if err := stream(ctx, np, 0, pipeline.Instrument(obs.Stages.Stage(stageTally), tally)); err != nil {
		return nil, err
	}
	if err := builder.Finalize(); err != nil {
		return nil, err
	}
	if err := stream(ctx, np, 0, pipeline.Instrument(obs.Stages.Stage(stageScatter), scatterSink{builder})); err != nil {
		return nil, err
	}
	return builder.Build()
}

// measure is the one report step: it seeds the Report with the design's
// predictions, reads edges, vertices and the exact degree distribution off
// a's row pointers, counts triangles once, and compares. The count consumes
// a: nothing after it reads a's column indices.
func measure(ctx context.Context, d *core.Design, pred *core.Properties, a *sparse.CSR[int64], np int) (*Report, error) {
	r := &Report{
		Design:             d,
		Workers:            np,
		PredictedVertices:  pred.Vertices,
		PredictedEdges:     pred.Edges,
		PredictedTriangles: pred.Triangles,
		PredictedDegrees:   pred.Degrees,
		MeasuredEdges:      int64(a.NNZ()),
	}
	var err error
	if r.MeasuredDegrees, r.MeasuredVertices, err = degrees(a.RowPtr, np); err != nil {
		return nil, err
	}
	if r.MeasuredTriangles, err = triangle.CountOrientedCSR(ctx, a, np, obs.Stages.Stage(stageTriangles)); err != nil {
		return nil, err
	}
	r.compare()
	return r, nil
}

// degrees folds a CSR's row lengths into the exact degree distribution and
// the number of vertices with at least one incident edge.
func degrees(rowPtr []int, np int) (*bigdeg.Dist, int64, error) {
	hist, err := sparse.DegreeHistogramCSR(rowPtr, np)
	if err != nil {
		return nil, 0, err
	}
	md := bigdeg.New()
	var touched int64
	for deg, cnt := range hist {
		md.AddCount(big.NewInt(deg), big.NewInt(cnt))
		touched += cnt
	}
	return md, touched, nil
}

// tallySink is the pass-1 measurement fold as a pipeline sink: each worker
// bumps its private per-row tally as its band streams past, storing nothing.
type tallySink struct {
	b *sparse.CSRBuilder[int64]
}

func (s tallySink) WriteBatch(w int, batch []gen.Edge) error {
	for _, e := range batch {
		s.b.Count(w, int(e.Row))
	}
	return nil
}

func (s tallySink) Close() error { return nil }

// scatterSink is the pass-2 placement fold as a pipeline sink: each worker
// scatters its regenerated band straight into the final CSR arrays through
// its prefix-summed cursors.
type scatterSink struct {
	b *sparse.CSRBuilder[int64]
}

func (s scatterSink) WriteBatch(w int, batch []gen.Edge) error {
	for _, e := range batch {
		s.b.Place(w, int(e.Row), int(e.Col), e.Val)
	}
	return nil
}

func (s scatterSink) Close() error { return nil }

// checkRealizable rejects designs the measurement engine cannot hold: edge
// counts past the CSR cap, and vertex counts past either the engine's own
// bound or the platform's int range. The int check matters on 32-bit
// platforms, where maxRealizableVertices (2^31) exceeds math.MaxInt (2^31−1):
// without it the vertex count would be cast through int and silently wrap,
// building a wrong-shaped CSR instead of failing loudly.
func checkRealizable(pred *core.Properties) error {
	if !pred.Vertices.IsInt64() || !pred.Edges.IsInt64() ||
		pred.Edges.Int64() > MaxRealizableEdges ||
		pred.Vertices.Int64() > maxRealizableVertices {
		return fmt.Errorf("validate: design too large to realize (%s vertices, %s edges)",
			pred.Vertices, pred.Edges)
	}
	if v := pred.Vertices.Int64(); v > math.MaxInt {
		return fmt.Errorf("validate: design has %d vertices, over this platform's %d-bit int range; validate on a 64-bit host",
			v, 32<<(^uint(0)>>63))
	}
	return nil
}

// prepare computes the predictions, checks realizability, and builds the
// split generator.
func prepare(d *core.Design, nb int) (*core.Properties, *gen.Generator, error) {
	pred, err := d.Compute()
	if err != nil {
		return nil, nil, err
	}
	if err := checkRealizable(pred); err != nil {
		return nil, nil, err
	}
	g, err := gen.New(d, nb)
	if err != nil {
		return nil, nil, err
	}
	return pred, g, nil
}

// mismatch describes a scalar property's disagreement, if any.
func mismatch(name string, predicted *big.Int, measured int64) []string {
	if predicted.Cmp(big.NewInt(measured)) == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%s: predicted %s, measured %d", name, predicted, measured)}
}

// mismatches lists the disagreements among the properties every mode
// measures exactly: vertices, edges, and the degree distribution.
func mismatches(pv, pe *big.Int, pd *bigdeg.Dist, mv, me int64, md *bigdeg.Dist) []string {
	out := append(mismatch("vertices", pv, mv), mismatch("edges", pe, me)...)
	if !bigdeg.Equal(pd, md) {
		out = append(out, "degree distribution differs")
	}
	return out
}

func (r *Report) compare() {
	r.Mismatches = append(mismatches(r.PredictedVertices, r.PredictedEdges, r.PredictedDegrees,
		r.MeasuredVertices, r.MeasuredEdges, r.MeasuredDegrees),
		mismatch("triangles", r.PredictedTriangles, r.MeasuredTriangles)...)
	r.ExactAgreement = len(r.Mismatches) == 0
}

// String renders the report in the predicted-vs-measured style of Figure 4.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design: %v  workers: %d\n", r.Design, r.Workers)
	fmt.Fprintf(&b, "%-12s %24s %24s\n", "property", "predicted", "measured")
	fmt.Fprintf(&b, "%-12s %24s %24d\n", "vertices", r.PredictedVertices, r.MeasuredVertices)
	fmt.Fprintf(&b, "%-12s %24s %24d\n", "edges", r.PredictedEdges, r.MeasuredEdges)
	fmt.Fprintf(&b, "%-12s %24s %24d\n", "triangles", r.PredictedTriangles, r.MeasuredTriangles)
	fmt.Fprintf(&b, "degree distribution: predicted %d points, measured %d points\n",
		r.PredictedDegrees.Len(), r.MeasuredDegrees.Len())
	if r.ExactAgreement {
		b.WriteString("RESULT: exact agreement\n")
	} else {
		fmt.Fprintf(&b, "RESULT: %d mismatches\n", len(r.Mismatches))
		for _, m := range r.Mismatches {
			fmt.Fprintf(&b, "  - %s\n", m)
		}
	}
	return b.String()
}
