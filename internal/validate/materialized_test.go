package validate

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"
	"time"

	"repro/internal/bigdeg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/star"
	"repro/internal/triangle"
)

// RunMaterialized is the pre-streaming reference engine: it collects every
// generated edge into one global COO, canonicalizes it with a comparison
// sort, and measures from the materialized matrix. It is the oracle for the
// streaming engine's parity tests (its fig4 throughput baseline is frozen in
// BENCH_fig4.json); it still enforces the historical 2^27-edge bound of the
// global-sort pipeline.
func RunMaterialized(ctx context.Context, d *core.Design, nb, np int) (*Report, error) {
	pred, g, err := prepare(d, nb)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Design:             d,
		Workers:            np,
		PredictedVertices:  pred.Vertices,
		PredictedEdges:     pred.Edges,
		PredictedTriangles: pred.Triangles,
		PredictedDegrees:   pred.Degrees,
	}
	if pred.Edges.Int64() > 1<<27 {
		return nil, fmt.Errorf("validate: design too large for the materialized engine (%s edges)", pred.Edges)
	}
	n := pred.Vertices.Int64()

	buffers := make([][]sparse.Triple[int64], np)
	err = g.StreamTo(ctx, np, 0, pipeline.Func(func(w int, batch []gen.Edge) error {
		buf := buffers[w]
		for _, e := range batch {
			buf = append(buf, sparse.Triple[int64]{Row: int(e.Row), Col: int(e.Col), Val: e.Val})
		}
		buffers[w] = buf
		return nil
	}))
	if err != nil {
		return nil, err
	}
	// The stream checks ctx per batch, but everything after it — the global
	// concatenation, Dedupe's sort, and both serial triangle counters — used
	// to run uninterruptible, so a SIGINT during the sort phase hung until
	// the whole materialized pipeline finished. One check at the seam keeps
	// the engine's cancellation latency bounded by the stream's last batch.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var tr []sparse.Triple[int64]
	for _, b := range buffers {
		tr = append(tr, b...)
	}
	a, err := sparse.NewCOO(int(n), int(n), tr)
	if err != nil {
		return nil, err
	}

	sr := semiring.PlusTimesInt64()
	r.MeasuredEdges = int64(a.Dedupe(sr).NNZ())
	hist := sparse.DegreeHistogram(a, sr)
	md := bigdeg.New()
	var touched int64
	for deg, cnt := range hist {
		md.AddCount(big.NewInt(int64(deg)), big.NewInt(int64(cnt)))
		touched += int64(cnt)
	}
	r.MeasuredDegrees = md
	r.MeasuredVertices = touched
	tri, err := triangle.CountBoth(a)
	if err != nil {
		return nil, err
	}
	r.MeasuredTriangles = tri

	r.compare()
	return r, nil
}

// seamCtx is a context whose Err flips to Canceled on the second call. The
// materialized engine consults the original context's Err exactly twice: once
// at parallel.RunContext entry inside the stream (RunContext then derives its
// own cancel context, so per-batch checks never reach this object), and once
// at the post-stream seam. Without that seam check the second call never
// happens and the run completes — so this test fails against an engine
// without it.
type seamCtx struct {
	context.Context
	calls int
}

func (c *seamCtx) Err() error {
	c.calls++
	if c.calls >= 2 {
		return context.Canceled
	}
	return nil
}

func (c *seamCtx) Done() <-chan struct{}       { return nil }
func (c *seamCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *seamCtx) Value(key any) any           { return nil }

// RunMaterialized must observe a cancellation that lands between the stream
// draining and the serial measurement phase.
func TestRunMaterializedCancelledAtSeam(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5, 9}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &seamCtx{Context: context.Background()}
	if _, err := RunMaterialized(ctx, d, 2, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled from the post-stream seam check", err)
	}
}
