// Package gen implements Section V's communication-free parallel graph
// generator. The design's factors are split into A = B ⊗ C; B and C are
// realized (both sized to fit in one processor's memory); each of Np
// processors takes an equal slice of B's nonzero triples in CSC (column-
// major) order and locally forms its piece Ap = Bp ⊗ C. Workers share no
// state and never communicate; concatenating their outputs reproduces the
// serial Kronecker product exactly, with the design's single self-loop
// removed on the fly.
package gen

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/star"
)

// Generator holds the realized B and C sides of a split design, ready to
// produce the product graph at any worker count.
type Generator struct {
	design *core.Design
	b      *sparse.COO[int64] // raw product of the B factors, CSC-ordered triples
	c      *sparse.COO[int64] // raw product of the C factors
	// cEdges is C's row-major triples pre-widened to block-local int64
	// edges. The B×C inner loop runs over this slice: the per-edge work is
	// then three adds and a multiply against values already in edge layout —
	// no int→int64 widening, no struct conversion — and the block-replay
	// path renders its templates from it directly.
	cEdges []Edge
	// loopRow is the global index of the self-loop to drop, or -1.
	loopRow int64
	mA      int64 // total vertices
	nnzA    int64 // stored entries including the not-yet-removed loop
}

// New splits the design after its first nb factors and realizes both sides.
// The B side's triples are sorted column-major, matching the paper's CSC
// storage, so each worker's slice covers a contiguous band of B columns. The
// C side is sorted row-major, which gives the streamed output a structural
// guarantee the measurement engine builds on: within any one worker, the
// edges of each global row arrive in strictly increasing column order, and
// worker p+1's entries for that row all come after worker p's (see
// StreamTo).
func New(d *core.Design, nb int) (*Generator, error) {
	bd, cd, err := d.Split(nb)
	if err != nil {
		return nil, err
	}
	b, err := bd.RealizeRaw()
	if err != nil {
		return nil, fmt.Errorf("gen: realizing B: %w", err)
	}
	c, err := cd.RealizeRaw()
	if err != nil {
		return nil, fmt.Errorf("gen: realizing C: %w", err)
	}
	// CSC order for B: sort triples by (col, row). slices.SortFunc instead
	// of the reflection-based sort.Slice — B holds the bulk of the design's
	// realized triples (up to MaxBNNZ in the service), so this sort is a
	// measurable slice of generator construction.
	slices.SortFunc(b.Tr, func(ti, tj sparse.Triple[int64]) int {
		if ti.Col != tj.Col {
			return ti.Col - tj.Col
		}
		return ti.Row - tj.Row
	})
	// Row-major order for C: with B in CSC order, every worker then emits
	// each global row's columns in ascending order (global column
	// cB·nC + cC is ordered first by the worker's ascending cB, then by cC
	// within one B triple's fan-out).
	slices.SortFunc(c.Tr, func(ti, tj sparse.Triple[int64]) int {
		if ti.Row != tj.Row {
			return ti.Row - tj.Row
		}
		return ti.Col - tj.Col
	})
	g := &Generator{
		design:  d,
		b:       b,
		c:       c,
		cEdges:  make([]Edge, c.NNZ()),
		loopRow: -1,
		mA:      int64(b.NumRows) * int64(c.NumRows),
		nnzA:    int64(b.NNZ()) * int64(c.NNZ()),
	}
	for i, tc := range c.Tr {
		g.cEdges[i] = Edge{Row: int64(tc.Row), Col: int64(tc.Col), Val: tc.Val}
	}
	switch d.Loop() {
	case star.LoopHub:
		g.loopRow = 0
	case star.LoopLeaf:
		g.loopRow = g.mA - 1
	}
	return g, nil
}

// NumVertices returns mA for the realized product.
func (g *Generator) NumVertices() int64 { return g.mA }

// NumEdges returns the exact number of edges the generator will emit
// (raw nonzeros minus the removed self-loop).
func (g *Generator) NumEdges() int64 {
	if g.loopRow >= 0 {
		return g.nnzA - 1
	}
	return g.nnzA
}

// BNNZ returns nnz(B), the number of distributable work units.
func (g *Generator) BNNZ() int { return g.b.NNZ() }

// CNNZ returns nnz(C), each worker's per-triple fan-out.
func (g *Generator) CNNZ() int { return g.c.NNZ() }

// Edge is one generated directed adjacency entry in global coordinates. It
// aliases graphio.Edge so generated batches flow into the edge encoders
// without conversion or copying.
type Edge = graphio.Edge

// The module has exactly two batch-size knobs, homed here together because
// they are two points on one tradeoff: the context is checked once per
// batch, so batch size buys throughput (fewer callback/check boundaries per
// edge) at the price of cancellation latency (more edges generated between
// ctx.Err() observations).
const (
	// DefaultBatchSize is the per-worker edge batch size StreamTo and
	// StreamShardTo use when the caller passes batchSize <= 0: large enough to
	// amortize the per-batch callback to nothing, small enough that a batch
	// stays cache-resident. The service's streaming hand-off defaults to
	// this size too (kronserve -batch overrides it per server).
	DefaultBatchSize = 2048
	// CompatBatchSize is the internal batch the per-edge Stream shim runs
	// on: smaller than DefaultBatchSize so per-edge callers keep roughly
	// the cancellation latency the old per-B-triple context check gave
	// them, at a per-edge indirection cost batch-native consumers never
	// pay.
	CompatBatchSize = 512
)

// StreamTo generates the graph with np workers into a composable sink,
// filling a reusable per-worker edge buffer directly in the inner B-triple ×
// C loop and handing it to the sink once per batchSize edges (batchSize <= 0
// selects DefaultBatchSize). The context is checked once per batch, and the
// removed self-loop costs no per-edge test: every triple's fan-out is a
// straight fill, and the single B triple whose block contains the loop is
// filled in two pieces around the loop's entry. WriteBatch is called concurrently from np goroutines with
// deterministic per-worker batch order; the sink owns each batch only until
// WriteBatch returns, so a sink that retains edges beyond the call must copy
// them. A non-nil error from the sink (or a cancelled ctx) stops the
// remaining workers. Tee the sink to consume one pass K ways — stream to an
// edge writer, count, and checksum simultaneously; wrap a bare callback in
// pipeline.Func. When the pass ends — success, sink error, or cancellation —
// the sink is closed exactly once, so consumers blocked on a sink's output
// always observe end-of-stream; the close error is returned only when
// generation itself succeeded.
//
// Band-order guarantee: because B is CSC-sorted and C row-major-sorted (see
// New), each worker emits any given global row's entries in strictly
// increasing column order, and for every row, all of worker p's entries
// precede worker p+1's in column order. Concatenating the workers' streams
// row by row in worker order therefore yields canonical sorted CSR rows
// with no comparison sort — the property sparse.CSRBuilder exploits.
//
// A sink composition that is block-capable (pipeline.BlockSink — every
// constituent opted in) and a C side large enough to amortize the template
// render switch the pass to block replay: per worker, the C-block's delta
// template is rendered once per distinct B value and each B-triple crosses
// the sink as one WriteBlockRun instead of cnnz/batchSize batches. Edge
// order, the band-order guarantee, and the Close contract are identical
// either way.
func (g *Generator) StreamTo(ctx context.Context, np, batchSize int, sink pipeline.Sink) error {
	return g.streamRange(ctx, 0, g.b.NNZ(), np, batchSize, sink)
}

// minReplayBlockEdges gates block replay: below this C fan-out a template
// render plus a WriteBlockRun per B-triple costs about as much as just
// generating the handful of edges, so tiny C sides stay on the batch path.
const minReplayBlockEdges = 8

// ownsLoop reports whether the B triple whose block starts at global
// (rBase, cBase) contains the removed self-loop. At most one triple does —
// the loop's coordinates pin both its B row and B column — and with no loop
// (loopRow = -1) none does, since block offsets are non-negative.
func (g *Generator) ownsLoop(rBase, cBase int64) bool {
	loop := g.loopRow
	return loop >= rBase && loop < rBase+int64(g.c.NumRows) &&
		loop >= cBase && loop < cBase+int64(g.c.NumCols)
}

// streamRange is the one generation engine behind every public entry point:
// it generates the edges of B triples [bLo, bHi) (CSC order) × C with np
// workers, each owning a contiguous slice of the range, into sink, and then
// closes the sink once. Callers pass a valid range (shard entry points run
// checkShard first). All of StreamTo's guarantees hold within the range,
// because a sub-range of CSC-sorted triples is itself CSC-sorted. The
// batch-or-replay choice is made once per pass; the loop-owning triple's
// block differs from every other, so it always takes the batch fill, around
// its one removed entry.
func (g *Generator) streamRange(ctx context.Context, bLo, bHi, np, batchSize int, sink pipeline.Sink) (err error) {
	defer func() {
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
	}()
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	parts, err := parallel.Partition(bHi-bLo, np)
	if err != nil {
		return err
	}
	blocks, replay := sink.(pipeline.BlockSink)
	replay = replay && g.c.NNZ() >= minReplayBlockEdges
	mC := int64(g.c.NumRows)
	nC := int64(g.c.NumCols)
	return parallel.RunContext(ctx, np, func(ctx context.Context, p int) error {
		w := worker{ctx: ctx, sink: sink, blocks: blocks, p: p, batchSize: batchSize,
			buf: make([]Edge, 0, batchSize)}
		for _, tb := range g.b.Tr[bLo+parts[p].Lo : bLo+parts[p].Hi] {
			rBase := int64(tb.Row) * mC
			cBase := int64(tb.Col) * nC
			var err error
			switch ownsLoop := g.ownsLoop(rBase, cBase); {
			case replay && !ownsLoop:
				err = w.replay(g.cEdges, rBase, cBase, tb.Val)
			case ownsLoop:
				k := g.loopEntry(rBase, cBase)
				if err = w.fill(g.cEdges[:k], rBase, cBase, tb.Val); err == nil {
					err = w.fill(g.cEdges[k+1:], rBase, cBase, tb.Val)
				}
			default:
				err = w.fill(g.cEdges, rBase, cBase, tb.Val)
			}
			if err != nil {
				return err
			}
		}
		return w.flush(w.buf)
	})
}

// loopEntry returns the index in cEdges of the removed self-loop's entry
// within the loop-owning triple's block at (rBase, cBase). The design's
// loop is a product of every factor's loop, so C always holds it.
func (g *Generator) loopEntry(rBase, cBase int64) int {
	return slices.IndexFunc(g.cEdges, func(ce Edge) bool {
		return rBase+ce.Row == g.loopRow && cBase+ce.Col == g.loopRow
	})
}

// worker is one engine worker's state for a pass: its pending edge batch
// and, in replay mode, its rendered C-block template.
type worker struct {
	ctx       context.Context
	sink      pipeline.Sink
	blocks    pipeline.BlockSink // the sink's block face, used in replay mode
	p         int
	batchSize int
	buf       []Edge // pending edges; in replay mode only the loop-owning triple fills it
	tmpl      *graphio.DeltaBlockTemplate
	tmplVal   int64
	scaled    []Edge // C's edges with vals × the current B value, when ≠ 1
}

// flush hands a non-empty batch to the sink after a context check, then
// keeps the buffer, emptied, for reuse.
func (w *worker) flush(buf []Edge) error {
	if len(buf) == 0 {
		return nil
	}
	if err := w.ctx.Err(); err != nil {
		return err
	}
	if err := w.sink.WriteBatch(w.p, buf); err != nil {
		return err
	}
	w.buf = buf[:0]
	return nil
}

// fill appends block's edges at block offset (rBase, cBase), values scaled
// by vB, to the batch, flushing each full batch.
func (w *worker) fill(block []Edge, rBase, cBase, vB int64) error {
	buf := w.buf
	for _, ce := range block {
		buf = append(buf, Edge{Row: rBase + ce.Row, Col: cBase + ce.Col, Val: vB * ce.Val})
		if len(buf) == w.batchSize {
			if err := w.flush(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	w.buf = buf
	return nil
}

// replay hands one B triple to the sink as a single block run of block at
// (rBase, cBase), re-rendering the template only when the B value vB
// changes. Render allocates fresh buffers, so runs a retaining sink cloned
// from the previous rendering keep their bytes. Pending batch edges — the loop-owning triple's tail — are flushed
// first, keeping per-worker edge order exact.
func (w *worker) replay(block []Edge, rBase, cBase, vB int64) error {
	if err := w.flush(w.buf); err != nil {
		return err
	}
	if err := w.ctx.Err(); err != nil {
		return err
	}
	if w.tmpl == nil || vB != w.tmplVal {
		if w.tmpl == nil {
			w.tmpl = new(graphio.DeltaBlockTemplate)
		}
		if vB != 1 {
			if w.scaled == nil {
				w.scaled = make([]Edge, len(block))
			}
			for i, ce := range block {
				ce.Val *= vB
				w.scaled[i] = ce
			}
			block = w.scaled
		}
		w.tmpl.Render(block)
		w.tmplVal = vB
	}
	return w.blocks.WriteBlockRun(w.p, pipeline.BlockRun{T: w.tmpl, RowBase: rBase, ColBase: cBase})
}

// Stream generates the graph with np workers, calling emit once per edge.
// Each worker enumerates its slice of B triples against all of C; the
// removed self-loop is skipped. emit is invoked concurrently from np
// goroutines and must be safe for the worker index it receives; edges arrive
// in deterministic per-worker order. Cancellation is cooperative: Stream is
// StreamTo over an internal batch, so each worker checks ctx once per
// CompatBatchSize edges and stops with ctx.Err() once it is cancelled. A
// non-nil error from emit cancels the remaining workers. This is the
// convenience per-edge view of StreamTo — rate-sensitive consumers should
// use StreamTo directly and skip the per-edge callback.
func (g *Generator) Stream(ctx context.Context, np int, emit func(worker int, e Edge) error) error {
	return g.StreamTo(ctx, np, CompatBatchSize, pipeline.Func(func(p int, batch []Edge) error {
		for _, e := range batch {
			if err := emit(p, e); err != nil {
				return err
			}
		}
		return nil
	}))
}

// CountEdges generates the whole graph with np workers and returns the
// number of edges emitted and their XOR checksum — the exact values a
// streamed copy must reconcile against. It is CountShard over the whole
// graph as one shard, so the shard-checksum invariant — XOR of per-shard
// checksums equals the whole-graph checksum — rests on one fold over one
// engine. A cancelled ctx returns ctx.Err().
func (g *Generator) CountEdges(ctx context.Context, np int) (total, checksum int64, err error) {
	return g.CountShard(ctx, ShardInfo{Shards: 1, BHi: g.b.NNZ()}, np)
}

// Part is one worker's materialized output: the local matrix Ap built from
// the worker's column-band of B (columns re-based by ColOffset, the paper's
// "minimum value of jp is subtracted" CSC step) Kronecker C. Global column
// gc of an entry (r, c) is ColOffset·nC + c; rows are already global.
type Part struct {
	Worker int
	// ColOffset is the smallest B column owned by this worker.
	ColOffset int
	// Ap holds the worker's entries with global rows and local columns.
	Ap *sparse.COO[int64]
}

// Materialize generates per-worker matrices the way Section V describes:
// each worker forms Bp from its triples (with min column subtracted) and
// computes Ap = Bp ⊗ C in memory. Empty workers produce a Part with a
// 0-column Ap.
func (g *Generator) Materialize(np int) ([]Part, error) {
	parts, err := parallel.Partition(g.b.NNZ(), np)
	if err != nil {
		return nil, err
	}
	out := make([]Part, np)
	mC := int64(g.c.NumRows)
	nC := int64(g.c.NumCols)
	err = parallel.Run(np, func(p int) error {
		slice := g.b.Tr[parts[p].Lo:parts[p].Hi]
		if len(slice) == 0 {
			out[p] = Part{Worker: p, Ap: sparse.MustCOO[int64](int(g.mA), 0, nil)}
			return nil
		}
		minCol, maxCol := slice[0].Col, slice[0].Col
		for _, t := range slice {
			if t.Col < minCol {
				minCol = t.Col
			}
			if t.Col > maxCol {
				maxCol = t.Col
			}
		}
		localCols, err := sparse.MulDim(maxCol-minCol+1, int(nC))
		if err != nil {
			return fmt.Errorf("gen: worker %d column band [%d, %d]: %w", p, minCol, maxCol, err)
		}
		tr := make([]sparse.Triple[int64], 0, len(slice)*g.c.NNZ())
		for _, tb := range slice {
			rBase := int64(tb.Row) * mC
			cBase := int64(tb.Col-minCol) * nC
			globalColBase := int64(tb.Col) * nC
			for _, tc := range g.c.Tr {
				row := rBase + int64(tc.Row)
				if row == g.loopRow && globalColBase+int64(tc.Col) == g.loopRow {
					continue
				}
				tr = append(tr, sparse.Triple[int64]{
					Row: int(row),
					Col: int(cBase) + tc.Col,
					Val: tb.Val * tc.Val,
				})
			}
		}
		ap, err := sparse.NewCOO(int(g.mA), localCols, tr)
		if err != nil {
			return err
		}
		out[p] = Part{Worker: p, ColOffset: minCol, Ap: ap}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Assemble recombines materialized parts into one global matrix, the
// inverse of the distribution step; used by tests to prove the parallel
// output equals the serial product.
func (g *Generator) Assemble(parts []Part) (*sparse.COO[int64], error) {
	nC := g.c.NumCols
	var tr []sparse.Triple[int64]
	for _, p := range parts {
		for _, t := range p.Ap.Tr {
			tr = append(tr, sparse.Triple[int64]{
				Row: t.Row,
				Col: p.ColOffset*nC + t.Col,
				Val: t.Val,
			})
		}
	}
	return sparse.NewCOO(int(g.mA), int(g.mA), tr)
}
