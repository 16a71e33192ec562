package pipeline

import (
	"fmt"

	"repro/internal/graphio"
)

// Block-run fast path.
//
// A Kronecker generator's stream is not just batches of edges — it is the
// same C-block pattern replayed at a different offset per B-triple. BlockSink
// lets a sink consume that structure directly: the producer renders the
// block's delta byte template once (graphio.DeltaBlockTemplate) and hands
// each replay over as a (template, rowBase, colBase) triple, so encoding
// becomes a memcpy and counting/checksumming become closed-form folds. Sinks
// that cannot exploit the structure simply do not implement the interface,
// and the generator falls back to ordinary batches — capability is decided
// by the sink composition's static type, not at stream time.
//
// Constructors here propagate the capability conservatively: Tee and
// PerWorker are block-capable only when every child is, Instrument and
// KeepOpen only when the wrapped sink is, Writer only when the edge writer
// replays blocks natively (graphio.BlockRunWriter with ReplaysBlocks true).
// A single batch-only child therefore routes the whole composition through
// the batch path — a block run is never silently expanded into a fan-out
// that did not opt in.
//
// Ownership mirrors the batch contract: the run and its *template belong to
// the sink only until WriteBlockRun returns. The producer re-renders its
// template when the B value changes, so a sink that retains the run — the
// pooled async hand-off — must clone (DeltaBlockTemplate.CloneInto). A
// rendering is immutable: re-rendering allocates fresh buffers rather than
// overwriting the old ones, so the clone is a constant-size header copy
// that keeps its bytes however far the producer moves on.
// Runs from distinct worker indices arrive concurrently, serially within
// one worker, and may interleave with WriteBatch calls from the same worker
// (the loop-bearing block falls back to batches); edge order per worker is
// preserved across both call kinds.

// BlockRun is one replay of a rendered block template at a block offset —
// Len() edges whose global coordinates are the template's locals shifted by
// (RowBase, ColBase).
type BlockRun struct {
	T       *graphio.DeltaBlockTemplate
	RowBase int64
	ColBase int64
}

// Len returns the number of edges the run carries.
func (r BlockRun) Len() int { return r.T.Len() }

// AppendEdges expands the run into global-coordinate edges, the bridge for
// consumers that need the batch representation.
func (r BlockRun) AppendEdges(dst []Edge) []Edge {
	return r.T.AppendEdges(dst, r.RowBase, r.ColBase)
}

// BlockSink is a Sink that additionally consumes whole block runs. See the
// file comment for the ownership and concurrency contract.
type BlockSink interface {
	Sink
	// WriteBlockRun consumes one block replay from worker p; the run's
	// template is owned by the sink only until the call returns.
	WriteBlockRun(p int, run BlockRun) error
}

// blockSinks returns the children as BlockSinks, or nil unless all of them
// are block-capable — the all-or-nothing rule fan-out constructors apply.
func blockSinks(sinks []Sink) []BlockSink {
	bs := make([]BlockSink, len(sinks))
	for i, s := range sinks {
		b, ok := s.(BlockSink)
		if !ok {
			return nil
		}
		bs[i] = b
	}
	return bs
}

// blockHandler pairs a batch callback with a run callback.
type blockHandler struct {
	batch Func
	run   func(p int, run BlockRun) error
}

// BlockHandler adapts a pair of callbacks to a BlockSink with a no-op Close
// — the block-capable counterpart of Func, for folds (progress counters,
// say) that can account for a run without expanding it.
func BlockHandler(batch Func, run func(p int, run BlockRun) error) BlockSink {
	return blockHandler{batch: batch, run: run}
}

func (h blockHandler) WriteBatch(p int, batch []Edge) error    { return h.batch(p, batch) }
func (h blockHandler) WriteBlockRun(p int, run BlockRun) error { return h.run(p, run) }
func (h blockHandler) Close() error                            { return nil }

// blockTee is a tee whose children are all block-capable.
type blockTee struct {
	tee
	blocks []BlockSink
}

func (t *blockTee) WriteBlockRun(p int, run BlockRun) error {
	for _, s := range t.blocks {
		if err := s.WriteBlockRun(p, run); err != nil {
			return err
		}
	}
	return nil
}

// blockPerWorker routes runs to the p-th child; all children block-capable.
type blockPerWorker struct {
	perWorker
	blocks []BlockSink
}

func (w *blockPerWorker) WriteBlockRun(p int, run BlockRun) error {
	if p < 0 || p >= len(w.blocks) {
		return fmt.Errorf("pipeline: worker %d outside the %d per-worker sinks", p, len(w.blocks))
	}
	return w.blocks[p].WriteBlockRun(p, run)
}

// blockKeepOpen is keepOpen over a block-capable sink.
type blockKeepOpen struct {
	keepOpen
	bs BlockSink
}

func (k blockKeepOpen) WriteBlockRun(p int, run BlockRun) error {
	return k.bs.WriteBlockRun(p, run)
}

// blockWriterSink serializes a block-replaying edge writer behind the same
// mutex as its batch writes.
type blockWriterSink struct {
	*writerSink
	brw graphio.BlockRunWriter
}

func (w *blockWriterSink) WriteBlockRun(p int, run BlockRun) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.brw.WriteBlockRun(run.T, run.RowBase, run.ColBase)
}

// WriteBlockRun adds the run's edge count to worker p's count — the
// closed-form fold; the run is never expanded.
func (c *Counter) WriteBlockRun(p int, run BlockRun) error {
	c.slots[p].n += int64(run.T.Len())
	return nil
}

// WriteBlockRun folds the run into worker p's checksum slot via the
// template's precomputed per-edge terms: one add and one xor per edge, no
// coordinate reconstruction, same result as folding the expanded batch.
func (c *Checksum) WriteBlockRun(p int, run BlockRun) error {
	c.slots[p].n = run.T.FoldChecksum(c.slots[p].n, run.RowBase, run.ColBase)
	return nil
}
