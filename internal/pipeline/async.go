package pipeline

import (
	"context"
	"sync"

	"repro/internal/graphio"
)

// Batch is one pooled edge buffer in flight from an Async sink's producers
// to its consumer. The consumer owns Edges from receive until it hands the
// Batch back via Recycle; after Recycle the buffer is reused and must not be
// touched. A Batch sent through the block-run hand-off (Async.Runs) carries
// a non-nil Run instead of Edges.
type Batch struct {
	Edges []Edge

	// Run, when non-nil, is the replayed block this delivery carries in
	// place of Edges: a template clone the consumer may replay (or expand)
	// at Run's block offset. Owned by the consumer until Recycle, like
	// Edges.
	Run *BatchRun

	// runScratch is the BatchRun kept across pool reuse so the run
	// hand-off stays allocation-free at steady state.
	runScratch *BatchRun
}

// BatchRun is the pooled copy of a block run inside a Batch: a template
// clone plus the block offset it replays at. The clone is a header that
// shares the producer's rendered buffers by reference — they are immutable
// once rendered (graphio.DeltaBlockTemplate.Render), so the run keeps its
// bytes even after the producer re-renders for another B value.
type BatchRun struct {
	T       graphio.DeltaBlockTemplate
	RowBase int64
	ColBase int64
}

// Len returns the number of edges the run carries.
func (r *BatchRun) Len() int { return r.T.Len() }

// AppendEdges expands the run into global-coordinate edges.
func (r *BatchRun) AppendEdges(dst []Edge) []Edge {
	return r.T.AppendEdges(dst, r.RowBase, r.ColBase)
}

// Async is the bounded pooled hand-off between generation workers and a
// single asynchronous consumer — the service's streaming hot path. Producers
// copy each batch into a buffer drawn from a sync.Pool and send it through a
// bounded channel; the consumer drains Batches and returns each buffer with
// Recycle. Steady state does zero per-batch allocations: once the pool holds
// enough grown buffers to cover the channel depth plus the batches in
// flight, every WriteBatch is a pool hit and a memmove (the alloc+copy the
// pre-pipeline service paid per batch happens at most once per pooled
// buffer). The channel is the backpressure boundary: when the consumer falls
// behind, WriteBatch blocks until a slot frees or ctx is cancelled.
type Async struct {
	ctx  context.Context // nil means never cancelled
	done <-chan struct{} // nil when ctx is nil: blocks forever in select
	ch   chan *Batch
	pool sync.Pool
	once sync.Once
}

// NewAsync returns an Async sink whose channel buffers depth batches
// (depth 0 yields an unbuffered, fully synchronous hand-off). A WriteBatch
// blocked on a full channel aborts with ctx's error when ctx is cancelled;
// a nil ctx means never cancelled (a receive from the nil done channel
// blocks forever, so no substitute context is minted).
func NewAsync(ctx context.Context, depth int) *Async {
	a := &Async{ctx: ctx, ch: make(chan *Batch, depth)}
	if ctx != nil {
		a.done = ctx.Done()
	}
	a.pool.New = func() any { return new(Batch) }
	return a
}

// WriteBatch copies the batch into a pooled buffer and sends it to the
// consumer, blocking when the channel is full (backpressure) until ctx
// cancels.
func (a *Async) WriteBatch(p int, batch []Edge) error {
	b := a.pool.Get().(*Batch)
	b.Run = nil
	b.Edges = append(b.Edges[:0], batch...)
	select {
	case a.ch <- b:
		return nil
	case <-a.done:
		a.pool.Put(b)
		return a.ctx.Err()
	}
}

// Close closes the consumer channel; the consumer sees end-of-stream after
// draining the batches already queued. Idempotent: the streaming driver
// closes the sink when the pass ends, and an owner may also close it
// defensively on paths where the stream never starts.
func (a *Async) Close() error {
	a.once.Do(func() { close(a.ch) })
	return nil
}

// Batches returns the consumer side: receive each *Batch, use its Edges,
// then hand it back with Recycle. The channel closes when the producer side
// closes the sink.
func (a *Async) Batches() <-chan *Batch { return a.ch }

// Recycle returns a received Batch's buffer to the pool for reuse by a
// future WriteBatch. The Batch and its Edges must not be used afterwards.
// A run's template reference is dropped so a pooled Batch never pins a
// rendering its producer has moved past.
func (a *Async) Recycle(b *Batch) {
	if b.Run != nil {
		b.Run.T = graphio.DeltaBlockTemplate{}
	}
	a.pool.Put(b)
}

// Runs returns a block-capable view of the hand-off: same channel, pool,
// and backpressure, but block runs cross it by reference — a constant-size
// template header sharing the producer's immutable rendered buffers —
// instead of as expanded 24-byte edge records, and the consumer can replay
// the clone straight into a block-capable writer. The view is a separate
// value so the owner chooses per stream whether the composition advertises
// the capability — a batch-only consumer keeps the plain *Async and never
// sees runs.
func (a *Async) Runs() BlockSink { return asyncRuns{a} }

// asyncRuns adds the run hand-off to an Async without changing the batch
// path.
type asyncRuns struct {
	*Async
}

// WriteBlockRun clones the run into a pooled Batch and sends it; the
// *DeltaBlockTemplate is owned by the producer after return, per the
// BlockSink contract, so its header copy is what crosses the channel. The
// copy is constant-size whatever the block's edge count: no bytes move and
// nothing is allocated per run at steady state.
func (r asyncRuns) WriteBlockRun(p int, run BlockRun) error {
	a := r.Async
	b := a.pool.Get().(*Batch)
	b.Edges = b.Edges[:0]
	if b.runScratch == nil {
		b.runScratch = new(BatchRun)
	}
	run.T.CloneInto(&b.runScratch.T)
	b.runScratch.RowBase, b.runScratch.ColBase = run.RowBase, run.ColBase
	b.Run = b.runScratch
	select {
	case a.ch <- b:
		return nil
	case <-a.done:
		a.pool.Put(b)
		return a.ctx.Err()
	}
}
