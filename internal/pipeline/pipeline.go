// Package pipeline is the unified edge-pipeline layer: one composable
// contract for consuming the generator's communication-free edge stream.
//
// The paper's central observation is that generation, measurement, and
// verification are all folds over the same edge stream. Before this layer,
// every consumer re-implemented that fold ad hoc — the service copied each
// batch into a channel, validation hand-rolled two passes, the CLIs carried
// private emit loops, and counting/checksumming lived in a separate
// enumeration engine that could not run alongside a stream. A Sink makes
// "generate once, consume K ways" a primitive instead of K bespoke paths:
// gen.StreamTo drives any Sink, and Tee fans one generation pass out to
// writers, counters, checksums, and the service's pooled hand-off at once.
// The generator's own CountEdges, CountShard and RowDegrees are such folds
// over its one engine.
//
// The sink contract:
//
//   - WriteBatch(p, batch) receives one worker's batch. The sink owns the
//     batch only until WriteBatch returns — the producer reuses the slice —
//     so a sink that retains edges beyond the call must copy them (Async
//     copies into pooled buffers for exactly this reason).
//   - WriteBatch is called concurrently from distinct worker indices p, and
//     serially within one p. Sinks either keep per-worker state (Counter,
//     Checksum, PerWorker) or serialize internally (Writer, Async).
//   - Close is called exactly once, by the streaming driver, after every
//     WriteBatch has returned — on both success and failure — so consumers
//     blocked on a sink's output (the service's edge stream) always observe
//     end-of-stream.
package pipeline

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graphio"
)

// Edge aliases graphio.Edge, the unit every layer of the stack streams.
type Edge = graphio.Edge

// Sink consumes a generator's edge stream batch by batch. See the package
// comment for the ownership and concurrency contract.
type Sink interface {
	// WriteBatch consumes worker p's next batch; the batch is owned by the
	// sink only until the call returns.
	WriteBatch(p int, batch []Edge) error
	// Close releases the sink after the stream ends (flush writers, close
	// channels, fold per-worker state). Called once, even after an error.
	Close() error
}

// Func adapts a bare emit callback to a Sink with a no-op Close — how a
// caller streams into a plain per-batch function (gen.StreamTo over a Func).
// A Func is batch-only, so a pass into one always emits edge batches.
type Func func(p int, batch []Edge) error

// WriteBatch invokes the callback.
func (f Func) WriteBatch(p int, batch []Edge) error { return f(p, batch) }

// Close is a no-op.
func (Func) Close() error { return nil }

// tee fans every batch out to each child in order.
type tee []Sink

// Tee returns a Sink that hands every batch to each of sinks, in argument
// order, within the producing worker's call — one generation pass feeds all
// of them (stream TSV, count, and checksum simultaneously). The first child
// error stops the batch and propagates. Close closes every child, even after
// an error, and joins their errors. The tee is block-capable (BlockSink) iff
// every child is, so one batch-only consumer routes the whole fan-out
// through the batch path rather than silently expanding runs.
func Tee(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	if bs := blockSinks(sinks); bs != nil {
		return &blockTee{tee: tee(sinks), blocks: bs}
	}
	return tee(sinks)
}

func (t tee) WriteBatch(p int, batch []Edge) error {
	for _, s := range t {
		if err := s.WriteBatch(p, batch); err != nil {
			return err
		}
	}
	return nil
}

func (t tee) Close() error {
	var errs []error
	for _, s := range t {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// keepOpen shields a sink from the streaming driver's Close.
type keepOpen struct {
	Sink
}

func (keepOpen) Close() error { return nil }

// KeepOpen returns s with Close turned into a no-op, for sinks whose
// lifecycle outlives one streaming pass: the owner closes the underlying
// sink itself once it has finished its own bookkeeping (the job service
// closes its pooled stream only after the job's terminal state is recorded,
// so the consumer's end-of-stream snapshot sees the final state). The
// wrapper stays block-capable when s is.
func KeepOpen(s Sink) Sink {
	if bs, ok := s.(BlockSink); ok {
		return blockKeepOpen{keepOpen: keepOpen{s}, bs: bs}
	}
	return keepOpen{s}
}

// perWorker routes worker p's batches to the p-th child.
type perWorker []Sink

// PerWorker returns a Sink that routes worker p's batches to sinks[p],
// giving each generation worker an unshared consumer — per-worker chunk
// files, for example — so no serialization is needed and per-worker output
// order is deterministic. A worker index outside the sink list is an error.
// Close closes every child and joins their errors. The router is
// block-capable iff every child is.
func PerWorker(sinks ...Sink) Sink {
	if bs := blockSinks(sinks); bs != nil {
		return &blockPerWorker{perWorker: perWorker(sinks), blocks: bs}
	}
	return perWorker(sinks)
}

func (w perWorker) WriteBatch(p int, batch []Edge) error {
	if p < 0 || p >= len(w) {
		return fmt.Errorf("pipeline: worker %d outside the %d per-worker sinks", p, len(w))
	}
	return w[p].WriteBatch(p, batch)
}

func (w perWorker) Close() error {
	var errs []error
	for _, s := range w {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// paddedInt64 keeps each worker's fold slot on its own cache line so the
// per-batch folds never share lines across workers.
type paddedInt64 struct {
	n int64
	_ [56]byte
}

// Counter is a fold Sink that counts streamed edges — teed beside any
// consumer, it reproduces CountEdges' total from the same pass (CountEdges
// itself is a Counter and a Checksum over the generator's stream). Each
// worker folds into its own padded slot; Total merges them.
type Counter struct {
	slots []paddedInt64
}

// NewCounter returns a Counter for worker indices [0, np).
func NewCounter(np int) *Counter { return &Counter{slots: make([]paddedInt64, np)} }

// WriteBatch adds the batch's length to worker p's count.
func (c *Counter) WriteBatch(p int, batch []Edge) error {
	c.slots[p].n += int64(len(batch))
	return nil
}

// Close is a no-op; the fold lives in the slots until Total reads them.
func (c *Counter) Close() error { return nil }

// Total returns the edges counted, summed across workers. Call it only
// after the streaming pass has ended: the slots are written without
// synchronization by the workers (the whole point of the padded per-worker
// layout), so a concurrent read races. Drivers that need live progress keep
// their own atomics (the job service's progress fold does).
func (c *Counter) Total() int64 {
	var n int64
	for i := range c.slots {
		n += c.slots[i].n
	}
	return n
}

// Checksum is a fold Sink computing the XOR content checksum of a stream —
// the identical folding CountEdges and shard plans use (s ^= row·31 + col
// per edge, XOR across workers), so a live stream's checksum reconciles
// directly against CountEdges, CountShard, and ChecksumPlan values. XOR's
// commutativity makes the result independent of worker count and batch
// interleaving.
type Checksum struct {
	slots []paddedInt64
}

// NewChecksum returns a Checksum for worker indices [0, np).
func NewChecksum(np int) *Checksum { return &Checksum{slots: make([]paddedInt64, np)} }

// WriteBatch folds the batch into worker p's slot.
func (c *Checksum) WriteBatch(p int, batch []Edge) error {
	s := c.slots[p].n
	for _, e := range batch {
		s ^= e.Row*31 + e.Col
	}
	c.slots[p].n = s
	return nil
}

// Close is a no-op; the fold lives in the slots until Sum reads them.
func (c *Checksum) Close() error { return nil }

// Sum returns the XOR of every worker's folded checksum. As with
// Counter.Total, call it only after the streaming pass has ended — the
// slots are unsynchronized by design.
func (c *Checksum) Sum() int64 {
	var s int64
	for i := range c.slots {
		s ^= c.slots[i].n
	}
	return s
}

// writerSink serializes a shared EdgeWriter behind a mutex.
type writerSink struct {
	mu sync.Mutex
	ew graphio.EdgeWriter
}

// Writer wraps a graphio.EdgeWriter as a Sink. Batches are encoded whole
// (EdgeWriter.WriteEdges) under a mutex, so the output interleaves worker
// batches atomically; with one worker — or one Writer per worker via
// PerWorker — the byte stream is deterministic and identical to calling
// WriteEdges directly. Close finishes writers whose format has an explicit
// end-of-stream marker (graphio.Finisher, e.g. the binary trailer) and
// flushes; a sink Close marks a complete stream, so compositions ending in
// Writer get the trailer for free. Wrap with KeepOpen to close a pipeline
// without ending the underlying stream. When the writer replays blocks
// natively (graphio.BlockRunWriter reporting ReplaysBlocks — the KRNB delta
// encoder) the sink is block-capable, turning each run into one cached-byte
// replay under the same mutex; writers without a genuine fast path (TSV,
// fixed-width binary) stay batch-only so they keep their own hot paths.
func Writer(ew graphio.EdgeWriter) Sink {
	ws := &writerSink{ew: ew}
	if brw, ok := ew.(graphio.BlockRunWriter); ok && brw.ReplaysBlocks() {
		return &blockWriterSink{writerSink: ws, brw: brw}
	}
	return ws
}

func (w *writerSink) WriteBatch(p int, batch []Edge) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ew.WriteEdges(batch)
}

func (w *writerSink) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if f, ok := w.ew.(graphio.Finisher); ok {
		// Finish frames pending edges, writes the trailer, and flushes.
		return f.Finish()
	}
	return w.ew.Flush()
}
