package kron

import (
	"context"
	"io"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// --- The edge-pipeline layer ----------------------------------------------
//
// Generation, measurement, and verification are all folds over one
// communication-free edge stream (the paper's central observation). The
// pipeline layer makes that a primitive: a Sink consumes the stream batch
// by batch, combinators compose sinks, and StreamTo drives any sink from
// one generation pass — stream to disk, count, and checksum simultaneously
// instead of generating three times:
//
//	cnt, sum := kron.NewCounter(np), kron.NewChecksum(np)
//	err := kron.StreamTo(ctx, g, np, 0,
//		kron.Tee(kron.Writer(kron.NewTSVEdgeWriter(f)), cnt, sum))
//	// cnt.Total() edges written; sum.Sum() reconciles against shard plans.

// Sink consumes a generator's edge stream batch by batch. WriteBatch owns
// its batch only until it returns (the generator reuses the slice), is
// called concurrently across worker indices and serially within one, and
// Close runs exactly once when the pass ends. See internal/pipeline for the
// full contract.
type Sink = pipeline.Sink

// SinkFunc adapts a bare emit callback to a Sink with a no-op Close.
type SinkFunc = pipeline.Func

// Counter is a fold Sink counting streamed edges — CountEdges' total from a
// live stream.
type Counter = pipeline.Counter

// NewCounter returns a Counter for worker indices [0, np).
func NewCounter(np int) *Counter { return pipeline.NewCounter(np) }

// Checksum is a fold Sink computing a stream's XOR content checksum with
// the identical folding CountEdges and shard plans use, so live streams
// reconcile against ChecksumPlan and JobStatus checksums.
type Checksum = pipeline.Checksum

// NewChecksum returns a Checksum for worker indices [0, np).
func NewChecksum(np int) *Checksum { return pipeline.NewChecksum(np) }

// Tee returns a Sink fanning every batch out to each of sinks in order —
// one generation pass, K consumers.
func Tee(sinks ...Sink) Sink { return pipeline.Tee(sinks...) }

// PerWorker returns a Sink routing worker p's batches to sinks[p], giving
// each generation worker an unshared consumer (per-worker chunk files) with
// deterministic per-worker output order.
func PerWorker(sinks ...Sink) Sink { return pipeline.PerWorker(sinks...) }

// Writer wraps an EdgeWriter as a Sink: batches are encoded whole and
// worker-atomically; Close flushes. With one worker — or one Writer per
// worker via PerWorker — the byte stream is deterministic. When ew replays
// blocks natively (a BlockRunWriter reporting ReplaysBlocks, i.e. the KRNB
// delta encoder) the sink is block-capable and StreamTo switches to the
// block-replay mode.
func Writer(ew EdgeWriter) Sink { return pipeline.Writer(ew) }

// BlockRun is one replay of a rendered block template at a block offset:
// Len() edges, expandable via AppendEdges.
type BlockRun = pipeline.BlockRun

// BlockSink is a Sink that additionally consumes whole block runs — the
// Kronecker-structure fast path. Compositions (Tee, PerWorker, Instrument)
// are block-capable exactly when every member is; StreamTo and
// StreamShardTo detect the capability and replay each B-triple's block as
// one call instead of many batches. Counter and Checksum are block-capable
// folds (closed-form count and checksum per run).
type BlockSink = pipeline.BlockSink

// BlockHandler adapts a batch callback plus a run callback to a BlockSink
// with a no-op Close — the block-capable SinkFunc.
func BlockHandler(batch SinkFunc, run func(p int, run BlockRun) error) BlockSink {
	return pipeline.BlockHandler(batch, run)
}

// EdgeWriter is the streaming edge-encoder contract (TSV, MatrixMarket)
// that Writer adapts into the pipeline.
type EdgeWriter = graphio.EdgeWriter

// TSVEdgeWriter streams "row\tcol\tval" lines.
type TSVEdgeWriter = graphio.TSVEdgeWriter

// NewTSVEdgeWriter returns a TSV edge stream over w, ready for Writer.
func NewTSVEdgeWriter(w io.Writer) *TSVEdgeWriter { return graphio.NewTSVEdgeWriter(w) }

// StreamTo generates the graph with np workers into a composable sink —
// Generator.StreamTo as a function; batchSize <= 0 selects
// DefaultStreamBatchSize. Wrap a bare per-batch callback in SinkFunc. The
// sink is closed exactly once when the pass ends, on success and failure
// alike.
func StreamTo(ctx context.Context, g *Generator, np, batchSize int, sink Sink) error {
	return g.StreamTo(ctx, np, batchSize, sink)
}

// StreamShardTo generates exactly one shard of a deterministic plan into a
// composable sink — StreamTo's multi-process face.
func StreamShardTo(ctx context.Context, g *Generator, s ShardInfo, np, batchSize int, sink Sink) error {
	return g.StreamShardTo(ctx, s, np, batchSize, sink)
}

// Instrument wraps sink so every batch is folded into the named pipeline
// stage of the process-default stage registry: batches, edges, and the
// wall-clock time the wrapped sink spent in WriteBatch (its busy time,
// summed across workers). The wrapper allocates nothing per batch, so it can
// ride any hot path; kronserve's /metrics renders every stage as
// kronserve_stage_{batches,edges,busy_seconds}_total{stage="<name>"}, and
// StageMetricsTo renders the same registry for embedding programs.
//
//	err := kron.StreamTo(ctx, g, np, 0,
//		kron.Tee(kron.Instrument("writer", kron.Writer(ew)), cnt))
func Instrument(name string, sink Sink) Sink {
	return pipeline.Instrument(obs.Stages.Stage(name), sink)
}

// StageMetricsTo renders every instrumented stage's counters in Prometheus
// text exposition format as <prefix>_stage_{batches,edges,busy_seconds}_total
// series labelled by stage name.
func StageMetricsTo(w io.Writer, prefix string) error {
	return obs.Stages.Render(w, prefix)
}

// CompatStreamBatchSize is the internal batch size the per-edge
// Stream convenience runs on. It trades against
// DefaultStreamBatchSize on one axis: the generator checks its context once
// per batch, so the smaller batch keeps per-edge callers' cancellation
// latency near the historical per-B-triple check while batch-native
// consumers use the larger, throughput-oriented default.
const CompatStreamBatchSize = gen.CompatBatchSize
