package service

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/kron"
)

// TestStreamServiceZeroAllocsPerBatch is the alloc-regression guard for the
// pooled streaming hot path: one steady-state round trip — a worker batch
// through the job's full instrumented sink chain (progress fold, checksum
// fold, pooled hand-off, each behind pipeline.Instrument) and the consumer's
// recycle — must allocate nothing. The
// pre-pipeline service failed this by construction: its emit callback did
// `out := make([]kron.Edge, len(batch)); copy(out, batch)` per batch, one
// guaranteed allocation on the hottest serving path. The round trip is run
// synchronously (write, receive, recycle) so the pool always holds the
// buffer back before the next write — the steady state by definition.
// Under -race the assertion is skipped (race instrumentation allocates) but
// the path still runs, so the race job exercises the pooled chain.
func TestStreamServiceZeroAllocsPerBatch(t *testing.T) {
	cfg := DefaultConfig()
	m := NewManager(cfg, &Metrics{})
	defer m.Close()
	j := &Job{
		id:       "jalloc",
		workers:  1,
		sink:     SinkStream,
		ctx:      context.Background(),
		cancel:   func() {},
		stream:   pipeline.NewAsync(context.Background(), 1),
		attachCh: make(chan struct{}),
		done:     make(chan struct{}),
	}
	sink, cks := m.jobSink(j)
	// Snapshot the (process-global) stage counters so the end-of-test
	// assertion measures only this test's traffic.
	stageBefore := obs.Stages.Stage(stageProgress).Snapshot()

	batch := make([]kron.Edge, cfg.BatchSize)
	for i := range batch {
		batch[i] = kron.Edge{Row: int64(i), Col: int64(2 * i), Val: 1}
	}
	roundTrip := func() {
		if err := sink.WriteBatch(0, batch); err != nil {
			t.Fatal(err)
		}
		b := <-j.stream.Batches()
		j.Recycle(b)
	}
	// Warm-up: the first round may grow the pooled buffer to the batch
	// size — the one allocation the pool amortizes away.
	roundTrip()

	allocs := testing.AllocsPerRun(100, roundTrip)
	if raceEnabled {
		t.Logf("race build: observed %.1f allocs/batch; assertion skipped (instrumentation allocates)", allocs)
	} else if allocs != 0 {
		t.Fatalf("pooled streaming path allocates %.1f times per batch, want 0 "+
			"(the pre-pipeline copy hand-off allocated every batch)", allocs)
	}

	// The chain is the real one: the teed progress fold saw every round
	// trip. (The checksum fold's XOR of identical batches cancels pairwise,
	// so only the count is asserted; one distinct batch pins the fold.)
	if got := j.generated.Load(); got == 0 || got%int64(cfg.BatchSize) != 0 {
		t.Fatalf("progress fold counted %d edges — the measured chain is not the service sink chain", got)
	}
	before := cks.Sum()
	distinct := []kron.Edge{{Row: 1, Col: 1, Val: 1}}
	if err := sink.WriteBatch(0, distinct); err != nil {
		t.Fatal(err)
	}
	b := <-j.stream.Batches()
	j.Recycle(b)
	if cks.Sum() == before {
		t.Fatal("checksum fold never ran — the measured chain is not the service sink chain")
	}
	// The zero-alloc figure above covers the instrumentation wrappers too:
	// the stage counters must show every batch this test pushed, or the
	// measured chain silently lost its Instrument layer.
	stageAfter := obs.Stages.Stage(stageProgress).Snapshot()
	if d := stageAfter.Batches - stageBefore.Batches; d < 102 { // warm-up + 100 timed + distinct
		t.Fatalf("stage %q recorded %d batches during the test, want ≥ 102 — "+
			"the instrumented wrappers are not in the measured chain", stageProgress, d)
	}
	if stageAfter.Busy <= stageBefore.Busy {
		t.Fatalf("stage %q busy time did not advance", stageProgress)
	}
}

// TestStreamServiceZeroAllocsPerBlockRun is the same guard for the
// block-replay transport: one steady-state round trip of a rendered block
// template — through the block-capable sink chain (progress and checksum
// folds, pooled run hand-off via Async.Runs) and the consumer's recycle —
// must allocate nothing. The clone is a constant-size header copy into the
// batch's retained run scratch, sharing the template's immutable rendered
// buffers, so after the warm-up round the hand-off moves no edge bytes.
func TestStreamServiceZeroAllocsPerBlockRun(t *testing.T) {
	cfg := DefaultConfig()
	m := NewManager(cfg, &Metrics{})
	defer m.Close()
	j := &Job{
		id:        "jblockalloc",
		workers:   1,
		sink:      SinkStream,
		ctx:       context.Background(),
		cancel:    func() {},
		stream:    pipeline.NewAsync(context.Background(), 1),
		attachCh:  make(chan struct{}),
		done:      make(chan struct{}),
		blockRuns: true,
	}
	sink, cks := m.jobSink(j)
	bs, ok := sink.(pipeline.BlockSink)
	if !ok {
		t.Fatal("jobSink for a runs-attached stream job is not block-capable")
	}

	var tmpl kron.DeltaBlockTemplate
	block := make([]kron.Edge, 512)
	for i := range block {
		block[i] = kron.Edge{Row: int64(i / 16), Col: int64(i % 16), Val: 1}
	}
	tmpl.Render(block)
	var base int64
	roundTrip := func() {
		base += 512
		if err := bs.WriteBlockRun(0, pipeline.BlockRun{T: &tmpl, RowBase: base, ColBase: base}); err != nil {
			t.Fatal(err)
		}
		b := <-j.stream.Batches()
		if b.Run == nil {
			t.Fatal("runs hand-off delivered a batch without its block run")
		}
		j.Recycle(b)
	}
	roundTrip()

	allocs := testing.AllocsPerRun(100, roundTrip)
	if raceEnabled {
		t.Logf("race build: observed %.1f allocs/run; assertion skipped (instrumentation allocates)", allocs)
	} else if allocs != 0 {
		t.Fatalf("block-run streaming path allocates %.1f times per replayed block, want 0", allocs)
	}

	// The measured chain is the real one: the progress fold counted every
	// run's closed-form edge count. (The XOR checksum of the timed rounds can
	// cancel pairwise — the per-round fold differs only in the block base,
	// whose even-count XOR vanishes — so the fold is pinned with one distinct
	// single-edge run instead.)
	if got := j.generated.Load(); got != 102*512 {
		t.Fatalf("progress fold counted %d edges, want %d", got, 102*512)
	}
	before := cks.Sum()
	var one kron.DeltaBlockTemplate
	one.Render([]kron.Edge{{Row: 1, Col: 2, Val: 3}})
	if err := bs.WriteBlockRun(0, pipeline.BlockRun{T: &one, RowBase: 5, ColBase: 6}); err != nil {
		t.Fatal(err)
	}
	b := <-j.stream.Batches()
	j.Recycle(b)
	if cks.Sum() == before {
		t.Fatal("checksum fold never ran — the measured chain is not the service sink chain")
	}
}

// TestStreamServiceBlockRunBytesIndependentOfTemplate guards what
// AllocsPerRun cannot see: the bytes a fresh job's run hand-off allocates.
// A fresh job starts with an empty pool, so each of its first QueueDepth
// block runs draws a new Batch; a hand-off that deep-copied the rendered
// template into that Batch would allocate the whole block (about 35 bytes
// per edge) per run — one allocation count, megabytes of memmove. Runs
// cross by reference, so 64 runs of a 100k-edge template must allocate less
// than a tenth of one template's rendered size.
func TestStreamServiceBlockRunBytesIndependentOfTemplate(t *testing.T) {
	cfg := DefaultConfig()
	m := NewManager(cfg, &Metrics{})
	defer m.Close()
	j := &Job{
		id:        "jblockbytes",
		workers:   1,
		sink:      SinkStream,
		ctx:       context.Background(),
		cancel:    func() {},
		stream:    pipeline.NewAsync(context.Background(), cfg.QueueDepth),
		attachCh:  make(chan struct{}),
		done:      make(chan struct{}),
		blockRuns: true,
	}
	sink, _ := m.jobSink(j)
	bs, ok := sink.(pipeline.BlockSink)
	if !ok {
		t.Fatal("jobSink for a runs-attached stream job is not block-capable")
	}
	const edges = 100_000
	block := make([]kron.Edge, edges)
	for i := range block {
		block[i] = kron.Edge{Row: int64(i / 256), Col: int64(i % 256), Val: 1}
	}
	var tmpl kron.DeltaBlockTemplate
	tmpl.Render(block)
	// The locals copy alone is 24 bytes per edge; the tail and checksum
	// terms add more.
	const templateBytes = 24 * edges

	runs := cfg.QueueDepth
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		base := int64(i) * edges
		if err := bs.WriteBlockRun(0, pipeline.BlockRun{T: &tmpl, RowBase: base, ColBase: base}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for range runs {
		j.Recycle(<-j.stream.Batches())
	}
	if got := j.generated.Load(); got != int64(runs)*edges {
		t.Fatalf("progress fold counted %d edges, want %d — the measured chain is not the service sink chain", got, runs*edges)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > templateBytes/10 {
		t.Fatalf("a fresh job's first %d block runs allocated %d bytes, want < %d: "+
			"the hand-off copies the template instead of passing it by reference", runs, alloc, templateBytes/10)
	}
}
