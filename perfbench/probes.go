package main

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/bigdeg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/triangle"
	"repro/internal/validate"
)

// Probe kinds: what a per-layer series measures. An emit series must
// deliver every edge to its sink, never fold a run in closed form.
const (
	kindEmit    = "emit"
	kindFold    = "fold"
	kindEncode  = "encode"
	kindDecode  = "decode"
	kindHandoff = "handoff"
	kindE2E     = "e2e"
)

// probeReps is how many times each sub-second probe repeats; it reports
// the median.
const probeReps = 3

// layerMetric is one per-layer series of the traced run.
type layerMetric struct {
	name, kind, unit string
	value            float64
	// rateOf marks a series over the design of the workloads whose names
	// start with it; the traced run prints its rate as a multiple of that
	// workload's edges_per_s.
	rateOf string
}

// prober runs the per-layer probes, each timed around public calls into
// one layer, and counts every probe as an attempted, checked op.
type prober struct {
	ctx       context.Context
	tr        *tracer
	op        int
	out       []layerMetric
	attempted int
	failed    int
	errs      []error
}

func (p *prober) add(m layerMetric) { p.out = append(p.out, m) }

// fail records a probe that could not run as an attempted, failed op.
func (p *prober) fail(name string, err error) {
	p.attempted++
	p.failed++
	p.errs = append(p.errs, fmt.Errorf("probe %s: %w", name, err))
}

// timed runs f under a root span named after the probe and returns its
// wall time. f returns the edges it processed, which must equal want (a
// negative want skips the check); an error or a miscount fails the probe.
func (p *prober) timed(name string, want int64, f func(parent int) (int64, error)) (time.Duration, bool) {
	p.op++
	p.attempted++
	sp := p.tr.begin("probe."+name, 0, p.op)
	start := time.Now()
	got, err := f(sp)
	el := time.Since(start)
	p.tr.end(sp, got)
	if err == nil && want >= 0 && got != want {
		err = fmt.Errorf("processed %d edges, want %d", got, want)
	}
	if err != nil {
		p.failed++
		p.errs = append(p.errs, fmt.Errorf("probe %s: %w", name, err))
		return el, false
	}
	return el, true
}

// medianOf runs a probe probeReps times and returns its median wall time.
func (p *prober) medianOf(name string, want int64, f func(parent int) (int64, error)) (float64, bool) {
	var ts []float64
	for range probeReps {
		el, ok := p.timed(name, want, f)
		if !ok {
			return 0, false
		}
		ts = append(ts, el.Seconds())
	}
	return median(ts), true
}

// streamSide is the stream workloads' design, realized once for the
// generator-side probes, with its CountEdges oracle.
type streamSide struct {
	g             *gen.Generator
	edges, cksum  int64
	workers       int
	shard         gen.ShardInfo // the slice the decode probes capture
	shardChecksum int64
}

// decodeShards is how finely the decode probes slice the stream design:
// they decode the captured bytes of shard 0, 1/32 of the job, repeatedly,
// which keeps the fixed-width capture near 30 MB instead of 955 MB.
const decodeShards = 32

// decodeReps is how many times the decode probes decode their capture: one
// pass takes milliseconds, too short to time alone.
const decodeReps = 9

func newStreamSide(ctx context.Context) (*streamSide, error) {
	d, err := service.DesignRequest{Points: streamDesign.Points, Loop: streamDesign.Loop}.Build()
	if err != nil {
		return nil, err
	}
	g, err := gen.New(d, streamDesign.Split)
	if err != nil {
		return nil, err
	}
	s := &streamSide{g: g, workers: streamDesign.Workers}
	if s.edges, s.cksum, err = g.CountEdges(ctx, s.workers); err != nil {
		return nil, err
	}
	plan, err := g.PlanShards(decodeShards)
	if err != nil {
		return nil, err
	}
	s.shard = plan[0]
	if _, s.shardChecksum, err = g.CountShard(ctx, s.shard, 1); err != nil {
		return nil, err
	}
	return s, nil
}

// checkSum compares a probe's checksum fold with the CountEdges oracle.
func checkSum(got, want int64) error {
	if got != want {
		return fmt.Errorf("checksum %d, CountEdges gives %d", got, want)
	}
	return nil
}

// genProbes time generation into sinks that read every edge: the batch
// engine (a batch-only sink) and the block-replay engine (a BlockHandler
// whose run callback folds each run edge by edge).
func (p *prober) genProbes(s *streamSide) {
	rate := func(t float64) float64 { return float64(s.edges) / t }
	if t, ok := p.medianOf("gen.batch_emit", s.edges, func(int) (int64, error) {
		cnt, cks := pipeline.NewCounter(s.workers), pipeline.NewChecksum(s.workers)
		err := s.g.StreamTo(p.ctx, s.workers, 0, pipeline.Func(func(w int, batch []pipeline.Edge) error {
			_ = cnt.WriteBatch(w, batch)
			return cks.WriteBatch(w, batch)
		}))
		if err == nil {
			err = checkSum(cks.Sum(), s.cksum)
		}
		return cnt.Total(), err
	}); ok {
		p.add(layerMetric{name: "gen.batch_emit_edges_per_s", kind: kindEmit, unit: "edges/s", value: rate(t), rateOf: "stream-fixed"})
	}
	if t, ok := p.medianOf("gen.block_emit", s.edges, func(int) (int64, error) {
		cnt, cks := pipeline.NewCounter(s.workers), pipeline.NewChecksum(s.workers)
		var runs atomic.Int64
		err := s.g.StreamTo(p.ctx, s.workers, 0, pipeline.BlockHandler(
			func(w int, batch []pipeline.Edge) error {
				_ = cnt.WriteBatch(w, batch)
				return cks.WriteBatch(w, batch)
			},
			func(w int, run pipeline.BlockRun) error {
				_ = cnt.WriteBlockRun(w, run)
				runs.Add(1)
				return cks.WriteBlockRun(w, run) // folds every edge of the run
			}))
		if err == nil && runs.Load() == 0 {
			err = fmt.Errorf("no block runs delivered: the block engine did not run")
		}
		if err == nil {
			err = checkSum(cks.Sum(), s.cksum)
		}
		return cnt.Total(), err
	}); ok {
		p.add(layerMetric{name: "gen.block_emit_edges_per_s", kind: kindEmit, unit: "edges/s", value: rate(t), rateOf: "stream-delta"})
	}
}

// asyncProbe drives gen → Async (or Async.Runs) → one draining goroutine
// that folds every edge and recycles each batch, as the service's stream
// consumer does. It returns the wall time, the consumer's share of it spent
// waiting on the channel, and heap allocations per delivered batch.
func (p *prober) asyncProbe(s *streamSide, runs bool, parent int) (edges int64, wait float64, allocs float64, err error) {
	a := pipeline.NewAsync(p.ctx, 64) // the service's default QueueDepth
	var sink pipeline.Sink = a
	if runs {
		sink = a.Runs()
	}
	cks := pipeline.NewChecksum(1)
	var waited time.Duration
	var batches, runsSeen int64
	done := make(chan struct{})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	go func() {
		defer close(done)
		ch := a.Batches()
		for {
			t := time.Now()
			b, ok := <-ch
			waited += time.Since(t)
			if !ok {
				return
			}
			batches++
			if b.Run != nil {
				runsSeen++
				edges += int64(b.Run.Len())
				_ = cks.WriteBlockRun(0, pipeline.BlockRun{T: &b.Run.T, RowBase: b.Run.RowBase, ColBase: b.Run.ColBase})
			} else {
				edges += int64(len(b.Edges))
				_ = cks.WriteBatch(0, b.Edges)
			}
			a.Recycle(b)
		}
	}()
	sp := p.tr.begin("gen.StreamTo", parent, p.op)
	err = s.g.StreamTo(p.ctx, s.workers, 0, sink)
	p.tr.end(sp, 0)
	<-done
	el := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return edges, 0, 0, err
	}
	if runs != (runsSeen > 0) {
		return edges, 0, 0, fmt.Errorf("runs hand-off %v but %d runs crossed it", runs, runsSeen)
	}
	return edges, waited.Seconds() / el.Seconds(), float64(ms1.Mallocs-ms0.Mallocs) / float64(max(batches, 1)), checkSum(cks.Sum(), s.cksum)
}

func (p *prober) pipelineProbes(s *streamSide) {
	for _, v := range []struct {
		runs         bool
		name, rateOf string
	}{{false, "async_batch", "stream-fixed"}, {true, "async_runs", "stream-delta"}} {
		var waits, allocs []float64
		t, ok := p.medianOf("pipeline."+v.name, s.edges, func(parent int) (int64, error) {
			n, w, al, err := p.asyncProbe(s, v.runs, parent)
			waits, allocs = append(waits, w), append(allocs, al)
			return n, err
		})
		if !ok {
			continue
		}
		p.add(layerMetric{name: "pipeline." + v.name + "_edges_per_s", kind: kindHandoff, unit: "edges/s", value: float64(s.edges) / t, rateOf: v.rateOf})
		p.add(layerMetric{name: "pipeline." + v.name + "_consumer_wait_frac", kind: kindHandoff, unit: "fraction", value: median(waits)})
		allocName := "pipeline.allocs_per_batch"
		if v.runs {
			allocName = "pipeline.allocs_per_run"
		}
		p.add(layerMetric{name: allocName, kind: kindHandoff, unit: "count", value: median(allocs)})
	}

	// Instrument around an edge-reading sink versus the bare sink, in
	// alternating passes of the same run.
	stage := obs.NewStageSet().Stage("perfbench")
	pass := func(instrument bool) func(int) (int64, error) {
		return func(int) (int64, error) {
			cnt, cks := pipeline.NewCounter(s.workers), pipeline.NewChecksum(s.workers)
			var sink pipeline.Sink = pipeline.Func(func(w int, batch []pipeline.Edge) error {
				_ = cnt.WriteBatch(w, batch)
				return cks.WriteBatch(w, batch)
			})
			if instrument {
				sink = pipeline.Instrument(stage, sink)
			}
			err := s.g.StreamTo(p.ctx, s.workers, 0, sink)
			if err == nil {
				err = checkSum(cks.Sum(), s.cksum)
			}
			return cnt.Total(), err
		}
	}
	var bare, instr []float64
	for range probeReps {
		tb, ok1 := p.timed("pipeline.bare", s.edges, pass(false))
		ti, ok2 := p.timed("pipeline.instrumented", s.edges, pass(true))
		if !ok1 || !ok2 {
			return
		}
		bare, instr = append(bare, tb.Seconds()), append(instr, ti.Seconds())
	}
	p.add(layerMetric{name: "pipeline.instrument_overhead_frac", kind: kindEmit, unit: "fraction", value: median(instr)/median(bare) - 1})
}

// countingWriter discards bytes and counts them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) { c.n += int64(len(b)); return len(b), nil }

// graphioProbes time the KRNB encoders (one generation worker into
// pipeline.Writer, as the service's writer runs serialized) over the whole
// stream design, and ReadBinary over captured bytes of one shard of it.
func (p *prober) graphioProbes(s *streamSide) {
	for _, v := range []struct {
		name, rateOf string
		enc          graphio.BinaryEncoding
	}{{"delta", "stream-delta", graphio.BinaryDelta}, {"fixed", "stream-fixed", graphio.BinaryFixed}} {
		var wire int64
		t, ok := p.medianOf("graphio."+v.name+"_encode", s.edges, func(int) (int64, error) {
			cw := &countingWriter{}
			bw, err := graphio.NewBinaryEdgeWriter(cw, s.edges, v.enc)
			if err != nil {
				return 0, err
			}
			if err := s.g.StreamTo(p.ctx, 1, 0, pipeline.Writer(bw)); err != nil {
				return bw.Count(), err
			}
			wire = cw.n
			return bw.Count(), checkSum(bw.Checksum(), s.cksum)
		})
		if ok {
			p.add(layerMetric{name: "graphio." + v.name + "_encode_edges_per_s", kind: kindEncode, unit: "edges/s", value: float64(s.edges) / t, rateOf: v.rateOf})
			p.add(layerMetric{name: "graphio." + v.name + "_bytes_per_edge", kind: kindEncode, unit: "B/edge", value: float64(wire) / float64(s.edges)})
		}

		var buf bytes.Buffer
		bw, err := graphio.NewBinaryEdgeWriter(&buf, s.shard.Edges, v.enc)
		if err == nil {
			err = s.g.StreamShardTo(p.ctx, s.shard, 1, 0, pipeline.Writer(bw))
		}
		if err != nil {
			p.fail("graphio."+v.name+"_decode", fmt.Errorf("capturing shard: %w", err))
			continue
		}
		data := buf.Bytes()
		var rates []float64
		for len(rates) < decodeReps {
			el, ok := p.timed("graphio."+v.name+"_decode", s.shard.Edges, func(int) (int64, error) {
				var n int64
				info, err := graphio.ReadBinary(p.ctx, bytes.NewReader(data), func(batch []graphio.Edge) error {
					n += int64(len(batch))
					return nil
				})
				if err != nil {
					return n, err
				}
				if info.Edges != n {
					return n, fmt.Errorf("trailer declares %d edges, decoded %d", info.Edges, n)
				}
				return n, checkSum(info.Checksum, s.shardChecksum)
			})
			if !ok {
				break
			}
			rates = append(rates, float64(s.shard.Edges)/el.Seconds())
		}
		if len(rates) == decodeReps {
			p.add(layerMetric{name: "graphio." + v.name + "_decode_edges_per_s", kind: kindDecode, unit: "edges/s", value: median(rates), rateOf: v.rateOf})
		}
	}
}

// hubProbes split validate.Run into its layers on the validate-hub design,
// through the same public calls it makes: the tally pass, the degree merge,
// the scatter pass and CSR build, and each triangle counter.
func (p *prober) hubProbes() {
	d, pred, g, err := hubSide()
	if err != nil {
		p.fail("validate", err)
		return
	}
	np, n, edges := hubDesign.Workers, int(pred.Vertices.Int64()), pred.Edges.Int64()
	tris := pred.Triangles.Int64()
	b, err := sparse.NewCSRBuilder[int64](n, n, np)
	if err != nil {
		p.fail("validate", err)
		return
	}
	secs := func(name, kind string, t time.Duration, ok bool) bool {
		if ok {
			p.add(layerMetric{name: name, kind: kind, unit: "s", value: t.Seconds(), rateOf: "validate-hub"})
		}
		return ok
	}
	t, ok := p.timed("validate.tally", edges, func(int) (int64, error) {
		err := g.StreamTo(p.ctx, np, 0, pipeline.Func(func(w int, batch []pipeline.Edge) error {
			for _, e := range batch {
				b.Count(w, int(e.Row))
			}
			return nil
		}))
		if err == nil {
			err = b.Finalize()
		}
		return int64(b.NNZ()), err
	})
	if !secs("validate.tally_s", kindFold, t, ok) {
		return
	}
	t, ok = p.timed("validate.merge", -1, func(int) (int64, error) {
		hist, err := sparse.DegreeHistogramCSR(b.RowPtr(), np)
		if err != nil {
			return 0, err
		}
		md := bigdeg.New()
		for deg, cnt := range hist {
			md.AddCount(big.NewInt(deg), big.NewInt(cnt))
		}
		if !bigdeg.Equal(md, pred.Degrees) {
			return 0, fmt.Errorf("merged degree distribution differs from the design's")
		}
		return 0, nil
	})
	secs("validate.merge_s", kindFold, t, ok)
	var a *sparse.CSR[int64]
	t, ok = p.timed("validate.scatter", edges, func(int) (int64, error) {
		err := g.StreamTo(p.ctx, np, 0, pipeline.Func(func(w int, batch []pipeline.Edge) error {
			for _, e := range batch {
				b.Place(w, int(e.Row), int(e.Col), e.Val)
			}
			return nil
		}))
		if err != nil {
			return 0, err
		}
		a, err = b.Build()
		if err != nil {
			return 0, err
		}
		return int64(a.NNZ()), nil
	})
	if !secs("validate.scatter_s", kindFold, t, ok) {
		return
	}
	for _, c := range []struct {
		name  string
		count func(context.Context, *sparse.CSR[int64], int) (int64, error)
	}{
		{"triangle.count_both", triangle.CountBothCSR},
		{"triangle.linear_algebra", triangle.CountLinearAlgebraCSR},
		{"triangle.node_iterator", triangle.CountNodeIteratorCSR},
	} {
		t, ok := p.timed(c.name, -1, func(int) (int64, error) {
			got, err := c.count(p.ctx, a, np)
			if err == nil && got != tris {
				err = fmt.Errorf("counted %d triangles, design has %d", got, tris)
			}
			return 0, err
		})
		secs(c.name+"_s", kindFold, t, ok)
	}
	a = nil

	// validate.Run whole at one and at two workers, same run.
	var took [2]time.Duration
	for i, workers := range []int{1, np} {
		took[i], ok = p.timed(fmt.Sprintf("validate.Run.np%d", workers), edges, func(int) (int64, error) {
			rep, err := validate.Run(p.ctx, d, hubDesign.Split, workers)
			if err != nil {
				return 0, err
			}
			if !rep.ExactAgreement {
				return rep.MeasuredEdges, fmt.Errorf("validation disagrees: %v", rep.Mismatches)
			}
			return rep.MeasuredEdges, nil
		})
		if !ok {
			return
		}
	}
	p.add(layerMetric{name: "validate.np2_speedup", kind: kindE2E, unit: "x", value: took[0].Seconds() / took[1].Seconds()})
}

// hubSide builds the validate-hub design, its predictions and generator.
func hubSide() (*core.Design, *core.Properties, *gen.Generator, error) {
	d, err := service.DesignRequest{Points: hubDesign.Points, Loop: hubDesign.Loop}.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	pred, err := d.Compute()
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := gen.New(d, hubDesign.Split)
	return d, pred, g, err
}

// coreProbes time the closed forms over the design-mix pool, each call on
// a freshly built design, cross-checking the three against each other.
func (p *prober) coreProbes(pool []poolDesign) {
	var comp, dist, tri []float64
	// timeCall times one closed form on a freshly built design, so nothing
	// a previous call computed is reused.
	timeCall := func(pd *poolDesign, name string, into *[]float64, f func(*core.Design) error) error {
		d, err := pd.req.Build()
		if err != nil {
			return err
		}
		sp := p.tr.begin(name, 0, p.op)
		start := time.Now()
		err = f(d)
		*into = append(*into, time.Since(start).Seconds())
		p.tr.end(sp, 0)
		if err != nil {
			return fmt.Errorf("design %s: %w", pd.name, err)
		}
		return nil
	}
	p.op++
	p.attempted++
	for i := range pool {
		pd := &pool[i]
		var props *core.Properties
		err := timeCall(pd, "core.Compute", &comp, func(d *core.Design) (err error) {
			props, err = d.Compute()
			return err
		})
		if err == nil {
			err = timeCall(pd, "core.DegreeDistribution", &dist, func(d *core.Design) error {
				dd, err := d.DegreeDistribution()
				if err == nil && !bigdeg.Equal(dd, props.Degrees) {
					err = fmt.Errorf("DegreeDistribution differs from Compute")
				}
				return err
			})
		}
		if err == nil {
			err = timeCall(pd, "core.Triangles", &tri, func(d *core.Design) error {
				t, err := d.Triangles()
				if err == nil && t.Cmp(props.Triangles) != 0 {
					err = fmt.Errorf("Triangles %s, Compute %s", t, props.Triangles)
				}
				return err
			})
		}
		if err != nil {
			p.failed++
			p.errs = append(p.errs, fmt.Errorf("probe core: %w", err))
			return
		}
	}
	p.add(layerMetric{name: "core.compute_p50_s", kind: kindFold, unit: "s", value: median(comp)})
	p.add(layerMetric{name: "core.degree_dist_p50_s", kind: kindFold, unit: "s", value: median(dist)})
	p.add(layerMetric{name: "core.triangles_p50_s", kind: kindFold, unit: "s", value: median(tri)})
}

// serviceProbes report the service layer: job submission, first edge,
// client read wait and job rate from stream ops, and hit/miss latency and
// the cache's own hit ratio from design ops. They reuse the traced loop's
// ops when the workload is of that kind and run a short loop on a fresh
// service otherwise.
func (p *prober) serviceProbes(b bench, res *loopResult, seed int64) {
	loopOps := func(nb bench, n int) []sample {
		r := runLoop(nb, 0, n, p.tr, p.op+1)
		p.op += r.attempted
		p.attempted += r.attempted
		p.failed += r.failed
		p.errs = append(p.errs, r.errs...)
		return slices.Concat(r.samples, r.traced)
	}
	var samples []sample
	sb, ok := b.(*streamBench)
	if ok {
		samples = slices.Concat(res.samples, res.traced)
	} else {
		nb, err := newStreamBench(streamWith("delta"), nil)
		if err != nil {
			p.fail("service.stream", err)
		} else {
			defer nb.close()
			sb, samples = nb, loopOps(nb, 3)
		}
	}
	if len(samples) > 0 {
		var wait, busy time.Duration
		for _, s := range samples {
			wait += s.readWait
			busy += s.dur
		}
		p.add(layerMetric{name: "service.submit_p50_s", kind: kindE2E, unit: "s",
			value: median(durs(samples, func(s sample) time.Duration { return s.submit }))})
		p.add(layerMetric{name: "service.first_edge_p50_s", kind: kindE2E, unit: "s",
			value: median(durs(samples, func(s sample) time.Duration { return s.firstEdge }))})
		p.add(layerMetric{name: "service.client_read_wait_frac", kind: kindHandoff, unit: "fraction",
			value: wait.Seconds() / busy.Seconds()})
		rates := make([]float64, len(samples))
		for i, s := range samples {
			rates[i] = s.jobEdgesPerSec
		}
		p.add(layerMetric{name: "service.job_edges_per_s", kind: kindEmit, unit: "edges/s", value: median(rates), rateOf: "stream-"})
		if got, err := sb.srv.scrape("kronserve_jobs_rejected_total"); err != nil {
			p.fail("service.metrics", err)
		} else {
			p.add(layerMetric{name: "service.jobs_rejected", kind: kindE2E, unit: "count", value: got["kronserve_jobs_rejected_total"]})
		}
	}

	db, ok := b.(*designBench)
	if ok {
		samples = slices.Concat(res.samples, res.traced)
	} else {
		samples = nil
		pool, err := designPool(seed, poolFactor*cacheCapacity())
		if err == nil {
			db, err = newDesignBench(seed, pool)
		}
		if err != nil {
			p.fail("service.design", err)
			return
		}
		defer db.close()
		loopOps(db, len(pool)) // fill the cache
		samples = loopOps(db, 2*len(pool))
	}
	var hit, miss []float64
	for _, s := range samples {
		if s.cached {
			hit = append(hit, s.dur.Seconds())
		} else {
			miss = append(miss, s.dur.Seconds())
		}
	}
	all := summarize(durs(samples, opDur))
	p.add(layerMetric{name: "service.design_hit_p50_s", kind: kindE2E, unit: "s", value: median(hit)})
	p.add(layerMetric{name: "service.design_miss_p50_s", kind: kindE2E, unit: "s", value: median(miss)})
	if all.P90OK {
		p.add(layerMetric{name: "service.design_p90_s", kind: kindE2E, unit: "s", value: all.P90})
	}
	got, err := db.srv.scrape("kronserve_design_cache_hits_total", "kronserve_design_cache_misses_total")
	if err != nil {
		p.fail("service.metrics", err)
		return
	}
	hits, misses := got["kronserve_design_cache_hits_total"], got["kronserve_design_cache_misses_total"]
	p.add(layerMetric{name: "service.design_cache_hit_ratio", kind: kindE2E, unit: "fraction", value: hits / (hits + misses)})
}
