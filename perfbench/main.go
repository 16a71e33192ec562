// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in a closed loop — one client, one connection, one operation in
// flight — checks every operation against oracles from other layers, and
// prints the measurements as the last line of standard output:
//
//	bash perfbench/run.sh --workload stream-delta --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	stream-delta  POST /v1/jobs for Figure 3's design, GET its KRNB delta
//	              stream over a 127.0.0.1 socket, decode with ReadBinary
//	stream-fixed  the same jobs with fixed-width frames
//	validate-hub  validate.Run whole on a hub-loop design
//	design-mix    seeded POST /v1/designs over a pool 4x the design cache
//
// --trace 0 reports the end-to-end metrics: ops_per_s, op_p50_s,
// cpu_s_per_op, alloc_mib_per_op and setup_s (the median of three complete
// set-ups, each ending with a warm-up). --trace 1 runs the same loop with
// every other op traced, then per-layer probes timed around public calls
// into service, gen, pipeline, graphio, validate/sparse, triangle and
// core/bigdeg, and reports the per-layer metrics; spans go to
// .bench_build/trace/. layers.json records which end-to-end metric each
// per-layer metric should move, and on which workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many complete set-ups an untraced run times; setup_s is
// their median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	st := stamp{Machine: machine(root), Run: runStamp{
		Workload: w.name, Seed: *seed, Seconds: *secs, Trace: *trace == 1, Params: w.params(*seed),
	}}
	b, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", b)

	d := time.Duration(*secs) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *seed, d, st, stdout, stderr)
	} else {
		res, err = runUntraced(w, *seed, d, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", k, m.Value)
			res.Correct = false
			m.Value = 0
			res.Metrics[k] = m
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// setUp builds the workload reps times, timing each complete set-up —
// service and listener, expected values, warm-up ops — and keeps the last.
// A failed warm-up op fails the set-up.
func setUp(w *workload, seed int64, reps int) (bench, []float64, error) {
	var b bench
	var times []float64
	for range reps {
		if b != nil {
			b.close()
		}
		start := time.Now()
		nb, err := w.setup(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if warm := runLoop(nb, 0, w.warmup, nil, 0); warm.failed > 0 {
			nb.close()
			return nil, nil, fmt.Errorf("%s warm-up: %w", w.name, warm.errs[0])
		}
		times = append(times, time.Since(start).Seconds())
		b = nb
	}
	return b, times, nil
}

func durs(ss []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s).Seconds()
	}
	return out
}

func opDur(s sample) time.Duration { return s.dur }

// rate is ops per second of busy time over samples.
func rate(ss []sample) float64 {
	var busy time.Duration
	for _, s := range ss {
		busy += s.dur
	}
	return float64(len(ss)) / busy.Seconds()
}

func runUntraced(w *workload, seed int64, d time.Duration, stdout, stderr io.Writer) (*result, error) {
	b, setups, err := setUp(w, seed, setupReps)
	if err != nil {
		return nil, err
	}
	defer b.close()
	res := runLoop(b, d, 1, nil, w.warmup)
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: failed", e)
	}

	ok := len(res.samples)
	lat := summarize(durs(res.samples, opDur))
	opsPerS := float64(ok) / res.wall.Seconds()
	m := map[string]metric{
		"ops_per_s":        {opsPerS, "1/s"},
		"op_p50_s":         {lat.P50, "s"},
		"cpu_s_per_op":     {res.cpu.Seconds() / float64(res.attempted), "s"},
		"alloc_mib_per_op": {float64(res.allocBytes) / (1 << 20) / float64(res.attempted), "MiB"},
		"setup_s":          {median(setups), "s"},
	}

	fmt.Fprintf(stdout, "%s: %d ops attempted, %d failed, %.1f s measured, closed loop, 1 client, 1 op in flight\n",
		w.name, res.attempted, res.failed, res.wall.Seconds())
	line := func(name string, v float64, unit, note string) {
		fmt.Fprintf(stdout, "  %-18s %14.6g %-8s %s\n", name, v, unit, note)
	}
	na := func(name, unit, why string) { fmt.Fprintf(stdout, "  %-18s %14s %-8s %s\n", name, "n/a", unit, why) }
	if e := b.edgesPerOp(); e > 0 {
		line("edges_per_s", opsPerS*float64(e), "edges/s", fmt.Sprintf("%d verified edges per op", e))
	} else {
		na("edges_per_s", "edges/s", "design ops stream no edges")
	}
	line("ops_per_s", opsPerS, "ops/s", "")
	line("op_p50_s", lat.P50, "s", fmt.Sprintf("n=%d", lat.N))
	if lat.P90OK {
		line("op_p90_s", lat.P90, "s", fmt.Sprintf("n=%d", lat.N))
	} else {
		na("op_p90_s", "s", fmt.Sprintf("n=%d leaves fewer than %d samples beyond p90", lat.N, minBeyond))
	}
	if _, ok := b.(*streamBench); ok {
		fe := summarize(durs(res.samples, func(s sample) time.Duration { return s.firstEdge }))
		line("first_edge_p50_s", fe.P50, "s", fmt.Sprintf("n=%d", fe.N))
	} else {
		na("first_edge_p50_s", "s", "no edge stream")
	}
	line("cpu_s_per_op", m["cpu_s_per_op"].Value, "s", "process user+sys")
	line("alloc_mib_per_op", m["alloc_mib_per_op"].Value, "MiB", "heap bytes allocated per op")
	line("peak_rss_mib", peakRSSMiB(), "MiB", "VmHWM over the process's life; not gated (see layers.json)")
	line("setup_s", m["setup_s"].Value, "s", fmt.Sprintf("median of %v", setups))
	line("error_rate", float64(res.failed)/float64(res.attempted), "fraction", "")

	return &result{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   m,
	}, nil
}

func runTraced(w *workload, seed int64, d time.Duration, st stamp, stdout, stderr io.Writer) (*result, error) {
	b, _, err := setUp(w, seed, 1)
	if err != nil {
		return nil, err
	}
	defer b.close()
	tr := newTracer()
	res := runLoop(b, d, 2, tr, w.warmup)

	p := &prober{ctx: context.Background(), tr: tr, op: w.warmup + res.attempted}
	untracedRate := rate(res.samples)
	p.add(layerMetric{name: "trace.ops_per_s_ratio", kind: kindE2E, unit: "x", value: rate(res.traced) / untracedRate})
	p.add(layerMetric{name: "trace.op_p50_ratio", kind: kindE2E, unit: "x",
		value: median(durs(res.traced, opDur)) / median(durs(res.samples, opDur))})
	p.serviceProbes(b, res, seed)
	if s, err := newStreamSide(p.ctx); err != nil {
		p.fail("stream design", err)
	} else {
		p.genProbes(s)
		p.pipelineProbes(s)
		p.graphioProbes(s)
	}
	p.hubProbes()
	if pool, err := designPool(seed, poolFactor*cacheCapacity()); err != nil {
		p.fail("core", err)
	} else {
		p.coreProbes(pool)
	}

	errs := append(res.errs, p.errs...)
	for _, e := range errs {
		fmt.Fprintln(stderr, "perfbench: failed", e)
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := tr.write(path, st); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing spans:", err)
	}

	fmt.Fprintf(stdout, "%s traced: %d loop ops (%d traced), %d probes; spans in %s\n",
		w.name, res.attempted, len(res.traced), p.attempted, path)
	edgesPerS := untracedRate * float64(b.edgesPerOp())
	m := map[string]metric{}
	for _, l := range p.out {
		m[l.name] = metric{l.value, l.unit}
		note := ""
		if r := l.rateOf; r != "" && strings.HasPrefix(w.name, r) && edgesPerS > 0 {
			perS := l.value // edges/s
			if l.unit == "s" {
				perS = float64(b.edgesPerOp()) / l.value
			}
			note = fmt.Sprintf("%.2fx %s edges_per_s", perS/edgesPerS, w.name)
		}
		fmt.Fprintf(stdout, "  %-7s %-44s %14.6g %-8s %s\n", l.kind, l.name, l.value, l.unit, note)
	}
	fmt.Fprintln(stdout, "self time by span name:")
	for _, l := range byName(tr.spans) {
		fmt.Fprintf(stdout, "  %-32s n=%-7d total %10.4fs self %10.4fs\n", l.Name, l.Count, l.Total.Seconds(), l.Self.Seconds())
	}

	failed := res.failed + p.failed
	return &result{
		Correct:   failed == 0,
		Attempted: res.attempted + p.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}
