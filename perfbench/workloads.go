package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/validate"
)

// sample is what one successful operation measured.
type sample struct {
	dur time.Duration
	// Stream ops only.
	submit, firstEdge, readWait time.Duration
	jobEdgesPerSec              float64
	// Design ops only: the answer came from the service's cache.
	cached bool
}

// bench is one workload's operation, ready to run in a closed loop.
type bench interface {
	// run performs and checks one operation. Under tracing, its calls into
	// each layer are spans under parent, all tagged with op.
	run(tr *tracer, parent, op int) (sample, error)
	// edgesPerOp is the verified edge count of one op, 0 when ops are not
	// edge streams.
	edgesPerOp() int64
	close()
}

// workload names one set of inputs and how to set it up.
type workload struct {
	name string
	why  string
	// warmup is how many ops end each set-up before measuring starts.
	warmup int
	params func(seed int64) any
	setup  func(seed int64) (bench, error)
}

var (
	// streamDesign is Figure 3's design with the paper's C = {81, 256}. It
	// generates with one worker: the job's encoder and the client's decoder
	// are busy goroutines too, so two generation workers would put four
	// runnable goroutines on a two-core machine and time the scheduler.
	streamDesign = streamConfig{Points: []int{3, 4, 5, 81, 256}, Loop: "none", Split: 3, Workers: 1}
	// hubDesign is the validation design: 3,165,722 edges, 3,548,463
	// triangles.
	hubDesign = struct {
		Points  []int  `json:"points"`
		Loop    string `json:"loop"`
		Split   int    `json:"split"`
		Workers int    `json:"workers"`
	}{[]int{4, 5, 9, 16, 25}, "hub", 3, 2}
)

// streamWith is streamDesign asking for the enc payload encoding.
func streamWith(enc string) streamConfig {
	c := streamDesign
	c.Enc = enc
	return c
}

// poolFactor sizes the design-mix pool against the service's design-cache
// capacity, so a uniform draw hits the LRU about 1/poolFactor of the time.
const poolFactor = 4

func cacheCapacity() int { return service.DefaultConfig().CacheSize }

var workloads = []workload{
	{
		name:   "stream-delta",
		warmup: 1,
		why:    "loopback KRNB delta jobs: block-replay emission, Async.Runs hand-off, replay encoder, client delta decode",
		params: func(int64) any { return streamWith("delta") },
		setup:  func(int64) (bench, error) { return newStreamBench(streamWith("delta"), nil) },
	},
	{
		name:   "stream-fixed",
		warmup: 1,
		why:    "same jobs as fixed frames: batch emission, pooled Async batches, zero-copy fixed writer, socket",
		params: func(int64) any { return streamWith("fixed") },
		setup:  func(int64) (bench, error) { return newStreamBench(streamWith("fixed"), nil) },
	},
	{
		name:   "validate-hub",
		warmup: 1,
		why:    "validate.Run whole on a hub-loop design: tally and scatter CSR build, triangle counting; no service or wire",
		params: func(int64) any { return hubDesign },
		setup:  func(int64) (bench, error) { return newValidateBench() },
	},
	{
		name: "design-mix",
		// heavyDesign, then a pool's worth of requests, which fills the LRU
		// to its steady state.
		warmup: poolFactor * cacheCapacity(),
		why:    "seeded POST /v1/designs over paper and random designs, 4x the cache: closed-form core/bigdeg on misses, LRU on hits",
		params: func(seed int64) any {
			return map[string]any{
				"pool":          poolFactor * cacheCapacity(),
				"cacheCapacity": cacheCapacity(),
				"paperDesigns":  len(paperDesigns),
				"heavyFirst":    heavyDesign,
				"seed":          seed,
			}
		},
		setup: func(seed int64) (bench, error) {
			pool, err := designPool(seed, poolFactor*cacheCapacity())
			if err != nil {
				return nil, err
			}
			return newDesignBench(seed, pool)
		},
	},
}

// validateBench is the validate-hub operation: validate.Run whole, which
// must report exact agreement.
type validateBench struct {
	d         *core.Design
	wantEdges int64
}

func newValidateBench() (*validateBench, error) {
	d, err := service.DesignRequest{Points: hubDesign.Points, Loop: hubDesign.Loop}.Build()
	if err != nil {
		return nil, err
	}
	return &validateBench{d: d, wantEdges: d.NumEdges().Int64()}, nil
}

func (b *validateBench) edgesPerOp() int64 { return b.wantEdges }
func (b *validateBench) close()            {}

func (b *validateBench) run(tr *tracer, parent, op int) (sample, error) {
	start := time.Now()
	sp := tr.begin("validate.Run", parent, op)
	rep, err := validate.Run(context.Background(), b.d, hubDesign.Split, hubDesign.Workers)
	if rep != nil {
		tr.end(sp, rep.MeasuredEdges)
	} else {
		tr.end(sp, 0)
	}
	s := sample{dur: time.Since(start)}
	switch {
	case err != nil:
		return s, err
	case !rep.ExactAgreement:
		return s, fmt.Errorf("validation disagrees: %v", rep.Mismatches)
	case rep.MeasuredEdges != b.wantEdges:
		return s, fmt.Errorf("measured %d edges, closed form %d", rep.MeasuredEdges, b.wantEdges)
	}
	return s, nil
}

// loopResult is one closed-loop measurement.
type loopResult struct {
	attempted, failed int
	errs              []error
	// samples are the untraced successful ops; traced holds the traced
	// ones when the loop alternates.
	samples, traced []sample
	wall, cpu       time.Duration
	// allocBytes is the heap allocated during the loop.
	allocBytes uint64
}

// runLoop runs b in a closed loop — one op in flight, the next sent when
// the last completes — until d has passed and at least minOps ops ran.
// With a tracer, every other op is traced, so traced and untraced ops
// interleave under the same conditions. A failed op counts as attempted
// and failed; it is never retried or dropped.
func runLoop(b bench, d time.Duration, minOps int, tr *tracer, firstOp int) *loopResult {
	res := &loopResult{}
	cpu0 := cpuTime()
	start := time.Now()
	alloc0 := heapAllocated()
	for i := 0; i < minOps || time.Since(start) < d; i++ {
		op := firstOp + i
		var optr *tracer
		if tr != nil && i%2 == 1 {
			optr = tr
		}
		root := optr.begin("op", 0, op)
		s, err := b.run(optr, root, op)
		optr.end(root, b.edgesPerOp())
		res.attempted++
		switch {
		case err != nil:
			res.failed++
			if len(res.errs) < 5 {
				res.errs = append(res.errs, fmt.Errorf("op %d: %w", op, err))
			}
		case optr != nil:
			res.traced = append(res.traced, s)
		default:
			res.samples = append(res.samples, s)
		}
	}
	res.wall = time.Since(start)
	res.allocBytes = heapAllocated() - alloc0
	res.cpu = cpuTime() - cpu0
	return res
}

// heapAllocated is the total heap the process has allocated so far.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
