package triangle

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/star"
)

// countOrientedMerge is CountOrientedCSR with the step 2 it replaced: each
// oriented entry (u, w) intersects out(u) and out(w) with intersectCount's
// adaptive merge/galloping search, over row bands cut by mergeCostCuts. It
// is kept as the marked-row kernel's same-run baseline.
func countOrientedMerge(ctx context.Context, a *sparse.CSR[int64], np int) (int64, error) {
	if err := checkShape(a, np); err != nil {
		return 0, err
	}
	o, _, err := orient(ctx, a, np, make([]time.Duration, np))
	if err != nil {
		return 0, err
	}
	cuts := mergeCostCuts(o, np)
	sums := make([]int64, np)
	err = parallel.RunContext(ctx, np, func(ctx context.Context, p int) error {
		var acc int64
		untilCheck := cancelCheckStride
		for u := cuts[p]; u < cuts[p+1]; u++ {
			out := o.out(u)
			for _, w := range out {
				wOut := o.out(w)
				acc += intersectCount(out, wOut, u, w)
				if untilCheck -= len(out) + len(wOut) + 1; untilCheck <= 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
					untilCheck = cancelCheckStride
				}
			}
		}
		sums[p] = acc
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range sums {
		total += s
	}
	return total, nil
}

// mergeCostCuts is the merge kernel's band cutter: np contiguous row bands
// of about equal sparse.IntersectWeight(|out(u)|, |out(w)|) summed over the
// oriented entries, each row's cost evaluated serially, twice.
func mergeCostCuts(o oriented, np int) []int {
	rowCost := func(u int) int64 {
		out := o.out(u)
		var c int64
		for _, w := range out {
			c += sparse.IntersectWeight(int64(len(out)), int64(len(o.out(w))))
		}
		return c
	}
	n := o.a.NumRows
	var total int64
	for u := 0; u < n; u++ {
		total += rowCost(u)
	}
	cuts := make([]int, np+1)
	for p := 1; p <= np; p++ {
		cuts[p] = n
	}
	var acc int64
	p := 1
	for u := 0; u < n && p < np; u++ {
		acc += rowCost(u)
		for ; p < np && acc >= total/int64(np)*int64(p); p++ {
			cuts[p] = u + 1
		}
	}
	return cuts
}

func TestCountOrientedMergeBaseline(t *testing.T) {
	for _, g := range []*sparse.COO[int64]{complete(7), randomSymmetric(50, 0.2, 4), cliqueChain(30, 5)} {
		want, err := CountBoth(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{1, 3} {
			if got, err := countOrientedMerge(context.Background(), g.ToCSR(sr), np); err != nil || got != want {
				t.Errorf("np=%d: merge baseline %d, %v; want %d", np, got, err, want)
			}
		}
	}
}

// BenchmarkCountOrientedCSR times the whole oriented count, orientation
// included, on fig4's 434,510-edge hub design {3,4,5,9,16} at two workers,
// with the production marked-row kernel and the merge kernel it replaced,
// so their ratio is read from one run.
func BenchmarkCountOrientedCSR(b *testing.B) {
	d, err := core.FromPoints([]int{3, 4, 5, 9, 16}, star.LoopHub)
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Realize()
	if err != nil {
		b.Fatal(err)
	}
	tris, err := d.Triangles()
	if err != nil {
		b.Fatal(err)
	}
	src := g.ToCSR(sr)
	const np = 2
	for _, k := range []struct {
		name  string
		count func(context.Context, *sparse.CSR[int64]) (int64, error)
	}{
		{"marked", func(ctx context.Context, a *sparse.CSR[int64]) (int64, error) {
			return CountOrientedCSR(ctx, a, np, nil)
		}},
		{"merge", func(ctx context.Context, a *sparse.CSR[int64]) (int64, error) {
			return countOrientedMerge(ctx, a, np)
		}},
	} {
		b.Run(k.name, func(b *testing.B) {
			a := *src
			a.ColIdx = make([]int, len(src.ColIdx))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(a.ColIdx, src.ColIdx) // the count consumes its input
				b.StartTimer()
				got, err := k.count(context.Background(), &a)
				if err != nil {
					b.Fatal(err)
				}
				if got != tris.Int64() {
					b.Fatalf("counted %d triangles, design predicts %s", got, tris)
				}
			}
			b.ReportMetric(float64(src.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
		})
	}
}
