package triangle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/star"
)

// randomSymmetric builds a random simple symmetric graph on n vertices.
func randomSymmetric(n int, density float64, seed int64) *sparse.COO[int64] {
	rng := rand.New(rand.NewSource(seed))
	var tr []sparse.Triple[int64]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				tr = append(tr,
					sparse.Triple[int64]{Row: i, Col: j, Val: 1},
					sparse.Triple[int64]{Row: j, Col: i, Val: 1})
			}
		}
	}
	return sparse.MustCOO(n, n, tr)
}

func TestCSRCountersMatchCOOCounters(t *testing.T) {
	ctx := context.Background()
	graphs := []*sparse.COO[int64]{
		complete(6),
		randomSymmetric(40, 0.15, 1),
		randomSymmetric(25, 0.4, 2),
	}
	// Hub-heavy star products, the shape the weighted entry bands and the
	// degree ordering exist for, under each loop placement: hub loops put a
	// self-loop on the product's diagonal, leaf loops many.
	for _, loop := range []star.LoopMode{star.LoopHub, star.LoopLeaf, star.LoopNone} {
		d, err := core.FromPoints([]int{5, 3, 4}, loop)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for gi, a := range graphs {
		want, err := CountBoth(a)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		csr := a.ToCSR(sr)
		for _, np := range []int{1, 2, 4, 9} {
			got, err := CountBothCSR(ctx, csr, np)
			if err != nil {
				t.Fatalf("graph %d np=%d: %v", gi, np, err)
			}
			if got != want {
				t.Errorf("graph %d np=%d: CSR count %d, COO count %d", gi, np, got, want)
			}
			// The oriented counter consumes its input, so it gets a fresh copy.
			got, err = CountOrientedCSR(ctx, a.ToCSR(sr), np, nil)
			if err != nil {
				t.Fatalf("graph %d np=%d: oriented: %v", gi, np, err)
			}
			if got != want {
				t.Errorf("graph %d np=%d: oriented count %d, COO count %d", gi, np, got, want)
			}
		}
	}
}

func TestCSRCountersEmptyGraph(t *testing.T) {
	csr := sparse.MustCOO[int64](8, 8, nil).ToCSR(sr)
	got, err := CountBothCSR(context.Background(), csr, 4)
	if err != nil || got != 0 {
		t.Fatalf("empty graph: %d, %v", got, err)
	}
	got, err = CountOrientedCSR(context.Background(), csr, 4, nil)
	if err != nil || got != 0 {
		t.Fatalf("empty graph, oriented: %d, %v", got, err)
	}
}

func TestCSRCountersRejectBadInput(t *testing.T) {
	rect := sparse.MustCOO[int64](3, 4, nil).ToCSR(sr)
	if _, err := CountLinearAlgebraCSR(context.Background(), rect, 2); err == nil {
		t.Error("non-square accepted by linear-algebra counter")
	}
	if _, err := CountNodeIteratorCSR(context.Background(), rect, 2); err == nil {
		t.Error("non-square accepted by node-iterator counter")
	}
	if _, err := CountOrientedCSR(context.Background(), rect, 2, nil); err == nil {
		t.Error("non-square accepted by oriented counter")
	}
	sq := complete(4).ToCSR(sr)
	if _, err := CountLinearAlgebraCSR(context.Background(), sq, 0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := CountOrientedCSR(context.Background(), sq, 0, nil); err == nil {
		t.Error("zero workers accepted by oriented counter")
	}
	// A directed triangle 0→1→2→0 stores one direction of each edge. Every
	// vertex has degree 1, so ranking by id keeps 0→1 and 1→2 and drops
	// 2→0: kept 2 ≠ dropped 1 must be rejected, not counted.
	asym := &sparse.CSR[int64]{
		NumRows: 3, NumCols: 3,
		RowPtr: []int{0, 1, 2, 3},
		ColIdx: []int{1, 2, 0},
		Val:    []int64{1, 1, 1},
	}
	for _, np := range []int{1, 2} {
		a := &sparse.CSR[int64]{NumRows: 3, NumCols: 3, RowPtr: asym.RowPtr,
			ColIdx: append([]int(nil), asym.ColIdx...), Val: asym.Val}
		if got, err := CountOrientedCSR(context.Background(), a, np, nil); err == nil {
			t.Errorf("np=%d: asymmetric input accepted by oriented counter (count %d)", np, got)
		}
	}
}

func TestCSRCountersCancelled(t *testing.T) {
	csr := randomSymmetric(60, 0.3, 3).ToCSR(sr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountLinearAlgebraCSR(ctx, csr, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("linear-algebra err = %v, want context.Canceled", err)
	}
	if _, err := CountNodeIteratorCSR(ctx, csr, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("node-iterator err = %v, want context.Canceled", err)
	}
	if _, err := CountOrientedCSR(ctx, csr, 3, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("oriented err = %v, want context.Canceled", err)
	}
}

// undirected builds the simple symmetric graph on n vertices with the given
// edges, storing each once in both directions; repeats and loops are
// dropped.
func undirected(n int, edges [][2]int) *sparse.COO[int64] {
	seen := make(map[[2]int]bool, len(edges))
	var tr []sparse.Triple[int64]
	for _, e := range edges {
		i, j := min(e[0], e[1]), max(e[0], e[1])
		if i == j || seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		tr = append(tr,
			sparse.Triple[int64]{Row: i, Col: j, Val: 1},
			sparse.Triple[int64]{Row: j, Col: i, Val: 1})
	}
	return sparse.MustCOO(n, n, tr)
}

// nearTwins is a clique on m core vertices, numbered after l leaves 0..l-1.
// Leaf i is joined to every core vertex but `drop` random ones, so its
// degree is below every core vertex's, its oriented row is its core
// neighbours, and consecutive leaves' rows share all but a few entries. A
// mark left over from leaf i's row then sits on a core vertex that leaf
// i+1's probes reach, and inflates the count.
func nearTwins(m, l, drop int, seed int64) *sparse.COO[int64] {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			edges = append(edges, [2]int{l + i, l + j})
		}
	}
	for v := 0; v < l; v++ {
		for _, c := range rng.Perm(m)[drop:] {
			edges = append(edges, [2]int{v, l + c})
		}
	}
	return undirected(l+m, edges)
}

// cliqueChain is k cliques of s vertices each, consecutive cliques sharing
// one vertex: k·C(s,3) triangles.
func cliqueChain(k, s int) *sparse.COO[int64] {
	var edges [][2]int
	for c := 0; c < k; c++ {
		base := c * (s - 1)
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				edges = append(edges, [2]int{base + i, base + j})
			}
		}
	}
	return undirected(k*(s-1)+1, edges)
}

// skewedRandom is a sparse random graph on n vertices plus a few hubs,
// scattered through the ids, each joined to most of the other vertices.
func skewedRandom(n, hubs int, seed int64) *sparse.COO[int64] {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 4/float64(n) {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	for _, h := range rng.Perm(n)[:hubs] {
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.7 {
				edges = append(edges, [2]int{h, v})
			}
		}
	}
	return undirected(n, edges)
}

// pathGraph is the path 0–1–…–(n-1). Every oriented row holds at most one
// entry, so the marked-row kernel probes none of them.
func pathGraph(n int) *sparse.COO[int64] {
	edges := make([][2]int, n-1)
	for i := range edges {
		edges[i] = [2]int{i, i + 1}
	}
	return undirected(n, edges)
}

func TestCountOrientedMatchesCountBoth(t *testing.T) {
	type graph struct {
		name string
		g    *sparse.COO[int64]
	}
	graphs := []graph{
		{"near twins, drop 1", nearTwins(10, 40, 1, 5)},
		{"near twins, drop 2", nearTwins(16, 60, 2, 6)},
		{"clique chain", cliqueChain(25, 6)},
		{"skewed random", skewedRandom(300, 3, 7)},
	}
	for _, loop := range []star.LoopMode{star.LoopHub, star.LoopLeaf, star.LoopNone} {
		d, err := core.FromPoints([]int{3, 4, 5}, loop)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, graph{fmt.Sprintf("star product, loop %v", loop), g})
	}
	for _, gr := range graphs {
		want, err := CountBoth(gr.g)
		if err != nil {
			t.Fatalf("%s: %v", gr.name, err)
		}
		if want == 0 && gr.name != "star product, loop none" {
			t.Fatalf("%s: no triangles, so the graph tests nothing", gr.name)
		}
		for _, np := range []int{1, 2, 3, 7} {
			got, err := CountOrientedCSR(context.Background(), gr.g.ToCSR(sr), np, nil)
			if err != nil {
				t.Fatalf("%s np=%d: %v", gr.name, np, err)
			}
			if got != want {
				t.Errorf("%s np=%d: oriented count %d, CountBoth %d", gr.name, np, got, want)
			}
		}
	}
}

// countdownCtx is a context whose Err reports context.Canceled from call
// after+1 on, so a cancellation lands at a chosen check inside a loop.
type countdownCtx struct {
	context.Context
	after, calls int
}

func (c *countdownCtx) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

func TestCountOrientedCancelledMidCount(t *testing.T) {
	for _, gr := range []struct {
		name string
		g    *sparse.COO[int64]
	}{
		// Every row is too short to probe, so only the per-row countdown
		// can reach a check.
		{"path", pathGraph(16 * cancelCheckStride)},
		{"clique chain", cliqueChain(2000, 5)},
	} {
		a := gr.g.ToCSR(sr)
		n := a.NumRows
		o, _, err := orient(context.Background(), a, 1, make([]time.Duration, 1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := CountBoth(gr.g)
		if err != nil {
			t.Fatal(err)
		}
		mark := make([]byte, n)
		full := &countdownCtx{Context: context.Background(), after: math.MaxInt}
		if got, _, err := o.probeRows(full, 0, n, mark); err != nil || got != want {
			t.Fatalf("%s: uncancelled count %d, %v; want %d", gr.name, got, err, want)
		}
		if least := (a.NNZ()/2 + n) / cancelCheckStride; full.calls < least {
			t.Fatalf("%s: %d ctx checks over %d rows, want at least %d", gr.name, full.calls, n, least)
		}
		for _, after := range []int{0, full.calls / 2, full.calls - 1} {
			ctx := &countdownCtx{Context: context.Background(), after: after}
			if _, _, err := o.probeRows(ctx, 0, n, make([]byte, n)); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: cancelled at check %d: err = %v, want context.Canceled", gr.name, after+1, err)
			}
			if ctx.calls != after+1 {
				t.Errorf("%s: count went on for %d checks after cancellation", gr.name, ctx.calls-after-1)
			}
		}
	}
}
