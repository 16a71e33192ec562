package pipeline

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/graphio"
)

// scaledBlock is a band-shaped block-local C pattern with every value
// multiplied by vB, as the generator renders it for a B value of vB.
func scaledBlock(n int, vB int64) []Edge {
	b := make([]Edge, n)
	for i := range b {
		b[i] = Edge{Row: int64(i / 8), Col: int64(3*(i%8) + i/8), Val: vB * int64(1+i%3)}
	}
	return b
}

// runView is everything a consumer can observe of a run: its replayed wire
// bytes, its closed-form checksum fold and its expanded edges.
type runView struct {
	wire  []byte
	sum   int64
	edges []Edge
}

func viewRun(t *testing.T, tmpl *graphio.DeltaBlockTemplate, rowBase, colBase int64) runView {
	t.Helper()
	var buf bytes.Buffer
	w, err := graphio.NewBinaryEdgeWriter(&buf, -1, graphio.BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlockRun(tmpl, rowBase, colBase); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return runView{
		wire:  buf.Bytes(),
		sum:   tmpl.FoldChecksum(7, rowBase, colBase),
		edges: tmpl.AppendEdges(nil, rowBase, colBase),
	}
}

func (v runView) equal(o runView) bool {
	return bytes.Equal(v.wire, o.wire) && v.sum == o.sum && slices.Equal(v.edges, o.edges)
}

// TestAsyncRunsHeldRunSurvivesRerender pins the by-reference run hand-off:
// a run received from Async.Runs and held unrecycled keeps its bytes,
// checksum fold and expansion while the producer re-renders its template
// with other B values and keeps sending runs. The producer runs in its own
// goroutine, so under -race a re-render that wrote into the held run's
// buffers is reported as well as failing the comparison.
func TestAsyncRunsHeldRunSurvivesRerender(t *testing.T) {
	const n, rowBase, colBase = 600, 1 << 20, 3 << 20
	var ref graphio.DeltaBlockTemplate
	ref.Render(scaledBlock(n, 1))
	want := viewRun(t, &ref, rowBase, colBase)

	a := NewAsync(context.Background(), 1)
	runs := a.Runs()
	var tmpl graphio.DeltaBlockTemplate
	tmpl.Render(scaledBlock(n, 1))
	if err := runs.WriteBlockRun(0, BlockRun{T: &tmpl, RowBase: rowBase, ColBase: colBase}); err != nil {
		t.Fatal(err)
	}
	held := <-a.Batches()
	if held.Run == nil {
		t.Fatal("runs hand-off delivered a batch without its block run")
	}

	const rerenders = 50
	go func() {
		defer a.Close()
		for i := range rerenders {
			tmpl.Render(scaledBlock(n, int64(2+i%5)))
			if err := runs.WriteBlockRun(0, BlockRun{T: &tmpl, RowBase: int64(i), ColBase: int64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	got := 0
	for b := range a.Batches() {
		if !viewRun(t, &held.Run.T, held.Run.RowBase, held.Run.ColBase).equal(want) {
			t.Fatalf("held run changed after %d re-renders", got)
		}
		a.Recycle(b)
		got++
	}
	if got != rerenders {
		t.Fatalf("consumer saw %d runs, producer sent %d", got, rerenders)
	}
	if !viewRun(t, &held.Run.T, held.Run.RowBase, held.Run.ColBase).equal(want) {
		t.Fatal("held run changed after the producer finished")
	}
	a.Recycle(held)
}
