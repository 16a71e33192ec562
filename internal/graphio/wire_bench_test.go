package graphio

import (
	"bytes"
	"cmp"
	"context"
	"io"
	"slices"
	"strconv"
	"testing"

	"repro/internal/sparse"
	"repro/internal/star"
)

// Wire benchmarks: encode (and for the binary format, decode) throughput of
// the edge writers over io.Discard, in edges/sec — the per-format numbers
// kronbench's fig3 wire section reports. Batches are band-ordered, the shape
// the generator streams.

func benchEdges() []Edge {
	return bandOrderedEdgesN(1 << 16)
}

// bandOrderedEdgesN is the non-testing.T twin of the test helper, shared by
// benchmarks.
func bandOrderedEdgesN(n int) []Edge {
	edges := make([]Edge, n)
	row, col := int64(1<<20), int64(1<<19)
	for i := range edges {
		if i%5 == 0 {
			row += int64(i % 3)
			col = int64(i % 97)
		} else {
			col += int64(1 + i%13)
		}
		edges[i] = Edge{Row: row, Col: col, Val: 1}
	}
	return edges
}

func reportEdges(b *testing.B, n int) {
	b.Helper()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
}

func BenchmarkWireTSV(b *testing.B) {
	edges := benchEdges()
	w := NewTSVEdgeWriter(io.Discard)
	b.SetBytes(int64(len(edges)) * edgeWireBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteEdges(edges); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, len(edges))
}

// strconvEdgeBatch is the pre-LUT encoder kept verbatim as the benchmark
// baseline for the appendInt fast path.
func strconvEdgeBatch(w *TSVEdgeWriter, batch []Edge) error {
	b := w.buf[:0]
	for _, e := range batch {
		b = strconv.AppendInt(b, e.Row, 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, e.Col, 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, e.Val, 10)
		b = append(b, '\n')
		if len(b) >= edgeChunk {
			if _, err := w.bw.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	w.buf = b[:0]
	if len(b) == 0 {
		return nil
	}
	_, err := w.bw.Write(b)
	return err
}

func BenchmarkWireTSVStrconv(b *testing.B) {
	edges := benchEdges()
	w := NewTSVEdgeWriter(io.Discard)
	b.SetBytes(int64(len(edges)) * edgeWireBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := strconvEdgeBatch(w, edges); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, len(edges))
}

func benchmarkWireBinary(b *testing.B, enc BinaryEncoding) {
	edges := benchEdges()
	w, err := NewBinaryEdgeWriter(io.Discard, -1, enc)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(edges)) * edgeWireBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteEdges(edges); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, len(edges))
}

func BenchmarkWireBinaryFixed(b *testing.B) { benchmarkWireBinary(b, BinaryFixed) }
func BenchmarkWireBinaryDelta(b *testing.B) { benchmarkWireBinary(b, BinaryDelta) }

func benchmarkWireBinaryRead(b *testing.B, enc BinaryEncoding) {
	edges := benchEdges()
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, int64(len(edges)), enc)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.WriteEdges(edges); err != nil {
		b.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	ctx := context.Background()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(ctx, bytes.NewReader(data), func([]Edge) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, len(edges))
}

func BenchmarkWireBinaryFixedRead(b *testing.B) { benchmarkWireBinaryRead(b, BinaryFixed) }
func BenchmarkWireBinaryDeltaRead(b *testing.B) { benchmarkWireBinaryRead(b, BinaryDelta) }

// starBlockStream encodes the block-replay stream of a star design split as
// B = star(3), C = star(81) ⊗ star(256): one frame of nnz(C) = 82,944 edges
// per B nonzero, C's row-major pattern at the B triple's block offset — the
// frames a delta KRNB job streams.
func starBlockStream(b *testing.B) (data []byte, edges int) {
	b.Helper()
	c, err := sparse.KronN(sr, star.Spec{Points: 81}.Adjacency(), star.Spec{Points: 256}.Adjacency())
	if err != nil {
		b.Fatal(err)
	}
	block := make([]Edge, c.NNZ())
	for i, tr := range c.Tr {
		block[i] = Edge{Row: int64(tr.Row), Col: int64(tr.Col), Val: tr.Val}
	}
	slices.SortFunc(block, func(x, y Edge) int {
		if x.Row != y.Row {
			return cmp.Compare(x.Row, y.Row)
		}
		return cmp.Compare(x.Col, y.Col)
	})
	var tmpl DeltaBlockTemplate
	tmpl.Render(block)
	bm := star.Spec{Points: 3}.Adjacency()
	nC := int64(c.NumRows)
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, int64(bm.NNZ()*len(block)), BinaryDelta)
	if err != nil {
		b.Fatal(err)
	}
	for _, tr := range bm.Tr {
		if err := w.WriteBlockRun(&tmpl, int64(tr.Row)*nC, int64(tr.Col)*nC); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), bm.NNZ() * len(block)
}

// BenchmarkWireBinaryDeltaReadBlocks decodes a star design's block-replay
// stream: the same frame shape and byte mix a delta KRNB client reads, where
// BenchmarkWireBinaryDeltaRead's chunk-sized frames of synthetic bands are
// not.
func BenchmarkWireBinaryDeltaReadBlocks(b *testing.B) {
	data, edges := starBlockStream(b)
	ctx := context.Background()
	r := bytes.NewReader(nil)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		if _, err := ReadBinary(ctx, r, func([]Edge) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, edges)
}
