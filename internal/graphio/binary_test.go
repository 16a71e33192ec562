package graphio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/iotest"
)

// bandOrderedEdges builds a deterministic band-ordered edge list (rows
// non-decreasing, columns ascending within a row) — the shape the generator
// streams and the delta encoding is tuned for.
func bandOrderedEdges(n int) []Edge {
	edges := make([]Edge, n)
	row, col := int64(0), int64(0)
	rng := rand.New(rand.NewSource(7))
	for i := range edges {
		if rng.Intn(4) == 0 {
			row += int64(rng.Intn(3))
			col = int64(rng.Intn(8))
		} else {
			col += int64(1 + rng.Intn(16))
		}
		edges[i] = Edge{Row: row, Col: col, Val: 1}
	}
	return edges
}

// collectBinary decodes a stream, copying every emitted batch (the emit
// batch is reused, per the pipeline ownership contract).
func collectBinary(t *testing.T, data []byte) ([]Edge, *BinaryInfo, error) {
	t.Helper()
	var got []Edge
	info, err := ReadBinary(context.Background(), bytes.NewReader(data), func(batch []Edge) error {
		got = append(got, batch...)
		return nil
	})
	return got, info, err
}

func TestBinaryRoundTrip(t *testing.T) {
	edges := bandOrderedEdges(10_000)
	wantSum := foldChecksum(0, edges)
	for _, enc := range []BinaryEncoding{BinaryDelta, BinaryFixed} {
		t.Run(enc.String(), func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewBinaryEdgeWriter(&buf, int64(len(edges)), enc)
			if err != nil {
				t.Fatal(err)
			}
			// Mix the write shapes: a large batch, a comment (discarded), a
			// mid-stream flush, single edges, then a small batch.
			if err := w.WriteEdges(edges[:8000]); err != nil {
				t.Fatal(err)
			}
			if err := w.Comment("end state=ignored"); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, e := range edges[8000:8100] {
				if err := w.WriteEdge(e.Row, e.Col, e.Val); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.WriteEdges(edges[8100:]); err != nil {
				t.Fatal(err)
			}
			if err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			if w.Count() != int64(len(edges)) || w.Checksum() != wantSum {
				t.Fatalf("writer folded count=%d sum=%#x, want %d/%#x", w.Count(), w.Checksum(), len(edges), uint64(wantSum))
			}

			got, info, err := collectBinary(t, buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if info.Encoding != enc || info.NNZ != int64(len(edges)) {
				t.Fatalf("info %+v, want encoding=%v nnz=%d", info, enc, len(edges))
			}
			if info.Edges != int64(len(edges)) || info.Checksum != wantSum {
				t.Fatalf("trailer %d edges sum %#x, want %d/%#x", info.Edges, uint64(info.Checksum), len(edges), uint64(wantSum))
			}
			if len(got) != len(edges) {
				t.Fatalf("decoded %d edges, wrote %d", len(got), len(edges))
			}
			for i := range got {
				if got[i] != edges[i] {
					t.Fatalf("edge %d: got %+v, wrote %+v", i, got[i], edges[i])
				}
			}
		})
	}
}

// TestBinaryDeltaIsCompact pins the point of the delta encoding: on a
// band-ordered stream it spends a few bytes per edge, far under the fixed
// encoding's 24.
func TestBinaryDeltaIsCompact(t *testing.T) {
	edges := bandOrderedEdges(10_000)
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, int64(len(edges)), BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEdges(edges); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if perEdge := float64(buf.Len()) / float64(len(edges)); perEdge > 6 {
		t.Fatalf("delta encoding spent %.1f bytes/edge on a band-ordered stream, want <= 6", perEdge)
	}
}

// TestBinaryNegativeAndExtremeValues: the encoding is not limited to the
// generator's non-negative band-ordered output — arbitrary int64 triples
// round-trip under both encodings (zig-zag handles signs, fixed is exact).
func TestBinaryNegativeAndExtremeValues(t *testing.T) {
	edges := []Edge{
		{Row: 0, Col: 0, Val: 0},
		{Row: -1, Col: 1 << 62, Val: -1},
		{Row: 1<<63 - 1, Col: -(1 << 62), Val: 1<<63 - 1},
		{Row: -1 << 63, Col: 17, Val: -1 << 63},
		{Row: 3, Col: 5, Val: -9},
	}
	for _, enc := range []BinaryEncoding{BinaryDelta, BinaryFixed} {
		var buf bytes.Buffer
		w, err := NewBinaryEdgeWriter(&buf, -1, enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteEdges(edges); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		got, info, err := collectBinary(t, buf.Bytes())
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if info.NNZ != -1 {
			t.Fatalf("%v: nnz %d, want -1 (unknown)", enc, info.NNZ)
		}
		for i := range got {
			if got[i] != edges[i] {
				t.Fatalf("%v: edge %d: got %+v, wrote %+v", enc, i, got[i], edges[i])
			}
		}
	}
}

// TestBinaryBatchMatchesPerEdge: the decoded stream is identical whether the
// writer saw one batch or one edge at a time (framing may differ; content
// and trailer may not).
func TestBinaryBatchMatchesPerEdge(t *testing.T) {
	edges := bandOrderedEdges(5_000)
	for _, enc := range []BinaryEncoding{BinaryDelta, BinaryFixed} {
		var batched, single bytes.Buffer
		wb, err := NewBinaryEdgeWriter(&batched, int64(len(edges)), enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := wb.WriteEdges(edges); err != nil {
			t.Fatal(err)
		}
		if err := wb.Finish(); err != nil {
			t.Fatal(err)
		}
		ws, err := NewBinaryEdgeWriter(&single, int64(len(edges)), enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			if err := ws.WriteEdge(e.Row, e.Col, e.Val); err != nil {
				t.Fatal(err)
			}
		}
		if err := ws.Finish(); err != nil {
			t.Fatal(err)
		}
		gb, ib, err := collectBinary(t, batched.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		gs, is, err := collectBinary(t, single.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(gb) != len(gs) || ib.Checksum != is.Checksum || ib.Edges != is.Edges {
			t.Fatalf("%v: batch and per-edge streams decode differently", enc)
		}
		for i := range gb {
			if gb[i] != gs[i] {
				t.Fatalf("%v: edge %d differs between batch and per-edge streams", enc, i)
			}
		}
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, 0, BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	got, info, err := collectBinary(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || info.Edges != 0 || info.NNZ != 0 {
		t.Fatalf("empty stream decoded to %d edges, info %+v", len(got), info)
	}
}

func TestBinaryFinishIdempotentAndTerminal(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, 1, BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != size {
		t.Fatal("second Finish wrote a second trailer")
	}
	if err := w.WriteEdge(3, 4, 1); err == nil {
		t.Fatal("WriteEdge after Finish accepted")
	}
	if err := w.WriteEdges([]Edge{{Row: 3, Col: 4, Val: 1}}); err == nil {
		t.Fatal("WriteEdges after Finish accepted")
	}
	if _, _, err := collectBinary(t, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryTruncation: every proper prefix of a valid stream fails with a
// binary-format error — never a silent partial decode, never a panic.
func TestBinaryTruncation(t *testing.T) {
	edges := bandOrderedEdges(300)
	for _, enc := range []BinaryEncoding{BinaryDelta, BinaryFixed} {
		var buf bytes.Buffer
		w, err := NewBinaryEdgeWriter(&buf, int64(len(edges)), enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteEdges(edges); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		for cut := 0; cut < len(data); cut++ {
			if _, _, err := collectBinary(t, data[:cut]); err == nil {
				t.Fatalf("%v: prefix of %d/%d bytes decoded without error", enc, cut, len(data))
			} else if !errors.Is(err, ErrBinaryTruncated) && !errors.Is(err, ErrBinaryCorrupt) {
				t.Fatalf("%v: prefix of %d bytes: unexpected error class %v", enc, cut, err)
			}
		}
	}
}

// TestBinaryBitFlips: flipping any single bit of a valid stream never panics
// and never silently changes the decoded edge count. In the fixed encoding a
// flip damages exactly one record, so the stronger property holds too: any
// silent decode has the graph structure (rows, columns) intact — only value
// bytes, which sit outside the XOR fold (it must stay reconcilable with
// ChecksumPlan's row/col content checksum), can flip undetected. The delta
// encoding gets no structure guarantee: a flipped delta shifts every later
// edge in its frame by the same amount and the per-edge XOR differences can
// cancel pairwise, a documented limit of the reconciliation fold.
func TestBinaryBitFlips(t *testing.T) {
	edges := bandOrderedEdges(64)
	for _, enc := range []BinaryEncoding{BinaryDelta, BinaryFixed} {
		var buf bytes.Buffer
		w, err := NewBinaryEdgeWriter(&buf, int64(len(edges)), enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteEdges(edges); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		for pos := 0; pos < len(data); pos++ {
			for bit := 0; bit < 8; bit++ {
				mut := bytes.Clone(data)
				mut[pos] ^= 1 << bit
				got, _, err := collectBinary(t, mut)
				if err != nil {
					continue
				}
				if len(got) != len(edges) {
					t.Fatalf("%v: flip @%d.%d decoded %d edges silently, wrote %d", enc, pos, bit, len(got), len(edges))
				}
				if enc != BinaryFixed {
					continue
				}
				for i := range got {
					if got[i].Row != edges[i].Row || got[i].Col != edges[i].Col {
						t.Fatalf("%v: flip @%d.%d silently changed edge %d structure: got (%d,%d), wrote (%d,%d)",
							enc, pos, bit, i, got[i].Row, got[i].Col, edges[i].Row, edges[i].Col)
					}
				}
			}
		}
	}
}

func TestBinaryHeaderNNZMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, 5, BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEdges(bandOrderedEdges(3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	// The trailer is internally consistent (3 edges, matching checksum), but
	// the header promised exactly 5: an incomplete stream must not read as
	// complete. This is what a cancelled job's binary stream looks like.
	if _, _, err := collectBinary(t, buf.Bytes()); !errors.Is(err, ErrBinaryCorrupt) {
		t.Fatalf("header/trailer count mismatch: %v, want ErrBinaryCorrupt", err)
	}
}

func TestBinaryTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, 1, BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0x00)
	if _, _, err := collectBinary(t, buf.Bytes()); !errors.Is(err, ErrBinaryCorrupt) {
		t.Fatalf("trailing garbage: %v, want ErrBinaryCorrupt", err)
	}
}

func TestBinaryBadHeader(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":        {},
		"short":        []byte("KRN"),
		"bad magic":    []byte("KRNX\x01\x00"),
		"bad version":  []byte("KRNB\x07\x00"),
		"bad flags":    []byte("KRNB\x01\xf0"),
		"tsv not krnb": []byte("0\t1\t1\n"),
	} {
		if _, _, err := collectBinary(t, data); !errors.Is(err, ErrBinaryCorrupt) {
			t.Fatalf("%s: %v, want ErrBinaryCorrupt", name, err)
		}
	}
}

func TestBinaryReadCancellation(t *testing.T) {
	edges := bandOrderedEdges(1000)
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, int64(len(edges)), BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEdges(edges); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReadBinary(ctx, bytes.NewReader(buf.Bytes()), func([]Edge) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: %v, want context.Canceled", err)
	}
	// nil ctx is the house "never cancelled" convention.
	if _, err := ReadBinary(nil, bytes.NewReader(buf.Bytes()), func([]Edge) error { return nil }); err != nil {
		t.Fatalf("nil-ctx read: %v", err)
	}
}

func TestBinaryEmitErrorAborts(t *testing.T) {
	edges := bandOrderedEdges(100)
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, int64(len(edges)), BinaryFixed)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEdges(edges); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := ReadBinary(context.Background(), bytes.NewReader(buf.Bytes()), func([]Edge) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
}

// TestEdgeWriterZeroAllocsPerBatch extends the pipeline/service alloc guards
// down into the encoders: one steady-state WriteEdges on each wire format —
// TSV (LUT fast path), binary delta, binary fixed — must allocate nothing.
func TestEdgeWriterZeroAllocsPerBatch(t *testing.T) {
	batch := bandOrderedEdges(2048)
	writers := map[string]EdgeWriter{}
	tw := NewTSVEdgeWriter(io.Discard)
	writers["tsv"] = tw
	bd, err := NewBinaryEdgeWriter(io.Discard, -1, BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	writers["bin-delta"] = bd
	bf, err := NewBinaryEdgeWriter(io.Discard, -1, BinaryFixed)
	if err != nil {
		t.Fatal(err)
	}
	writers["bin-fixed"] = bf
	for name, w := range writers {
		t.Run(name, func(t *testing.T) {
			// Warm-up grows the scratch buffer — the one amortized allocation.
			if err := w.WriteEdges(batch); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := w.WriteEdges(batch); err != nil {
					t.Fatal(err)
				}
			})
			if raceEnabled {
				t.Logf("race build: observed %.1f allocs/batch; assertion skipped (instrumentation allocates)", allocs)
			} else if allocs != 0 {
				t.Fatalf("%s WriteEdges allocates %.1f times per batch, want 0", name, allocs)
			}
		})
	}
}

// mixedVarintEdges builds n edges whose delta records mix 1-, 2- and
// 10-byte varints: unit steps, steps of a hundred, row and column jumps of
// ±(1<<62), MinInt64/MaxInt64 coordinates and values, and negative columns.
// Deltas between the extremes wrap, which the zig-zag fold must survive.
func mixedVarintEdges(n int) []Edge {
	steps := []Edge{
		{Row: 0, Col: 1, Val: 1},
		{Row: 0, Col: 2, Val: 1},
		{Row: 0, Col: 100, Val: -70},
		{Row: 1 << 62, Col: -3, Val: 1},
		{Row: 0, Col: -(1 << 62), Val: math.MaxInt64},
		{Row: math.MinInt64, Col: math.MaxInt64, Val: math.MinInt64},
		{Row: 5, Col: -9, Val: 0},
		{Row: 5, Col: -8, Val: 1},
	}
	edges := make([]Edge, n)
	for i := range edges {
		e := steps[i%len(steps)]
		e.Row += int64(i / len(steps))
		edges[i] = e
	}
	return edges
}

// deltaEdgeCases are KRNB delta streams of mixed varint widths in every
// frame shape the writers produce. The block-run frames are each longer
// than ReadBinary's 64 KiB read buffer, so records straddle refills.
func deltaEdgeCases(t *testing.T) map[string][]byte {
	t.Helper()
	encode := func(nnz int64, write func(w *BinaryEdgeWriter) error) []byte {
		var buf bytes.Buffer
		w, err := NewBinaryEdgeWriter(&buf, nnz, BinaryDelta)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mixed := mixedVarintEdges(6000)
	blockRuns := func(block []Edge) []byte {
		var tmpl DeltaBlockTemplate
		tmpl.Render(block)
		return encode(2*int64(len(block)), func(w *BinaryEdgeWriter) error {
			if err := w.WriteBlockRun(&tmpl, 0, 0); err != nil {
				return err
			}
			return w.WriteBlockRun(&tmpl, 1<<40, -(1 << 41))
		})
	}
	cases := map[string][]byte{
		"batch": encode(int64(len(mixed)), func(w *BinaryEdgeWriter) error { return w.WriteEdges(mixed) }),
		"per-edge": encode(int64(len(mixed)), func(w *BinaryEdgeWriter) error {
			for _, e := range mixed {
				if err := w.WriteEdge(e.Row, e.Col, e.Val); err != nil {
					return err
				}
			}
			return nil
		}),
		"block-mixed":  blockRuns(mixedVarintEdges(6000)),
		"block-banded": blockRuns(bandOrderedEdges(24_000)),
	}
	for _, name := range []string{"block-mixed", "block-banded"} {
		if len(cases[name]) < 2<<16 {
			t.Fatalf("%s: %d bytes, want two frames over the 64 KiB read buffer", name, len(cases[name]))
		}
	}
	return cases
}

// TestBinaryDeltaEdgeCases pins the windowed delta decoder on records of
// every varint width: each stream round-trips whole (also through readers
// that hand over one byte, or half the request, at a time, so every record
// boundary meets a refill), and every cut in its last 64 bytes and around
// the read buffer's refill boundaries fails as truncated or corrupt.
func TestBinaryDeltaEdgeCases(t *testing.T) {
	for name, data := range deltaEdgeCases(t) {
		t.Run(name, func(t *testing.T) {
			want, info, err := collectBinary(t, data)
			if err != nil {
				t.Fatal(err)
			}
			if info.Edges != int64(len(want)) || info.Checksum != foldChecksum(0, want) {
				t.Fatalf("trailer (%d, %#x) does not match the %d decoded edges", info.Edges, uint64(info.Checksum), len(want))
			}
			readers := map[string]func([]byte) io.Reader{
				"one-byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
				"half":     func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
			}
			for rname, mk := range readers {
				var got []Edge
				if _, err := ReadBinary(nil, mk(data), func(batch []Edge) error {
					got = append(got, batch...)
					return nil
				}); err != nil {
					t.Fatalf("%s reader: %v", rname, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s reader decoded a different stream", rname)
				}
			}

			cuts := map[int]bool{}
			for c := max(0, len(data)-64); c < len(data); c++ {
				cuts[c] = true
			}
			for edge := 1 << 16; edge < len(data); edge += 1 << 16 {
				for c := edge - 2*maxDeltaRecord; c <= edge+2*maxDeltaRecord && c < len(data); c++ {
					cuts[c] = true
				}
			}
			for c := range cuts {
				_, _, err := collectBinary(t, data[:c])
				if err == nil {
					t.Fatalf("prefix of %d/%d bytes decoded without error", c, len(data))
				}
				if !errors.Is(err, ErrBinaryTruncated) && !errors.Is(err, ErrBinaryCorrupt) {
					t.Fatalf("prefix of %d bytes: unexpected error class %v", c, err)
				}
			}
		})
	}
}

// overlongVarintStream is a delta stream whose second record carries a
// varint longer than 64 bits in field (0 row, 1 column, 2 value). With tail
// set, a valid remainder of the frame, more frames and the trailer follow,
// so the bad varint sits inside the read window; without it the input ends
// right after the bad varint.
func overlongVarintStream(field int, bad []byte, tail bool) []byte {
	const frameEdges = 40
	data := append([]byte(binaryMagic), binaryVersion, binFlagHasNNZ)
	data = binary.AppendUvarint(data, frameEdges)
	data = binary.AppendUvarint(data, frameEdges)
	data = append(data, 2, 2, 2)
	for i := range 3 {
		if i == field {
			data = append(data, bad...)
		} else {
			data = append(data, 2)
		}
	}
	if !tail {
		return data
	}
	for range frameEdges - 2 {
		data = append(data, 2, 2, 2)
	}
	var w bytes.Buffer
	bw, err := NewBinaryEdgeWriter(&w, -1, BinaryDelta)
	if err != nil {
		panic(err)
	}
	if err := bw.WriteEdges(bandOrderedEdges(100)); err != nil {
		panic(err)
	}
	if err := bw.Finish(); err != nil {
		panic(err)
	}
	return append(data, w.Bytes()[6:]...) // its frames and trailer
}

// overlongVarints are the two ways a varint overflows 64 bits: an 11-byte
// encoding, and a 10-byte one whose last byte carries bits past bit 63.
var overlongVarints = map[string][]byte{
	"11-byte":      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
	"10-byte-high": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
}

// TestBinaryDeltaOverlongVarint: a varint that overflows 64 bits in the
// middle of a delta frame is corruption, whichever field holds it and
// whether it sits inside the read window or at the very end of the input.
func TestBinaryDeltaOverlongVarint(t *testing.T) {
	for name, bad := range overlongVarints {
		for field := range 3 {
			for _, tail := range []bool{true, false} {
				data := overlongVarintStream(field, bad, tail)
				if _, _, err := collectBinary(t, data); !errors.Is(err, ErrBinaryCorrupt) {
					t.Errorf("%s varint in field %d (tail %v): %v, want ErrBinaryCorrupt", name, field, tail, err)
				}
			}
		}
	}
}

// TestReadBinaryZeroAllocsPerFrame is the decode side's alloc-regression
// guard: ReadBinary's setup (read buffer, emit batch, info) is a fixed
// cost, and decoding further frames of either encoding allocates nothing —
// a stream of many frames costs exactly the allocations of a stream of few.
func TestReadBinaryZeroAllocsPerFrame(t *testing.T) {
	block := bandOrderedEdges(3000)
	var tmpl DeltaBlockTemplate
	tmpl.Render(block)
	stream := func(enc BinaryEncoding, frames int) []byte {
		var buf bytes.Buffer
		w, err := NewBinaryEdgeWriter(&buf, int64(frames*len(block)), enc)
		if err != nil {
			t.Fatal(err)
		}
		for f := range frames {
			base := int64(f) << 20
			if err := w.WriteBlockRun(&tmpl, base, base); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, enc := range []BinaryEncoding{BinaryDelta, BinaryFixed} {
		t.Run(enc.String(), func(t *testing.T) {
			r := bytes.NewReader(nil)
			emit := func([]Edge) error { return nil }
			allocs := func(data []byte) float64 {
				return testing.AllocsPerRun(10, func() {
					r.Reset(data)
					if _, err := ReadBinary(nil, r, emit); err != nil {
						t.Fatal(err)
					}
				})
			}
			few, many := allocs(stream(enc, 2)), allocs(stream(enc, 64))
			if raceEnabled {
				t.Logf("race build: %.1f vs %.1f allocs; assertion skipped (instrumentation allocates)", few, many)
			} else if many != few {
				t.Fatalf("decoding 64 frames allocates %.1f times, 2 frames %.1f: frames allocate", many, few)
			}
		})
	}
}
