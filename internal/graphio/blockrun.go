package graphio

import (
	"encoding/binary"
	"fmt"
)

// Block-replay encode kernel.
//
// A Kronecker product K = B ⊗ C emits, for every nonzero of B, the whole
// edge pattern of C shifted by a constant (rowBase, colBase) block offset.
// Inside the KRNB delta encoding the intra-block deltas
// zig(row[i]-row[i-1]) zig(col[i]-col[i-1]) depend only on C's local
// coordinates — the block offset cancels out of every difference — and the
// value bytes depend only on C's values times the B nonzero. The delta byte
// stream of a block is therefore byte-for-byte identical across all
// B-triples that share a B value: encode it once, replay it per block.
//
// DeltaBlockTemplate is that cached rendering. Render encodes the block's
// edges[1:] as delta-varint bytes once (the tail); a replayed frame is then
// the frame-count header, the first edge encoded absolutely (frames reset
// prev to (0,0), so "absolute" and "delta from frame start" coincide), and
// one Write of the cached tail. The trailer's XOR checksum folds in O(n)
// adds from a precomputed table instead of per-edge coordinate arithmetic:
//
//	(rowBase+r)*31 + (colBase+c) = (rowBase*31 + colBase) + (r*31 + c)
//
// holds exactly under two's-complement wraparound, so the per-edge term
// r*31 + c is rendered once and only the per-block constant varies.
type DeltaBlockTemplate struct {
	n int

	// First edge in block-local coordinates; the replayed frame patches the
	// block offset onto it and encodes it absolutely.
	firstRow, firstCol, firstVal int64

	// tail is the delta-varint payload of edges[1:], reused verbatim by
	// every replay of this template. tail, pre and locals are never written
	// after Render returns; clones share them.
	tail []byte

	// pre[i] = localRow[i]*31 + localCol[i] — the block-invariant part of
	// the checksum fold, for all n edges.
	pre []int64

	// locals is an owned copy of the block's local edges, kept for the
	// expansion fallbacks (fixed encoding, oracle path, non-binary sinks).
	locals []Edge
}

// Render (re)builds the template from a block's edges in block-local
// coordinates, values already multiplied through (for K = B ⊗ C: C's edges
// with vals scaled by the B-triple's value). The block slice is only read
// during the call. A rendered template is immutable: Render always writes
// into freshly allocated buffers and never into the ones a previous
// rendering handed out, so a CloneInto copy taken before a re-render keeps
// its bytes. A generator renders once per distinct B value per worker and
// pass, which for star designs (every B value 1) is once per worker.
func (t *DeltaBlockTemplate) Render(block []Edge) {
	*t = DeltaBlockTemplate{n: len(block)}
	if len(block) == 0 {
		return
	}
	t.locals = append([]Edge(nil), block...)
	t.pre = make([]int64, 0, len(block))
	t.tail = make([]byte, 0, 3*(len(block)-1))
	first := block[0]
	t.firstRow, t.firstCol, t.firstVal = first.Row, first.Col, first.Val
	prevRow, prevCol := first.Row, first.Col
	t.pre = append(t.pre, first.Row*31+first.Col)
	for _, e := range block[1:] {
		t.tail = binary.AppendUvarint(t.tail, zigzag(e.Row-prevRow))
		t.tail = binary.AppendUvarint(t.tail, zigzag(e.Col-prevCol))
		t.tail = binary.AppendUvarint(t.tail, zigzag(e.Val))
		prevRow, prevCol = e.Row, e.Col
		t.pre = append(t.pre, e.Row*31+e.Col)
	}
}

// Len returns the number of edges a replay of this template carries.
func (t *DeltaBlockTemplate) Len() int { return t.n }

// FoldChecksum folds the block's contribution at the given offset into the
// stream checksum using the closed-form split: one add and one xor per edge,
// no coordinate reconstruction.
func (t *DeltaBlockTemplate) FoldChecksum(sum, rowBase, colBase int64) int64 {
	base := rowBase*31 + colBase
	for _, p := range t.pre {
		sum ^= base + p
	}
	return sum
}

// AppendEdges appends the block's edges at the given offset in global
// coordinates — the expansion path for consumers that want edges rather
// than bytes.
func (t *DeltaBlockTemplate) AppendEdges(dst []Edge, rowBase, colBase int64) []Edge {
	for _, e := range t.locals {
		dst = append(dst, Edge{Row: rowBase + e.Row, Col: colBase + e.Col, Val: e.Val})
	}
	return dst
}

// CloneInto copies the template into dst by reference: a constant-size
// header copy that shares the rendered buffers, which stay valid because a
// rendered template is immutable (see Render). Sinks that retain a run past
// WriteBlockRun (the pooled async hand-off) must still clone rather than
// keep the *DeltaBlockTemplate: the producer owns that header and re-renders
// it when the B value changes, after which it describes a different block —
// the same ownership contract batches have.
func (t *DeltaBlockTemplate) CloneInto(dst *DeltaBlockTemplate) { *dst = *t }

// BlockRunWriter is implemented by edge writers with a block-replay fast
// path. WriteBlockRun appends the template's edges at the given block offset
// — equivalent to WriteEdges over the expanded block, but (for the delta
// encoding) paying one memcpy of the cached tail instead of per-edge varint
// encoding. The template is owned by the caller and only valid during the
// call.
type BlockRunWriter interface {
	WriteBlockRun(t *DeltaBlockTemplate, rowBase, colBase int64) error
	// ReplaysBlocks reports whether WriteBlockRun is a genuine fast path for
	// this writer's configuration. Pipeline sinks consult it so that, e.g.,
	// the fixed encoding keeps its zero-copy batch path instead of being
	// routed through per-edge expansion.
	ReplaysBlocks() bool
}

// ReplaysBlocks reports whether this writer replays cached block bytes:
// only the delta encoding does — fixed-width batches already stream as raw
// memory copies, which block expansion could only slow down.
func (b *BinaryEdgeWriter) ReplaysBlocks() bool { return b.enc == BinaryDelta }

// SetBlockReplay toggles the replay fast path. With replay disabled,
// WriteBlockRun encodes the expanded block per edge through the same frame
// boundaries the replay path uses, producing byte-identical output — this
// is the oracle the byte-parity suite pins the kernel against. Replay is on
// by default.
func (b *BinaryEdgeWriter) SetBlockReplay(enabled bool) { b.noReplay = !enabled }

// WriteBlockRun writes the template's edges at the given block offset. For
// the delta encoding the block becomes one self-contained frame: pending
// per-edge writes are framed first (frame order = edge order), then the
// frame-count header, the first edge absolute, and the cached tail bytes.
// The count/checksum trailer state folds from the template's closed-form
// sums — one add and one xor per edge — unless a seeded trailer made the
// fold moot. Zero allocations at steady state.
func (b *BinaryEdgeWriter) WriteBlockRun(t *DeltaBlockTemplate, rowBase, colBase int64) error {
	if b.finished {
		return fmt.Errorf("graphio: WriteBlockRun after Finish on binary edge stream")
	}
	if t.n == 0 {
		return nil
	}
	if !b.seeded {
		b.checksum = t.FoldChecksum(b.checksum, rowBase, colBase)
	}
	b.count += int64(t.n)
	if b.enc == BinaryFixed {
		// No cached bytes to replay (the fixed payload is not
		// offset-invariant); expand per edge with the usual chunked frames.
		for _, e := range t.locals {
			b.appendEdge(rowBase+e.Row, colBase+e.Col, e.Val)
			if len(b.scratch) >= edgeChunk {
				if err := b.emitFrame(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := b.emitFrame(); err != nil {
		return err
	}
	if b.noReplay {
		// Oracle path: same framing — one frame holding the whole block,
		// first edge delta-from-(0,0) i.e. absolute — but every byte comes
		// from the per-edge encoder.
		for _, e := range t.locals {
			b.appendEdge(rowBase+e.Row, colBase+e.Col, e.Val)
		}
		return b.emitFrame()
	}
	n := binary.PutUvarint(b.hdrBuf[:], uint64(t.n))
	if _, err := b.bw.Write(b.hdrBuf[:n]); err != nil {
		return err
	}
	sc := b.scratch[:0]
	sc = binary.AppendUvarint(sc, zigzag(rowBase+t.firstRow))
	sc = binary.AppendUvarint(sc, zigzag(colBase+t.firstCol))
	sc = binary.AppendUvarint(sc, zigzag(t.firstVal))
	b.scratch = sc[:0]
	if _, err := b.bw.Write(sc); err != nil {
		return err
	}
	// The tail is typically frame-sized; bufio hands writes at or above its
	// buffer size straight to the underlying writer, so this is the one
	// memcpy (or zero, to a direct sink) the whole block costs.
	_, err := b.bw.Write(t.tail)
	return err
}

// SeedTrailer fixes the trailer's edge count and XOR checksum to the given
// closed-form values — the ones shard plans and gen.ChecksumPlan compute
// without enumerating edges — and disables the per-edge checksum fold from
// here on. The writer still counts edges (Count stays live), but Finish
// writes the seeded values verbatim. If the stream is cut short of the
// seeded count, readers catch it exactly as they catch a cancelled job: the
// trailer declares more edges than the stream carried.
func (b *BinaryEdgeWriter) SeedTrailer(edges, checksum int64) {
	b.seeded = true
	b.seedCount = edges
	b.seedChecksum = checksum
}
