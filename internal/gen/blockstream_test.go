package gen

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/star"
)

// deltaShardStream streams one shard single-worker through a block-capable
// Writer sink into a buffer, with the replay kernel on or off (off = the
// per-edge oracle, which encodes identical frames edge by edge).
func deltaShardStream(t *testing.T, g *Generator, s ShardInfo, replay bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	ew, err := graphio.NewBinaryEdgeWriter(&buf, s.Edges, graphio.BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	ew.SetBlockReplay(replay)
	if err := g.StreamShardTo(context.Background(), s, 1, 0, pipeline.Writer(ew)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBinary reads a complete KRNB stream back into edges.
func decodeBinary(t *testing.T, data []byte) ([]Edge, *graphio.BinaryInfo) {
	t.Helper()
	var got []Edge
	info, err := graphio.ReadBinary(context.Background(), bytes.NewReader(data), func(batch []graphio.Edge) error {
		got = append(got, batch...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, info
}

// TestBlockStreamWireParity is the end-to-end conformance property of the
// block-replay mode: for randomized designs and shard plans K ∈ {1, 2, 3,
// 7}, the replayed delta stream of every shard is byte-identical to the
// per-edge oracle's, decodes to exactly the batch path's edges, and carries
// the plan's closed-form count and checksum in its trailer.
func TestBlockStreamWireParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8192))
	loops := []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf}
	for trial := 0; trial < 4; trial++ {
		nf := 3 + rng.Intn(3)
		points := make([]int, nf)
		for i := range points {
			points[i] = 2 + rng.Intn(5)
		}
		loop := loops[rng.Intn(len(loops))]
		nb := 1 + rng.Intn(nf-1)
		d, err := core.FromPoints(points, loop)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(d, nb)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 7} {
			plan, err := g.PlanShards(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.ChecksumPlan(context.Background(), plan, 2); err != nil {
				t.Fatal(err)
			}
			for _, s := range plan {
				replayed := deltaShardStream(t, g, s, true)
				oracle := deltaShardStream(t, g, s, false)
				if !bytes.Equal(replayed, oracle) {
					t.Fatalf("%v nb=%d k=%d shard %d: replayed stream (%d bytes) differs from per-edge oracle (%d bytes)",
						d, nb, k, s.Shard, len(replayed), len(oracle))
				}
				got, info := decodeBinary(t, replayed)
				want := collectShard(t, g, s, 1)
				if int64(len(got)) != s.Edges || len(got) != len(want) {
					t.Fatalf("%v nb=%d k=%d shard %d: decoded %d edges, batch path %d, plan %d",
						d, nb, k, s.Shard, len(got), len(want), s.Edges)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v nb=%d k=%d shard %d: edge %d = %+v, batch path %+v",
							d, nb, k, s.Shard, i, got[i], want[i])
					}
				}
				if info.Edges != s.Edges || info.Checksum != s.Checksum {
					t.Fatalf("%v nb=%d k=%d shard %d: trailer (%d, %#x), plan (%d, %#x)",
						d, nb, k, s.Shard, info.Edges, uint64(info.Checksum), s.Edges, uint64(s.Checksum))
				}
			}
		}
	}
}

// TestSeedTrailerMatchesChecksumPlan is the satellite bugfix regression: a
// writer whose trailer is seeded from the shard plan's closed-form values
// must produce the same trailer the unseeded writer folds per block — and
// the reader, which refolds the payload, must verify the seeded stream.
func TestSeedTrailerMatchesChecksumPlan(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5, 6}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.PlanShards(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ChecksumPlan(context.Background(), plan, 2); err != nil {
		t.Fatal(err)
	}
	for _, s := range plan {
		var seeded bytes.Buffer
		ew, err := graphio.NewBinaryEdgeWriter(&seeded, s.Edges, graphio.BinaryDelta)
		if err != nil {
			t.Fatal(err)
		}
		ew.SeedTrailer(s.Edges, s.Checksum)
		if err := g.StreamShardTo(context.Background(), s, 1, 0, pipeline.Writer(ew)); err != nil {
			t.Fatal(err)
		}
		folded := deltaShardStream(t, g, s, true)
		if !bytes.Equal(seeded.Bytes(), folded) {
			t.Fatalf("shard %d: seeded trailer stream differs from folded trailer stream — plan checksum %#x is not the stream fold",
				s.Shard, uint64(s.Checksum))
		}
		_, info := decodeBinary(t, seeded.Bytes())
		if info.Edges != s.Edges || info.Checksum != s.Checksum {
			t.Fatalf("shard %d: seeded trailer read back as (%d, %#x), want (%d, %#x)",
				s.Shard, info.Edges, uint64(info.Checksum), s.Edges, uint64(s.Checksum))
		}
	}
}
