package validate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/star"
)

// The reproduction of Figure 4's claim at laptop scale: generated graphs
// agree *exactly* with their design-time predictions, for every loop mode
// and multiple worker counts.
func TestExactAgreement(t *testing.T) {
	cases := []struct {
		pts  []int
		loop star.LoopMode
		nb   int
		np   int
	}{
		{[]int{3, 4, 5}, star.LoopNone, 2, 1},
		{[]int{3, 4, 5}, star.LoopNone, 2, 4},
		{[]int{3, 4, 5}, star.LoopHub, 2, 3},
		{[]int{3, 4, 5}, star.LoopLeaf, 1, 2},
		{[]int{5, 3}, star.LoopHub, 1, 2},
		{[]int{3, 4, 5, 9}, star.LoopHub, 2, 4},
		{[]int{2, 3, 4, 5}, star.LoopLeaf, 2, 5},
	}
	for _, tc := range cases {
		d, err := core.FromPoints(tc.pts, tc.loop)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(context.Background(), d, tc.nb, tc.np)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if !r.ExactAgreement {
			t.Errorf("%v np=%d: mismatches: %v", d, tc.np, r.Mismatches)
		}
	}
}

func TestReportString(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), d, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"predicted", "measured", "exact agreement", "triangles"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestMismatchDetection(t *testing.T) {
	// Corrupt a prediction and confirm compare() flags it.
	d, err := core.FromPoints([]int{3, 4}, star.LoopNone)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), d, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ExactAgreement {
		t.Fatalf("baseline should agree: %v", r.Mismatches)
	}
	r.PredictedEdges.Add(r.PredictedEdges, r.PredictedVertices)
	r.Mismatches = nil
	r.compare()
	if r.ExactAgreement {
		t.Error("corrupted prediction not detected")
	}
	if !strings.Contains(r.String(), "mismatches") {
		t.Error("report does not surface mismatch")
	}
}

func TestRejectsUnrealizableDesign(t *testing.T) {
	pts := []int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641}
	d, err := core.FromPoints(pts, star.LoopLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), d, 8, 2); err == nil {
		t.Error("decetta-scale design accepted for realization")
	}
}

func TestRunCancelled(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5, 9}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, d, 2, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// RunShard must stop within a batch of a pre-cancelled context, like Run.
func TestRunShardCancelled(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5, 9}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gen.PlanDesignShards(d, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunShard(ctx, d, 2, 2, plan[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// The other entry points must also return ctx's error, not a report, when
// handed an already-cancelled context: RunSampled stops within a batch, and
// Merge (whose shard reports were measured under a live context) stops in
// the fragment merge or the triangle count.
func TestEntryPointsCancelled(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5, 9}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	shards := func(K int) []*ShardReport {
		plan, err := gen.PlanDesignShards(d, 2, K)
		if err != nil {
			t.Fatal(err)
		}
		reports := make([]*ShardReport, len(plan))
		for i, s := range plan {
			if reports[i], err = RunShard(context.Background(), d, 2, 2, s); err != nil {
				t.Fatal(err)
			}
		}
		return reports
	}
	type entry struct {
		name string
		run  func(ctx context.Context) error
	}
	cases := []entry{
		{"RunSampled", func(ctx context.Context) error { _, err := RunSampled(ctx, d, 2, 2); return err }},
	}
	for _, K := range []int{1, 2} {
		reports := shards(K)
		cases = append(cases, entry{fmt.Sprintf("Merge/K=%d", K), func(ctx context.Context) error {
			_, err := Merge(ctx, reports, 2)
			return err
		}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		if err := tc.run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
	}
}
