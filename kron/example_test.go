package kron_test

import (
	"context"
	"fmt"
	"log"

	"repro/kron"
)

// Design the paper's trillion-edge graph and read off its exact properties
// without generating anything.
func ExampleFromPoints() {
	d, err := kron.FromPoints([]int{3, 4, 5, 9, 16, 25, 81, 256}, kron.LoopHub)
	if err != nil {
		log.Fatal(err)
	}
	p, err := d.Compute()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("vertices:", p.Vertices)
	fmt.Println("edges:", p.Edges)
	fmt.Println("triangles:", p.Triangles)
	// Output:
	// vertices: 11177649600
	// edges: 1853002140758
	// triangles: 6777007252427
}

// Generate a small design in parallel and confirm the edge count.
func ExampleNewGenerator() {
	d, err := kron.FromPoints([]int{3, 4, 5}, kron.LoopNone)
	if err != nil {
		log.Fatal(err)
	}
	g, err := kron.NewGenerator(d, 2)
	if err != nil {
		log.Fatal(err)
	}
	total, _, err := g.CountEdges(context.Background(), 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("edges generated:", total)
	// Output:
	// edges generated: 480
}

// Validate that a generated graph matches its design exactly.
func ExampleValidate() {
	d, err := kron.FromPoints([]int{5, 3}, kron.LoopHub)
	if err != nil {
		log.Fatal(err)
	}
	r, err := kron.Validate(context.Background(), d, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exact agreement:", r.ExactAgreement)
	fmt.Println("triangles:", r.MeasuredTriangles)
	// Output:
	// exact agreement: true
	// triangles: 15
}

// Stream a generated graph batch by batch into a plain callback. Each
// worker counts into its own slot, so the callback needs no lock.
func ExampleStreamTo() {
	d, err := kron.FromPoints([]int{3, 4, 5}, kron.LoopHub)
	if err != nil {
		log.Fatal(err)
	}
	g, err := kron.NewGenerator(d, 2)
	if err != nil {
		log.Fatal(err)
	}
	const workers = 4
	perWorker := make([]int64, workers)
	err = kron.StreamTo(context.Background(), g, workers, 0, kron.SinkFunc(func(worker int, batch []kron.Edge) error {
		perWorker[worker] += int64(len(batch))
		return nil
	}))
	if err != nil {
		log.Fatal(err)
	}
	var total int64
	for _, n := range perWorker {
		total += n
	}
	fmt.Println("edges streamed:", total, "of", g.NumEdges())
	// Output:
	// edges streamed: 692 of 692
}
