// Fixture gen: a streaming package (import-path tail "gen") — exported
// drivers must take ctx first, and context.Background/TODO are banned.
package gen

import "context"

type Edge struct{ Row, Col int64 }

type Sink interface {
	WriteBatch(p int, batch []Edge) error
	Close() error
}

// StreamTo threads ctx: clean.
func StreamTo(ctx context.Context, np int, sink Sink) error {
	return nil
}

// StreamEmit threads ctx to an emit callback: clean.
func StreamEmit(ctx context.Context, np int, emit func(p int, batch []Edge) error) error {
	return nil
}

// Stream drives an emit loop without a ctx parameter and severs
// cancellation with Background: both checks fire.
func Stream(np int, emit func(p int, batch []Edge) error) error { // want `exported streaming entry point Stream`
	return stream(context.Background(), np, emit) // want `context\.Background\(\) in library code`
}

func stream(ctx context.Context, np int, emit func(p int, batch []Edge) error) error {
	return nil
}

// CountEdges has no sink or emit parameter, so the signature check does not
// apply — but a buried TODO is still banned.
func CountEdges(np int) int64 {
	ctx := context.TODO() // want `context\.TODO\(\) in library code`
	_ = ctx
	return 0
}

// Tee is a combinator: it accepts sinks but returns one instead of driving
// a loop, so no ctx is required.
func Tee(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return nil
}

// drive is unexported: the signature check applies to the public API only.
func drive(np int, sink Sink) error {
	return nil
}

// ReadBinary mirrors graphio.ReadBinary: a ctx-first decoder whose emit
// callback carries no worker index (one decode stream, not a fan-out), so
// the emit-shape check does not mistake it for a driver with a bare loop.
func ReadBinary(ctx context.Context, np int, emit func(batch []Edge) error) error {
	return nil
}

// ShardReport mirrors validate.ShardReport: a per-shard validation fragment.
// Exported functions producing or consuming one are long-running streaming
// work and must thread a context.
type ShardReport struct{ Edges int64 }

// RunShard threads ctx and returns a fragment: clean.
func RunShard(ctx context.Context, k int) (*ShardReport, error) {
	return &ShardReport{}, nil
}

// MergeReports consumes fragments without a ctx parameter: the
// shard-validation check fires even though no Sink or emit param appears.
func MergeReports(reports []*ShardReport) error { // want `exported shard-validation entry point MergeReports`
	return nil
}

// BuildShard returns a fragment without a ctx parameter: results count too.
func BuildShard(k int) ShardReport { // want `exported shard-validation entry point BuildShard`
	return ShardReport{}
}

// mergeReports is unexported: the check applies to the public API only.
func mergeReports(reports []*ShardReport) error {
	return nil
}
