package cacheagg

// Public face of the durable streaming ingest subsystem: a
// StreamAggregator accepts pushed blocks of rows, folds them into partial
// aggregates with the same cache-efficient machinery as Aggregate, and
// checkpoints its state in epochs — CRC-checked partial-aggregate files
// committed by an atomically-renamed manifest — so ResumeStream
// reconstructs the stream after a crash and ingest continues from the
// last sealed epoch. See docs/STREAMING.md for the epoch/recovery state
// machine and the backpressure contract.
//
// Quick start:
//
//	s, err := cacheagg.BeginStream(cacheagg.StreamOptions{
//		Dir: "/var/lib/myapp/stream",
//		Aggregates: []cacheagg.AggSpec{
//			{Func: cacheagg.Count},
//			{Func: cacheagg.Sum, Col: 0},
//		},
//	})
//	// producer loop:
//	err = s.Push(ctx, cacheagg.Block{Keys: keys, Columns: cols})
//	// rolling-window query at any time:
//	res, err := s.Snapshot(ctx, 10) // last 10 sealed epochs + live rows
//	// graceful end:
//	res, err = s.Finish(ctx)
//
// After a crash, ResumeStream(StreamOptions{Dir: dir}) reopens the
// stream; Progress().RowsDurable tells the producer where to replay from.

import (
	"context"
	"time"

	"cacheagg/internal/agg"
	"cacheagg/internal/stream"
)

// Streaming error sentinels, re-exported so callers never import internal
// packages. Match with errors.Is.
var (
	// ErrBackpressure is wrapped by the *BackpressureError that TryPush
	// returns when the ingest queue or the memory budget is full.
	ErrBackpressure = stream.ErrBackpressure
	// ErrStreamClosed reports an operation on a closed or finished
	// stream handle.
	ErrStreamClosed = stream.ErrClosed
	// ErrStreamFinished reports a ResumeStream on a stream whose Finish
	// completed: its result is final and it cannot ingest again.
	ErrStreamFinished = stream.ErrFinished
	// ErrCorruptCheckpoint reports checkpoint state that fails
	// validation: a damaged manifest or a committed epoch file that is
	// missing, truncated, or checksum-broken. Recovery never silently
	// merges damaged state.
	ErrCorruptCheckpoint = stream.ErrCorruptCheckpoint
	// ErrNoCheckpoint reports a ResumeStream on a directory that holds
	// no committed checkpoint.
	ErrNoCheckpoint = stream.ErrNoCheckpoint
	// ErrSpecMismatch reports a ResumeStream whose Aggregates disagree
	// with the checkpoint's recorded aggregates.
	ErrSpecMismatch = stream.ErrSpecMismatch
)

// BackpressureError is the typed refusal of TryPush: the stream is
// healthy but full. Reason is "queue" or "budget"; RetryAfter is the
// suggested backoff. errors.Is(err, ErrBackpressure) matches it.
type BackpressureError = stream.BackpressureError

// StreamProgress is the durable high-water mark of a stream: the last
// sealed epoch and the raw-row offset producers replay from after a
// crash.
type StreamProgress = stream.Progress

// StreamStats is a census of a stream's work: rows and blocks ingested,
// runs detected, epochs sealed, checkpoint bytes, backpressure events,
// and what recovery restored.
type StreamStats = stream.Stats

// Block is one pushed batch of rows: the grouping keys plus the input
// columns the Aggregates consume. All slices must be equally long, and
// must not be mutated after a successful Push.
type Block struct {
	Keys    []uint64
	Columns [][]int64
}

// StreamOptions configures BeginStream and ResumeStream.
type StreamOptions struct {
	// Dir is the checkpoint directory — the stream's durable identity.
	// BeginStream requires it to hold no checkpoint; ResumeStream
	// requires one.
	Dir string
	// Aggregates lists the aggregate columns computed over every pushed
	// block. ResumeStream may leave it empty to adopt the checkpoint's
	// recorded aggregates.
	Aggregates []AggSpec
	// QueueDepth bounds the ingest queue in blocks (<= 0 selects 16);
	// with the queue full, Push blocks and TryPush returns
	// backpressure.
	QueueDepth int
	// EpochMaxRows seals an epoch checkpoint after this many ingested
	// rows (<= 0 selects 262144). Smaller epochs bound the replay window
	// at the cost of more checkpoint I/O.
	EpochMaxRows int64
	// MemoryBudgetBytes caps the bytes held by queued blocks plus the
	// in-memory partial-aggregate state (0 = unlimited). A starved
	// budget seals smaller epochs early and pushes back on producers
	// rather than growing without bound.
	MemoryBudgetBytes int64
	// Workers is ignored: Snapshot and Finish merge in one table on the
	// stream's own goroutine.
	//
	// Deprecated: it has no effect and will be removed.
	Workers int
	// RetryHint is the backoff BackpressureError suggests to producers
	// (<= 0 selects 10ms).
	RetryHint time.Duration
	// Tracer, when non-nil, records epoch-seal, checkpoint-write,
	// recover and backpressure events — the same JSONL/expvar pipeline
	// as batch runs.
	Tracer *Tracer
	// NoSync skips every fsync on the checkpoint path. Tests and
	// benchmarks only: a NoSync stream survives process crashes in
	// practice but not power loss.
	NoSync bool
}

func (o StreamOptions) lower() (stream.Options, error) {
	specs, err := aggSpecs(o.Aggregates)
	if err != nil {
		return stream.Options{}, err
	}
	if len(o.Aggregates) == 0 {
		specs = nil
	}
	opts := stream.Options{
		Dir:               o.Dir,
		Specs:             specs,
		QueueDepth:        o.QueueDepth,
		EpochMaxRows:      o.EpochMaxRows,
		MemoryBudgetBytes: o.MemoryBudgetBytes,
		RetryHint:         o.RetryHint,
		NoSync:            o.NoSync,
	}
	if o.Tracer != nil {
		opts.Tracer = o.Tracer.rec
	}
	return opts, nil
}

// StreamAggregator is a durable streaming aggregation session. All
// methods are safe for concurrent use by any number of producers and
// queriers.
type StreamAggregator struct {
	a *stream.Aggregator
}

// BeginStream creates a new durable stream whose checkpoints live in
// opts.Dir. The directory is created if needed and must not already hold
// a checkpoint (use ResumeStream for that).
func BeginStream(opts StreamOptions) (*StreamAggregator, error) {
	low, err := opts.lower()
	if err != nil {
		return nil, err
	}
	a, err := stream.Begin(low)
	if err != nil {
		return nil, err
	}
	return &StreamAggregator{a: a}, nil
}

// ResumeStream reopens the durable stream in opts.Dir after a crash or a
// Close: torn (uncommitted) epoch files are rolled back, every committed
// epoch is re-validated, and ingest continues from the last sealed epoch.
// Producers replay their un-acknowledged rows from Progress().RowsDurable.
func ResumeStream(opts StreamOptions) (*StreamAggregator, error) {
	low, err := opts.lower()
	if err != nil {
		return nil, err
	}
	a, err := stream.Resume(low)
	if err != nil {
		return nil, err
	}
	return &StreamAggregator{a: a}, nil
}

func lowerBlock(b Block) stream.Block {
	return stream.Block{Keys: b.Keys, Cols: b.Columns}
}

// Push enqueues one block, blocking while the ingest queue or the memory
// budget is full, until ctx is done. A nil return means the block will be
// folded; it becomes durable once a later checkpoint covers it (watch
// Progress().RowsDurable).
func (s *StreamAggregator) Push(ctx context.Context, b Block) error {
	return s.a.Push(ctx, lowerBlock(b))
}

// TryPush is Push without blocking: a full queue or budget returns a
// *BackpressureError (errors.Is ErrBackpressure) carrying a retry hint.
func (s *StreamAggregator) TryPush(b Block) error {
	return s.a.TryPush(lowerBlock(b))
}

// Checkpoint seals the open epoch — everything pushed so far becomes
// durable — and returns the sealed epoch's sequence number. With nothing
// buffered it is a no-op returning the current epoch.
func (s *StreamAggregator) Checkpoint(ctx context.Context) (uint64, error) {
	return s.a.Checkpoint(ctx)
}

// Snapshot returns the finalized aggregates over the last `window` sealed
// epochs plus everything currently buffered (window <= 0 means the whole
// stream): the rolling-window query. The stream keeps ingesting; blocks
// pushed before the call are included, later ones are not.
func (s *StreamAggregator) Snapshot(ctx context.Context, window int) (*StreamResult, error) {
	res, err := s.a.Snapshot(ctx, window)
	if err != nil {
		return nil, err
	}
	return liftResult(res), nil
}

// Finish seals the final epoch, marks the stream finished, and returns
// the aggregates over its entire history. The handle is closed afterwards
// and the directory refuses ResumeStream with ErrStreamFinished.
func (s *StreamAggregator) Finish(ctx context.Context) (*StreamResult, error) {
	res, err := s.a.Finish(ctx)
	if err != nil {
		return nil, err
	}
	return liftResult(res), nil
}

// Drain seals whatever is buffered and closes the stream without marking
// it finished — the shutdown path: nothing is lost, and ResumeStream
// continues where Drain left off.
func (s *StreamAggregator) Drain(ctx context.Context) error {
	return s.a.Drain(ctx)
}

// Close shuts the stream down without sealing. Buffered (not yet
// checkpointed) rows are dropped; durable state remains the last sealed
// epoch, and producers replay from Progress().RowsDurable after
// ResumeStream. Idempotent.
func (s *StreamAggregator) Close() error {
	return s.a.Close()
}

// Progress returns the durable high-water mark producers acknowledge
// against.
func (s *StreamAggregator) Progress() StreamProgress { return s.a.Progress() }

// Stats returns the stream's counters.
func (s *StreamAggregator) Stats() StreamStats { return s.a.Stats() }

// Dir returns the checkpoint directory.
func (s *StreamAggregator) Dir() string { return s.a.Dir() }

// Aggregates returns the stream's aggregate columns — useful after a
// ResumeStream that adopted them from the checkpoint.
func (s *StreamAggregator) Aggregates() []AggSpec {
	specs := s.a.Specs()
	out := make([]AggSpec, len(specs))
	for i, sp := range specs {
		out[i] = AggSpec{Func: funcOf(sp.Kind), Col: sp.Col}
	}
	return out
}

func funcOf(k agg.Kind) Func {
	switch k {
	case agg.Count:
		return Count
	case agg.Sum:
		return Sum
	case agg.Min:
		return Min
	case agg.Max:
		return Max
	case agg.Avg:
		return Avg
	default:
		return Func(int(k))
	}
}

// StreamResult is one finalized snapshot of a stream, ordered by hash
// value like every result of this library — and deterministically so:
// equal logical streams produce bit-identical snapshots regardless of
// arrival order, epoch boundaries, or crash/recovery history.
type StreamResult struct {
	// Groups holds the distinct grouping keys, ordered by hash.
	Groups []uint64
	// Aggs holds one output column per aggregate (Avg truncated; see
	// Float).
	Aggs [][]int64
	// Epochs is the number of sealed epochs the snapshot covers (live
	// buffered rows are included on top).
	Epochs int

	hashes []uint64
	floats [][]float64
}

func liftResult(r *stream.Result) *StreamResult {
	return &StreamResult{
		Groups: r.Keys,
		Aggs:   r.Aggs,
		Epochs: r.Epochs,
		hashes: r.Hashes,
		floats: r.AggsFloat,
	}
}

// Len returns the number of groups.
func (r *StreamResult) Len() int { return len(r.Groups) }

// Float returns aggregate column a of group idx as a float64 — exact for
// Avg, the widened integer otherwise.
func (r *StreamResult) Float(a, idx int) float64 { return r.floats[a][idx] }

// Hashes returns the groups' hash digests (ascending), exposing the same
// hash-ordered structure as batch results.
func (r *StreamResult) Hashes() []uint64 { return r.hashes }

// Index builds a map from group key to row index for point lookups.
func (r *StreamResult) Index() map[uint64]int {
	idx := make(map[uint64]int, len(r.Groups))
	for i, g := range r.Groups {
		idx[g] = i
	}
	return idx
}
