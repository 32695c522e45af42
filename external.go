package cacheagg

// Out-of-core aggregation: the disk level of the external memory model,
// run by the same engine as Aggregate through its spill tier. See
// internal/core's spill.go for the algorithm (early aggregation in memory
// → largest buckets spilled to checksummed files → spilled buckets read
// back and recursed on by hash digit) and docs/ROBUSTNESS.md for the
// failure model and the spill-file format.

import (
	"context"
	"fmt"

	"cacheagg/internal/core"
	"cacheagg/internal/memgov"
)

// ExternalOptions tunes an out-of-core aggregation.
type ExternalOptions struct {
	// MemoryBudgetRows is accepted for compatibility and sizes nothing:
	// the engine spills by bytes. Negative values are rejected.
	//
	// Deprecated: it has no effect and will be removed; use
	// MemoryBudgetBytes.
	MemoryBudgetRows int
	// MemoryBudgetBytes caps the total bytes of in-memory state, enforced
	// by a byte-accurate governor. It sizes workers and caches; buckets of
	// partial aggregates stay in memory as long as they fit, and the
	// largest one a worker owns goes to disk whenever the budget is
	// exceeded. 0 sends every partial aggregate through disk. Negative
	// values are rejected up front.
	MemoryBudgetBytes int64
	// TempDir hosts the spill files ("" = system temp directory). Files
	// are removed when the call returns, on success and on every error
	// path.
	TempDir string
	// MaxSpillBytes caps the total bytes written to spill files over the
	// whole run. When the cap would be exceeded, the aggregation fails
	// fast with a descriptive error instead of filling the disk. 0 means
	// no cap.
	MaxSpillBytes int64
	// MergeWorkers is accepted for compatibility and sizes nothing:
	// Options.Workers is the parallelism of every phase, reading spilled
	// buckets back included. Negative values are rejected.
	//
	// Deprecated: it has no effect and will be removed; use
	// Options.Workers.
	MergeWorkers int
}

// ExternalStats describes the spill behaviour of an out-of-core run.
type ExternalStats struct {
	// Chunks is always 1: the input is consumed in one pass.
	//
	// Deprecated: it is a constant and will be removed.
	Chunks int
	// SpilledRows and SpilledBytes count the partial-group records that
	// went through disk.
	SpilledRows  int64
	SpilledBytes int64
	// MergeLevels is the deepest recursion level that read a spilled
	// bucket back (level-0 buckets are read at level 1; 0 when nothing
	// spilled).
	MergeLevels int
	// CleanupFailures counts spill files whose individual removal failed
	// (the spill directory is still deleted recursively afterwards).
	CleanupFailures int
	// SpillRetries counts transient spill-I/O faults absorbed by the
	// retry layer.
	SpillRetries int64
	// PeakReservedBytes is the memory governor's high-water mark.
	PeakReservedBytes int64
	// ResidentPartitions counts level-0 buckets that never spilled.
	ResidentPartitions int
	// EvictedPartitions counts bucket spills: the largest bucket a worker
	// owned, written to disk because the byte budget demanded it (or every
	// level-0 bucket without a byte budget).
	EvictedPartitions int
	// ChunkRetries is always 0.
	//
	// Deprecated: it is a constant and will be removed.
	ChunkRetries int
	// PrefetchedPartitions is always 0.
	//
	// Deprecated: it is a constant and will be removed.
	PrefetchedPartitions int
}

// ExternalResult is the result of AggregateExternal.
type ExternalResult struct {
	// Groups holds the distinct grouping keys.
	Groups []uint64
	// Aggs holds one output column per requested aggregate (AVG rows are
	// truncated integer quotients).
	Aggs [][]int64
	// Stats describes the spill behaviour.
	Stats ExternalStats
}

// Len returns the number of groups.
func (r *ExternalResult) Len() int { return len(r.Groups) }

// AggregateExternal executes the GROUP BY with bounded memory, spilling
// partial aggregates to disk: under MemoryBudgetBytes the largest buckets
// when the budget demands it, without one every level-0 bucket. The
// operator (configured by opt) runs every level, so all of its adaptivity
// applies to the spilled buckets too. A run that spilled returns its
// groups in total hash order.
//
// Spill files are checksummed: a truncated or bit-flipped file is detected
// and reported as a "corrupt spill file" error rather than silently
// mis-aggregated.
func AggregateExternal(in Input, opt Options, ext ExternalOptions) (*ExternalResult, error) {
	return AggregateExternalContext(context.Background(), in, opt, ext)
}

// AggregateExternalContext is AggregateExternal with cancellation: the
// context is observed at morsel and task boundaries and between the blocks
// of a spilled bucket being read back. On cancellation — as on any other
// failure — all spill files are closed and removed before the call
// returns.
func AggregateExternalContext(ctx context.Context, in Input, opt Options, ext ExternalOptions) (*ExternalResult, error) {
	specs, err := aggSpecs(in.Aggregates)
	if err != nil {
		return nil, err
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"MemoryBudgetRows", int64(ext.MemoryBudgetRows)},
		{"MemoryBudgetBytes", ext.MemoryBudgetBytes},
		{"MaxSpillBytes", ext.MaxSpillBytes},
		{"MergeWorkers", int64(ext.MergeWorkers)},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("cacheagg: %s is negative (%d); use 0 for the default", f.name, f.v)
		}
	}
	gov := memgov.New(ext.MemoryBudgetBytes)
	res, err := aggregate(ctx, in, specs, opt, gov, &core.Spill{Dir: ext.TempDir, MaxSpillBytes: ext.MaxSpillBytes})
	if err != nil {
		return nil, err
	}
	sp := res.states.Spill
	return &ExternalResult{
		Groups: res.Groups,
		Aggs:   res.Aggs,
		Stats: ExternalStats{
			Chunks:             1,
			SpilledRows:        sp.Rows,
			SpilledBytes:       sp.Bytes,
			MergeLevels:        sp.DeepestRead,
			CleanupFailures:    sp.CleanupFailures,
			SpillRetries:       sp.Retries,
			PeakReservedBytes:  gov.HighWater(),
			ResidentPartitions: sp.ResidentRoots,
			EvictedPartitions:  sp.Buckets,
		},
	}, nil
}
