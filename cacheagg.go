// Package cacheagg is a cache-efficient relational GROUP BY / aggregation
// library, implementing Müller, Sanders, Lacurie, Lehner and Färber:
// "Cache-Efficient Aggregation: Hashing Is Sorting" (SIGMOD 2015).
//
// The operator treats hashing and sorting as the same algorithm: both
// recursively partition the input by digits of the grouping key's hash
// until every partition's groups fit in cache. Two interchangeable routines
// process runs — HASHING (build a cache-sized hash table, split it into
// per-digit runs; enables early aggregation) and PARTITIONING (radix
// scatter; ~faster when early aggregation cannot reduce the data) — and
// the default ADAPTIVE strategy switches between them at run granularity
// based on the observed reduction factor α, with no optimizer estimate of
// the output cardinality needed.
//
// Quick start:
//
//	res, err := cacheagg.Aggregate(cacheagg.Input{
//		GroupBy: storeIDs,
//		Columns: [][]int64{revenue},
//		Aggregates: []cacheagg.AggSpec{
//			{Func: cacheagg.Count},
//			{Func: cacheagg.Sum, Col: 0},
//		},
//	}, cacheagg.Options{})
//
// The result holds one row per distinct group, ordered by hash value —
// "a hash table built with a sorting algorithm".
package cacheagg

import (
	"context"
	"fmt"

	"cacheagg/internal/agg"
	"cacheagg/internal/core"
	"cacheagg/internal/faultfs"
	"cacheagg/internal/memgov"
	"cacheagg/internal/trace"
)

// Func identifies an aggregate function.
type Func int

// Supported aggregate functions. All are distributive or algebraic
// (constant-size state); holistic aggregates like MEDIAN are out of scope,
// as in the paper.
const (
	// Count counts the rows of each group; it reads no input column.
	Count Func = iota
	// Sum computes the signed 64-bit sum (wrapping).
	Sum
	// Min computes the signed minimum.
	Min
	// Max computes the signed maximum.
	Max
	// Avg computes the arithmetic mean. Integer results are truncated;
	// use Result.Float to read exact averages.
	Avg
)

// String returns the SQL name of the function.
func (f Func) String() string { return f.kind().String() }

func (f Func) kind() agg.Kind {
	switch f {
	case Count:
		return agg.Count
	case Sum:
		return agg.Sum
	case Min:
		return agg.Min
	case Max:
		return agg.Max
	case Avg:
		return agg.Avg
	default:
		return agg.Kind(int(f)) // invalid; caught by Validate
	}
}

// AggSpec describes one aggregate output column: the function and the
// index of the input column it consumes (ignored for Count).
type AggSpec struct {
	Func Func
	Col  int
}

// Input is a column-store aggregation request: group the rows of GroupBy
// and evaluate every Aggregate over its input column.
type Input struct {
	// GroupBy is the grouping key column.
	GroupBy []uint64
	// Columns are the aggregate input columns (64-bit signed integers,
	// matching the paper's all-64-bit-integer datasets).
	Columns [][]int64
	// Aggregates lists the aggregate output columns to compute. Empty
	// computes the plain distinct groups (a DISTINCT query).
	Aggregates []AggSpec
}

// Strategy selects the routine-choice policy of the operator.
type Strategy struct {
	inner core.Strategy
}

// Name returns the strategy's display name.
func (s Strategy) Name() string {
	if s.inner == nil {
		return core.DefaultAdaptive().Name()
	}
	return s.inner.Name()
}

// AdaptiveStrategy returns the paper's ADAPTIVE strategy (Section 5) with
// the default constants α₀ = 11 and c = 10. It is the library default.
func AdaptiveStrategy() Strategy { return Strategy{core.DefaultAdaptive()} }

// AdaptiveStrategyTuned returns ADAPTIVE with explicit constants: the
// switching threshold alpha0 (hashing continues while the observed
// reduction factor stays above it) and the amortization constant c
// (partitioning runs for c·cacheRows rows before hashing is probed again).
// alpha0 ≤ 0 selects 11 and c < 0 selects 10. c = 0 probes hashing again
// at once after every switch, so it behaves exactly like HashingOnlyStrategy.
func AdaptiveStrategyTuned(alpha0 float64, c int) Strategy {
	return Strategy{core.Adaptive(alpha0, c)}
}

// HashingOnlyStrategy always uses the HASHING routine (Figure 4(a)).
func HashingOnlyStrategy() Strategy { return Strategy{core.HashingOnly()} }

// PartitionAlwaysStrategy partitions for the first `passes` levels and
// finishes each bucket with one final pass, a sort whose scratch may
// exceed the cache (Figure 4(b,c)). passes must be ≥ 1.
func PartitionAlwaysStrategy(passes int) Strategy { return Strategy{core.PartitionAlways(passes)} }

// PartitionOnlyStrategy always partitions; leaves are finalized by the
// framework's in-cache sort-and-fold pass (Appendix A.1).
func PartitionOnlyStrategy() Strategy { return Strategy{core.PartitionOnly()} }

// Routine is ignored.
//
// Deprecated: there is one engine and nothing to choose; whether a run
// spills follows from MemoryBudgetBytes. It will be removed.
type Routine int

// RoutineAuto is the zero Routine.
//
// Deprecated: see Routine.
const RoutineAuto Routine = 0

// Options tunes an execution. The zero value is a sensible default:
// adaptive strategy, GOMAXPROCS workers, 4 MiB cache budget.
type Options struct {
	// Strategy selects the routine-choice policy; zero value = adaptive.
	Strategy Strategy
	// Workers is the thread count; 0 = GOMAXPROCS.
	Workers int
	// CacheBytes is the per-worker cache budget sizing the hash tables;
	// 0 = 4 MiB. Set this to your CPU's per-core L3 share for best
	// fidelity to the paper's tuning.
	CacheBytes int
	// MemoryBudgetBytes caps the total bytes of intermediate state the
	// aggregation may hold in memory (0 = unlimited); the result itself is
	// the caller's memory. The budget is enforced by a byte-accurate
	// governor, and the run is sized to it (fewer workers and smaller
	// caches when it is tight). When the working set would exceed it, the
	// operator spills its largest buckets of partial aggregates to the
	// system temp directory and reads them back with bounded memory,
	// instead of growing without bound. The groups are identical either
	// way; whether spilling happened is reported in
	// Stats.DegradedToExternal, and a run that spilled returns them in
	// total hash order. Budgets too small for even one worker's fixed
	// machinery (hash table, scratch, write-combining buffers — roughly a
	// MiB) fail with an error that wraps ErrMemoryBudget.
	MemoryBudgetBytes int64
	// EnablePlan is ignored.
	//
	// Deprecated: it has no effect and will be removed.
	EnablePlan bool
	// CollectStats adds the per-level breakdown (Stats.LevelNanos and
	// Stats.LevelRows) to the result; the counts of Stats are filled
	// either way.
	CollectStats bool
	// Tracer, when non-nil, records execution events (strategy switches,
	// table splits, spill and merge traffic, memory high-water samples)
	// and populates Result.Phases. The nil default costs one branch per
	// block of rows on the hot path — see docs/OBSERVABILITY.md.
	Tracer *Tracer
	// Routine is ignored.
	//
	// Deprecated: see Routine.
	Routine Routine
	// Interner, when non-nil, is a shared key dictionary AggregateGeneral
	// adds every distinct key of its result to, so the dictionary holds
	// every key seen and its dense ids stay comparable across calls. Nil
	// builds no dictionary: the query path groups by first occurrence
	// either way. Ignored by uint64-keyed Aggregate.
	Interner *Interner
}

// ErrMemoryBudget is wrapped by errors reporting that MemoryBudgetBytes is
// too small to run at all: smaller than the machinery no spill can free
// (one worker's tables, scratch and write-combining buffers). Budgets that
// are merely smaller than the working set do not produce it — they spill
// and succeed.
var ErrMemoryBudget = core.ErrMemoryBudget

// Stats describes what an execution did. See the fields of the same names
// in the paper's figures: Passes and LevelNanos back the pass-breakdown
// plots, HashedRows/PartitionedRows and Switches show the adaptive
// behaviour.
type Stats struct {
	// Passes is the number of recursion levels that processed rows.
	Passes int
	// LevelNanos is total worker time per level (index = level); nil
	// unless Options.CollectStats was set.
	LevelNanos []int64
	// LevelRows is rows processed per level; nil unless
	// Options.CollectStats was set.
	LevelRows []int64
	// HashedRows is the number of rows routed through the HASHING routine.
	HashedRows int64
	// PartitionedRows is the number routed through PARTITIONING.
	PartitionedRows int64
	// TablesEmitted is the number of hash tables that filled and split.
	TablesEmitted int64
	// MeanAlpha is the mean reduction factor of emitted tables.
	MeanAlpha float64
	// Switches counts strategy mode changes.
	Switches int64
	// DirectEmits counts buckets finalized by one fused hashing pass,
	// including the intake's when its tables hold every group.
	DirectEmits int64

	// Planned is always false.
	//
	// Deprecated: it has no effect and will be removed.
	Planned bool
	// PlanNanos is always zero.
	//
	// Deprecated: it has no effect and will be removed.
	PlanNanos int64
	// PlanEstimatedK is always zero.
	//
	// Deprecated: it has no effect and will be removed.
	PlanEstimatedK float64
	// HotRowsBypassed is always zero.
	//
	// Deprecated: it has no effect and will be removed.
	HotRowsBypassed int64

	// The memory-governor fields below are populated whenever
	// Options.MemoryBudgetBytes was set, independent of CollectStats.

	// PeakReservedBytes is the governor's high-water mark: the largest
	// byte footprint the execution registered at any point.
	PeakReservedBytes int64
	// DegradedToExternal reports that the working set exceeded
	// MemoryBudgetBytes and the run spilled to disk.
	DegradedToExternal bool
	// SpillRetries counts transient spill-I/O faults absorbed by the
	// retry layer during a run that spilled.
	SpillRetries int64

	// The general-key fields below are populated by AggregateGeneral
	// independent of CollectStats; uint64-keyed calls leave them zero.

	// InternedKeys is the shared Options.Interner's distinct-key count
	// after the call (cumulative), or the call's distinct-key count
	// without one.
	InternedKeys int64
	// InternBytes is the total encoded size of the shared dictionary's
	// keys, or without one the size the call's distinct keys encode to.
	InternBytes int64
	// EncodeNanos is the wall time of the first-occurrence dedupe that
	// reduces the general keys to uint64 ids.
	EncodeNanos int64
}

// Result is the aggregation output: row r describes one group.
type Result struct {
	// Groups holds the distinct grouping keys, ordered by hash.
	Groups []uint64
	// Aggs holds one output column per requested Aggregate (Avg rows are
	// truncated toward zero; see Float).
	Aggs [][]int64
	// Stats describes the execution: its counts always, its per-level
	// slices only when Options.CollectStats was set.
	Stats Stats
	// Phases is the per-phase time breakdown of this call, populated when
	// Options.Tracer was set. See the Phases type for the wall-time vs
	// summed-worker-time semantics of each field.
	Phases Phases

	specs  []AggSpec
	hashes []uint64
	states *core.Result
}

// Len returns the number of groups.
func (r *Result) Len() int { return len(r.Groups) }

// Float returns aggregate column a of row (group) idx as a float64 — the
// exact value for Avg, the widened integer otherwise.
func (r *Result) Float(a, idx int) float64 {
	return r.states.Float(a, idx)
}

// Hashes returns the hash digests of the groups (ascending bucket order),
// exposing the "sorted by hash value" structure of the output.
func (r *Result) Hashes() []uint64 { return r.hashes }

// Index builds a map from group key to result row, for point lookups into
// the result. The map is built on demand; for one or two lookups prefer
// scanning Groups directly.
func (r *Result) Index() map[uint64]int {
	idx := make(map[uint64]int, len(r.Groups))
	for i, g := range r.Groups {
		idx[g] = i
	}
	return idx
}

func errInvalidFunc(f int) error {
	return fmt.Errorf("cacheagg: invalid aggregate function %d", f)
}

// aggSpecs converts the requested aggregates to the operator's specs.
func aggSpecs(aggs []AggSpec) ([]agg.Spec, error) {
	specs := make([]agg.Spec, len(aggs))
	for i, a := range aggs {
		if a.Func < Count || a.Func > Avg {
			return nil, errInvalidFunc(int(a.Func))
		}
		specs[i] = agg.Spec{Kind: a.Func.kind(), Col: a.Col}
	}
	return specs, nil
}

// Aggregate executes the GROUP BY described by in.
func Aggregate(in Input, opt Options) (*Result, error) {
	return AggregateContext(context.Background(), in, opt)
}

// AggregateContext executes the GROUP BY with cancellation support. The
// cancel signal is threaded through the scheduler: workers observe it at
// morsel and task boundaries, so the call returns ctx.Err() within roughly
// one morsel of work per worker. An already cancelled context returns
// before any work is done. A panic inside the execution (a worker task or
// the orchestration around it) is contained and returned as an error — the
// process survives and all workers exit.
func AggregateContext(ctx context.Context, in Input, opt Options) (*Result, error) {
	specs, err := aggSpecs(in.Aggregates)
	if err != nil {
		return nil, err
	}
	if opt.MemoryBudgetBytes < 0 {
		return nil, fmt.Errorf("cacheagg: negative MemoryBudgetBytes %d", opt.MemoryBudgetBytes)
	}
	if opt.MemoryBudgetBytes == 0 {
		return aggregate(ctx, in, specs, opt, nil, nil)
	}
	// A budget runs with a spill target in the system temp directory.
	return aggregate(ctx, in, specs, opt, memgov.New(opt.MemoryBudgetBytes), &core.Spill{})
}

// aggregate runs the query on the operator: gov, when non-nil, is its
// memory governor, and spill, when non-nil, its spill target, whose I/O
// goes through the test hooks. Without a byte budget a spill target takes
// every level-0 bucket.
func aggregate(ctx context.Context, in Input, specs []agg.Spec, opt Options, gov *memgov.Governor, spill *core.Spill) (*Result, error) {
	cfg := core.Config{
		Strategy:     opt.Strategy.inner,
		Workers:      opt.Workers,
		CacheBytes:   opt.CacheBytes,
		CollectStats: opt.CollectStats,
		Governor:     gov,
		Spill:        spill,
	}
	if spill != nil {
		spill.FS, spill.Retry = testHookSpillFS, testHookSpillRetry
	}
	var pre trace.Snapshot
	if t := opt.Tracer; t != nil {
		pre = t.rec.Snapshot()
		cfg.Tracer = t.rec
	}
	cres, err := core.AggregateContext(ctx, cfg, &core.Input{
		Keys:    in.GroupBy,
		AggCols: in.Columns,
		Specs:   specs,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Groups: cres.Keys,
		Aggs:   cres.Aggs,
		specs:  in.Aggregates,
		hashes: cres.Hashes,
		states: cres,
	}
	st := cres.Stats
	res.Stats = Stats{
		Passes:          st.Passes,
		HashedRows:      st.HashedRows,
		PartitionedRows: st.PartitionedRows,
		TablesEmitted:   st.TablesEmitted,
		Switches:        st.Switches,
		DirectEmits:     st.DirectEmits,
	}
	if st.TablesEmitted > 0 {
		res.Stats.MeanAlpha = st.AlphaSum / float64(st.TablesEmitted)
	}
	if opt.CollectStats {
		res.Stats.LevelNanos = append([]int64(nil), st.LevelNanos[:st.Passes]...)
		res.Stats.LevelRows = append([]int64(nil), st.LevelRows[:st.Passes]...)
	}
	if gov != nil {
		res.Stats.PeakReservedBytes = gov.HighWater()
		if sp := cres.Spill; sp.Buckets > 0 {
			res.Stats.DegradedToExternal = true
			res.Stats.SpillRetries = sp.Retries
		}
	}
	if opt.Tracer != nil {
		res.Phases = opt.Tracer.phasesSince(pre)
	}
	return res, nil
}

// Test hooks: the spill I/O of a budgeted run goes through testHookSpillFS
// when set, with testHookSpillRetry as the retry policy. Both are zero in
// production; root tests use them to inject spill faults through the
// public API.
var (
	testHookSpillFS    faultfs.FS
	testHookSpillRetry faultfs.RetryPolicy
)

// Distinct returns the distinct keys of the column, ordered by hash value.
func Distinct(keys []uint64, opt Options) ([]uint64, error) {
	res, err := Aggregate(Input{GroupBy: keys}, opt)
	if err != nil {
		return nil, err
	}
	return res.Groups, nil
}

// GroupCount computes COUNT(*) per distinct key — the most common
// aggregation query, offered as a convenience.
func GroupCount(keys []uint64, opt Options) (groups []uint64, counts []int64, err error) {
	res, err := Aggregate(Input{
		GroupBy:    keys,
		Aggregates: []AggSpec{{Func: Count}},
	}, opt)
	if err != nil {
		return nil, nil, err
	}
	return res.Groups, res.Aggs[0], nil
}
