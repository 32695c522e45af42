// Package core implements the paper's aggregation operator: the algorithmic
// framework of Section 3 (mixing the HASHING and PARTITIONING routines over
// recursive runs), the tuned routines of Section 4 (via internal/hashtable
// and internal/partition), and the locality-adaptive strategy of Section 5.
//
// Execution outline (Algorithm 2 of the paper):
//
//  1. Intake: the input columns are consumed morsel-wise by all workers in
//     parallel (work stealing over an atomic morsel counter). Each worker
//     runs the strategy's per-run decision loop, producing level-0 runs
//     grouped into 256 buckets by the most significant hash digit. Rows get
//     their 64-bit MurmurHash2 digest here, carried through all later
//     levels, and their aggregate states are initialized (so all deeper
//     merges uniformly use super-aggregate functions).
//  2. Recursion: every non-empty bucket becomes an independent task for the
//     work-stealing pool. A task processes its bucket's runs at level d —
//     again choosing HASHING or PARTITIONING per run — and either emits the
//     final aggregates directly (when one hash table absorbed the entire
//     bucket without filling: the fused final pass of Section 2.1) or
//     spawns child tasks for the 256 sub-buckets at level d+1.
//  3. Assembly: finalized chunks are concatenated in hash order — the
//     output is "a hash table like HASHAGGREGATION would produce, but built
//     with a sorting algorithm" (Section 3.1).
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/memgov"
	"cacheagg/internal/trace"
)

// ErrMemoryBudget marks a run aborted because the Config.Governor byte
// budget was exceeded. It is the signal on which callers degrade to the
// out-of-core path; matched with errors.Is (it is memgov.ErrBudget).
var ErrMemoryBudget = memgov.ErrBudget

// DefaultCacheBytes is the default per-worker cache budget for hash tables.
// The paper's machine has 3 MB of L3 per core; 4 MiB is a comparable
// present-day default. Experiments override it to provoke recursion at
// laptop scale.
const DefaultCacheBytes = 4 << 20

// Config configures one aggregation execution.
type Config struct {
	// Strategy picks the routine per run; nil selects DefaultAdaptive().
	Strategy Strategy
	// Workers is the parallelism; 0 selects GOMAXPROCS.
	Workers int
	// CacheBytes is the per-worker cache budget that sizes hash tables
	// (and thereby all recursion thresholds); 0 selects DefaultCacheBytes.
	CacheBytes int
	// MaxFill is the hash-table fill limit; 0 selects the paper's 0.25.
	MaxFill float64
	// ChunkRows is the run chunk size; 0 selects runs.DefaultChunkRows.
	ChunkRows int
	// MorselRows is the intake work-stealing grain; 0 selects
	// sched.DefaultGrain.
	MorselRows int
	// CollectStats enables per-level timing and decision statistics
	// (small overhead; benchmarks that only need totals leave it off).
	CollectStats bool
	// CarryHashes stores the 64-bit hash of every row in the intermediate
	// runs instead of recomputing it from the key at every pass. The
	// paper's layout is recompute (the default, false): MurmurHash2 costs
	// about a nanosecond while a carried hash costs 8 bytes of memory
	// traffic per row per pass in each direction. Carrying is kept as an
	// ablation switch for the hash-storage design choice.
	CarryHashes bool
	// Governor, when non-nil, is the memory accountant the execution
	// registers its footprint with: worker machinery at start, materialized
	// intermediate runs as they are produced (released when consumed), and
	// output chunks. When the governor has a budget and it is exceeded, the
	// run aborts with an error wrapping ErrMemoryBudget instead of growing
	// without bound — the caller degrades to the spilling path. Workers
	// check the budget at morsel and task boundaries, so the overshoot is
	// bounded by one morsel of production per worker.
	Governor *memgov.Governor
	// Tracer, when non-nil, receives execution events (strategy switches,
	// table splits/emits) and per-phase timings. The absent-tracer fast
	// path is one nil-check per block of rows; leave nil (the untyped nil
	// interface, not a typed nil pointer) when not observing.
	Tracer trace.Tracer
	// EnablePlan runs the sketch-guided planning pass before execution: a
	// bounded prefix sample feeds HyperLogLog + Count-Min sketches whose
	// estimates pick the initial routine, pre-size the worker hash
	// tables, and select heavy-hitter keys for the scalar bypass (see
	// plan.go). Results are bit-identical with planning on or off; the
	// plan only changes how fast they are produced.
	EnablePlan bool
	// Plan, when non-nil, is used instead of building one (and implies
	// EnablePlan). Exposed so tests can inject arbitrary — including
	// deliberately corrupt — plans and pin that execution stays correct.
	Plan *Plan
	// Routine overrides the routine selection (see Routine). The zero
	// value, RoutineAuto, selects from the plan's K̂ estimate.
	Routine Routine
}

func (c Config) withDefaults() Config {
	if c.Strategy == nil {
		c.Strategy = DefaultAdaptive()
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.MaxFill <= 0 {
		c.MaxFill = hashtable.DefaultMaxFill
	}
	return c
}

// Input is the operator's column-store input: one grouping column and any
// number of aggregate input columns, all of equal length.
type Input struct {
	// Keys is the grouping column.
	Keys []uint64
	// AggCols are the aggregate input columns referenced by Specs.
	AggCols [][]int64
	// Specs are the aggregate functions to compute per group.
	Specs []agg.Spec
}

// Validate checks the structural invariants of the input.
func (in *Input) Validate() error {
	lay := agg.NewLayout(in.Specs)
	if maxCol := lay.MaxInputCol(); maxCol >= len(in.AggCols) {
		return fmt.Errorf("core: spec references input column %d but only %d columns given",
			maxCol, len(in.AggCols))
	}
	for i, col := range in.AggCols {
		if len(col) != len(in.Keys) {
			return fmt.Errorf("core: aggregate column %d has %d rows, keys have %d",
				i, len(col), len(in.Keys))
		}
	}
	return nil
}

// Result is the operator's output: one row per group, ordered by hash value
// (the concatenation of the final runs).
type Result struct {
	// Keys holds the group keys.
	Keys []uint64
	// Hashes holds the corresponding hash digests (ascending bucket order).
	Hashes []uint64
	// Aggs holds one finalized column per input spec.
	Aggs [][]int64
	// AggsFloat holds the same columns finalized as float64 (exact for
	// AVG, widened integers otherwise).
	AggsFloat [][]float64
	// Stats holds execution statistics (populated when CollectStats).
	Stats Stats
}

// Groups returns the number of groups in the result.
func (r *Result) Groups() int { return len(r.Keys) }

// MaxPasses is the deepest possible recursion: one level per radix-256
// digit of the 64-bit hash, plus one pseudo-level for forced finalization.
const MaxPasses = hashfn.MaxLevels + 1

// Stats reports what the execution did, mirroring the measurements behind
// the paper's figures: per-pass work time (Figures 4, 5), rows routed
// through each routine, tables emitted with their reduction factors, and
// strategy switches (Figure 9's solid markers).
type Stats struct {
	// LevelNanos is the total worker time spent processing each level.
	LevelNanos [MaxPasses]int64
	// LevelRows counts rows processed (moved or aggregated) per level.
	LevelRows [MaxPasses]int64
	// HashedRows and PartitionedRows count rows routed through each
	// routine (intake and recursion combined).
	HashedRows      int64
	PartitionedRows int64
	// TablesEmitted counts hash tables that filled up and were split.
	TablesEmitted int64
	// AlphaSum accumulates the reduction factors of emitted tables;
	// AlphaSum/TablesEmitted is the mean observed α.
	AlphaSum float64
	// Switches counts strategy mode changes.
	Switches int64
	// DirectEmits counts buckets finalized by a single fused hashing pass.
	DirectEmits int64
	// Tasks counts bucket tasks executed (including intake tasks).
	Tasks int64
	// Passes is the deepest level that processed any rows, plus one.
	Passes int

	// Planned reports that a sketch plan was in effect; the fields below
	// echo its inputs and decisions (see Plan).
	Planned bool
	// PlanSampleRows is the number of rows the sketch pass sampled.
	PlanSampleRows int64
	// PlanEstimatedK is the HLL distinct-group estimate.
	PlanEstimatedK float64
	// PlanHotKeys is the size of the heavy-hitter bypass set.
	PlanHotKeys int64
	// PlanHotMass is the sampled row fraction attributed to the bypass set.
	PlanHotMass float64
	// PlanStartPartition reports that intake started in partitioning mode.
	PlanStartPartition bool
	// PlanTableRows is the pre-sized worker-table capacity (0 when the
	// cache-sized default was kept).
	PlanTableRows int64
	// PlanNanos is the wall time of the planning pass.
	PlanNanos int64
	// HotRowsBypassed counts input rows folded into hot-key scalar
	// accumulators instead of the hash path.
	HotRowsBypassed int64

	// Routine is the execution routine the run committed to.
	Routine Routine
}

func (s *Stats) merge(o *workerStats) {
	for i := range s.LevelNanos {
		s.LevelNanos[i] += o.levelNanos[i]
		s.LevelRows[i] += o.levelRows[i]
	}
	s.HashedRows += o.hashedRows
	s.PartitionedRows += o.partitionedRows
	s.TablesEmitted += o.tablesEmitted
	s.AlphaSum += o.alphaSum
	s.Switches += o.switches
	s.DirectEmits += o.directEmits
	s.Tasks += o.tasks
	s.HotRowsBypassed += o.hotRows
}

// workerStats is the per-worker, contention-free statistics accumulator.
type workerStats struct {
	levelNanos      [MaxPasses]int64
	levelRows       [MaxPasses]int64
	hashedRows      int64
	partitionedRows int64
	tablesEmitted   int64
	alphaSum        float64
	switches        int64
	directEmits     int64
	tasks           int64
	hotRows         int64
}

// chunk is one finalized output fragment: all groups of one bucket, tagged
// with the bucket's hash prefix for ordered assembly.
type chunk struct {
	sortKey uint64 // bucket prefix left-aligned to 64 bits
	worker  int    // the emitting worker, whose free list takes the columns back
	hashes  []uint64
	keys    []uint64
	states  [][]uint64 // packed state columns, finalized at assembly
}

// collector gathers finalized chunks from concurrent tasks.
type collector struct {
	mu     sync.Mutex
	chunks []chunk
	groups int
}

func (c *collector) add(ch chunk) {
	c.mu.Lock()
	c.chunks = append(c.chunks, ch)
	c.groups += len(ch.keys)
	c.mu.Unlock()
}

// Aggregate executes the operator over the input.
func Aggregate(cfg Config, in *Input) (*Result, error) {
	return AggregateContext(context.Background(), cfg, in)
}

// AggregateContext is Aggregate with cancellation: the cancel signal is
// threaded through the scheduler, workers observe it at morsel and task
// boundaries, and the call returns ctx.Err() promptly. An already
// cancelled context returns before any work is done.
//
// The call is also hardened against panics anywhere in the execution —
// inside worker tasks (contained by the scheduler) or in the sequential
// orchestration around them — which are returned as errors instead of
// crashing the process.
func AggregateContext(ctx context.Context, cfg Config, in *Input) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: aggregation panicked: %v", r)
		}
	}()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.EnablePlan && cfg.Plan == nil {
		cfg.Plan = BuildPlan(cfg, in)
	}
	e, err := newExec(cfg, in)
	if err != nil {
		return nil, err
	}
	// Whatever happens, hand the reservations back: the run is over, and a
	// governor shared across runs must not accumulate dead bookkeeping.
	defer e.releaseAccounting()
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	res = e.assemble()
	e.recycle()
	return res, nil
}

// Distinct computes the distinct grouping keys of the column (a GROUP BY
// with no aggregates — the query class of the paper's Section 6.4
// comparison). The result rows are the distinct keys in hash order.
func Distinct(cfg Config, keys []uint64) (*Result, error) {
	return Aggregate(cfg, &Input{Keys: keys})
}

// DistinctContext is Distinct with cancellation (see AggregateContext).
func DistinctContext(ctx context.Context, cfg Config, keys []uint64) (*Result, error) {
	return AggregateContext(ctx, cfg, &Input{Keys: keys})
}

// assemble sorts the finalized chunks by bucket prefix and concatenates
// them into the final result, finalizing aggregate states column-wise. The
// result is a copy: each chunk's columns go back to its worker's free list.
func (e *exec) assemble() *Result {
	c := &e.out
	sort.Slice(c.chunks, func(i, j int) bool { return c.chunks[i].sortKey < c.chunks[j].sortKey })

	res := &Result{
		Keys:      make([]uint64, 0, c.groups),
		Hashes:    make([]uint64, 0, c.groups),
		Aggs:      make([][]int64, len(e.layout.Specs)),
		AggsFloat: make([][]float64, len(e.layout.Specs)),
	}
	for i := range res.Aggs {
		res.Aggs[i] = make([]int64, 0, c.groups)
		res.AggsFloat[i] = make([]float64, 0, c.groups)
	}
	scratch := make([]uint64, 2) // widest state is AVG's two words
	for _, ch := range c.chunks {
		res.Hashes = append(res.Hashes, ch.hashes...)
		res.Keys = append(res.Keys, ch.keys...)
		for si, sp := range e.layout.Specs {
			off := e.layout.Offsets[si]
			w := sp.Kind.Width()
			col := res.Aggs[si]
			fcol := res.AggsFloat[si]
			for r := 0; r < len(ch.keys); r++ {
				st := scratch[:w]
				for x := 0; x < w; x++ {
					st[x] = ch.states[off+x][r]
				}
				col = append(col, sp.Kind.FinalizeInt(st))
				fcol = append(fcol, sp.Kind.FinalizeFloat(st))
			}
			res.Aggs[si] = col
			res.AggsFloat[si] = fcol
		}
		free := e.workers[ch.worker].free
		free.Put(ch.hashes)
		free.Put(ch.keys)
		for _, col := range ch.states {
			free.Put(col)
		}
	}
	// Merge stats.
	if e.cfg.CollectStats {
		for w := range e.workers {
			res.Stats.merge(&e.workers[w].stats)
		}
		for lvl := MaxPasses - 1; lvl >= 0; lvl-- {
			if res.Stats.LevelRows[lvl] > 0 {
				res.Stats.Passes = lvl + 1
				break
			}
		}
		res.Stats.Routine = e.routine
		if p := e.plan; p != nil {
			res.Stats.Planned = true
			res.Stats.PlanSampleRows = int64(p.SampleRows)
			res.Stats.PlanEstimatedK = p.EstimatedK
			res.Stats.PlanHotKeys = int64(len(p.HotKeys))
			res.Stats.PlanHotMass = p.HotMass
			res.Stats.PlanStartPartition = p.StartPartition
			if e.tableRows != e.cacheRows {
				res.Stats.PlanTableRows = int64(e.tableRows)
			}
			res.Stats.PlanNanos = p.Nanos
		}
	}
	return res
}

// timed runs fn and charges its wall time to the given level of the
// worker's stats (no-op when stats are off).
func (e *exec) timed(ws *workerState, level int, fn func()) {
	if !e.cfg.CollectStats {
		fn()
		return
	}
	start := time.Now()
	fn()
	ws.stats.levelNanos[level] += time.Since(start).Nanoseconds()
}

// stamp starts a phase lap, returning the zero time when no tracer is
// installed — the nil fast path is this single branch.
func (e *exec) stamp() time.Time {
	if e.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// lap charges the time since t0 to phase p (no-op without a tracer).
func (e *exec) lap(t0 time.Time, p trace.Phase) {
	if e.tr == nil {
		return
	}
	e.tr.AddPhase(p, time.Since(t0).Nanoseconds())
}
