// Package core implements the paper's aggregation operator: the algorithmic
// framework of Section 3 (mixing the HASHING and PARTITIONING routines over
// recursive runs), the tuned routines of Section 4 (via internal/hashtable
// and internal/partition), and the locality-adaptive strategy of Section 5.
//
// Execution outline (Algorithm 2 of the paper):
//
//  1. Intake: the input columns are consumed morsel-wise by all workers in
//     parallel (work stealing over an atomic morsel counter; the pool is
//     only as wide as there are morsels). Each worker runs the strategy's
//     per-run decision loop into a hash table sized to the input, producing
//     level-0 runs grouped into 256 buckets by the most significant hash
//     digit. Rows get their 64-bit MurmurHash2 digest here, once — tables
//     and runs keep the hash in place of the key (Murmur2 on a uint64 is
//     a bijection), later passes read it from the run, and emitting a
//     group recovers its key — and their aggregate states are initialized
//     (so all deeper merges uniformly use super-aggregate functions). One
//     growth rule holds for every table: a short count below the cache
//     size doubles the table, and only a cache-sized table that fills is a
//     fill event, split into runs. When no worker split a table or
//     scattered a row, and the run has no spill target, the intake tables
//     hold the final aggregates: they are emitted directly, through the
//     largest one when several workers took rows and merging the others
//     into it never filled it at the cache size — the fused final pass of
//     Section 2.1 at intake — and there is no step 2.
//  2. Recursion: every non-empty bucket becomes an independent task for the
//     work-stealing pool. A task processes its bucket's runs at level d —
//     again choosing HASHING or PARTITIONING per run — and either emits the
//     final aggregates directly (when one hash table absorbed the entire
//     bucket without filling: the fused final pass of Section 2.1) or
//     spawns child tasks for the 256 sub-buckets at level d+1. Every other
//     final pass sorts: a bucket that fits a cache-sized table's fill, or
//     a fixed-pass strategy's last, is put in hash order and equal hashes
//     are folded; one past the last digit holds one group, folded in place.
//  3. Assembly: the chunks are ordered by hash prefix, and each is
//     finalized in parallel into its range of the result — the output is
//     "a hash table like HASHAGGREGATION would produce, but built with a
//     sorting algorithm" (Section 3.1).
//
// With a spill target (Config.Spill), the same executor is the disk level
// of the model too: over its memory budget it spills buckets to files and
// reads them back in phase 2 (see spill.go).
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/memgov"
	"cacheagg/internal/runs"
	"cacheagg/internal/sched"
	"cacheagg/internal/trace"
)

// ErrMemoryBudget marks a run aborted because the Config.Governor byte
// budget was exceeded: without a spill target, or at the floor of one.
// Matched with errors.Is (it is memgov.ErrBudget).
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
	// ChunkRows is the run chunk size; 0 selects runs.DefaultChunkRows.
	ChunkRows int
	// MorselRows is the intake work-stealing grain; 0 selects
	// sched.DefaultGrain.
	MorselRows int
	// CollectStats times every level into Stats.LevelNanos (a clock read
	// per morsel and per bucket). The counts of Stats are filled either
	// way.
	CollectStats bool
	// Governor, when non-nil, is the memory accountant the execution
	// registers its footprint with: worker machinery at start, and
	// materialized intermediate runs as they are produced (released when
	// consumed). The output is the caller's memory and is not charged.
	// When the governor has a budget and it is exceeded, the run spills
	// (see Spill) or, without a spill target, aborts with an error
	// wrapping ErrMemoryBudget instead of growing without bound. Workers
	// check the budget at morsel and task boundaries, so the overshoot is
	// bounded by one morsel of production per worker.
	Governor *memgov.Governor
	// Spill, when non-nil, is the run's spill target. A governed run
	// that goes over budget then spills the largest bucket the worker
	// that sees it owns to a file and reads it back a block at a time when
	// the bucket's task runs; it fails typed only when nothing is left to
	// spill and the machinery alone exceeds the budget. With a byte budget
	// the run is first sized to it (fewer workers, smaller caches; see
	// sizeForSpill). Without a byte budget (a nil governor or one whose
	// Budget is 0) nothing would ever press the run to spill, so every
	// non-empty level-0 bucket goes to the spill target at the end of
	// intake. A run that spilled returns its groups in total hash order.
	Spill *Spill
	// Tracer, when non-nil, receives execution events (strategy switches,
	// table splits/emits) and per-phase timings. The absent-tracer fast
	// path is one nil-check per block of rows; leave nil (the untyped nil
	// interface, not a typed nil pointer) when not observing.
	Tracer trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Strategy == nil {
		c.Strategy = DefaultAdaptive()
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = DefaultCacheBytes
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
func (in *Input) Validate() error { return in.validate(agg.NewLayout(in.Specs)) }

// validate is Validate against the input's layout, built once per run.
func (in *Input) validate(lay *agg.Layout) error {
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
// (the concatenation of the final runs). Every column holds exactly
// Groups() rows, at length and capacity.
type Result struct {
	// Keys holds the group keys.
	Keys []uint64
	// Hashes holds the corresponding hash digests (ascending bucket order).
	Hashes []uint64
	// Aggs holds one finalized column per input spec (AVG truncated).
	Aggs [][]int64
	// AggsFloat holds the exact float64 column of each AVG spec and nil
	// for every other spec, whose float value is its Aggs value widened;
	// read floats through Float.
	AggsFloat [][]float64
	// Stats holds execution statistics: LevelNanos only with
	// CollectStats, every count always.
	Stats Stats
	// Spill reports the spill tier's work (populated with Config.Spill).
	Spill SpillStats
}

// Groups returns the number of groups in the result.
func (r *Result) Groups() int { return len(r.Keys) }

// Float returns spec a of the given row as a float64: the exact quotient for
// AVG, the widened integer otherwise.
func (r *Result) Float(a, row int) float64 {
	if f := r.AggsFloat[a]; f != nil {
		return f[row]
	}
	return float64(r.Aggs[a][row])
}

// MaxPasses is the deepest possible recursion: one level per radix-256
// digit of the 64-bit hash, plus one pseudo-level for the one-group fold of
// a bucket past the last digit.
const MaxPasses = hashfn.MaxLevels + 1

// Stats reports what the execution did, mirroring the measurements behind
// the paper's figures: per-pass work time (Figures 4, 5), rows routed
// through each routine, tables emitted with their reduction factors, and
// strategy switches (Figure 9's solid markers).
type Stats struct {
	// LevelNanos is the total worker time spent processing each level;
	// zero unless Config.CollectStats is set.
	LevelNanos [MaxPasses]int64
	// LevelRows counts rows processed (moved or aggregated) per level.
	LevelRows [MaxPasses]int64
	// HashedRows and PartitionedRows count rows routed through each
	// routine (intake and recursion combined). A leaf's rows count as
	// hashed: its sort is the fused final pass that a table made before.
	HashedRows      int64
	PartitionedRows int64
	// TablesEmitted counts cache-sized hash tables that filled up and were
	// split; a smaller table that stops short grows instead.
	TablesEmitted int64
	// AlphaSum accumulates the reduction factors of emitted tables;
	// AlphaSum/TablesEmitted is the mean observed α.
	AlphaSum float64
	// Switches counts strategy mode changes.
	Switches int64
	// DirectEmits counts buckets finalized by a single fused final pass —
	// a table's, a sort's or a one-group fold — including the intake's when
	// its tables hold every group.
	DirectEmits int64
	// Tasks counts bucket tasks executed (including intake tasks).
	Tasks int64
	// Passes is the deepest level that processed any rows, plus one.
	Passes int
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
}

// chunk is one finalized output fragment: all groups of one bucket, tagged
// with the bucket's hash prefix for ordered assembly.
type chunk struct {
	sortKey uint64 // bucket prefix left-aligned to 64 bits
	hashes  []uint64
	keys    []uint64
	states  [][]uint64 // packed state columns, finalized at assembly
	ordered bool       // rows already in hash order (sorted or one row)
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// newExec validates the input against the layout it builds.
	e, err := newExec(ctx, cfg, in)
	if err != nil {
		return nil, err
	}
	// Whatever happens, hand the reservations back: the run is over, and a
	// governor shared across runs must not accumulate dead bookkeeping.
	defer e.releaseAccounting()
	defer e.spill.close()
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	if res, err = e.assemble(ctx); err != nil {
		return nil, err
	}
	if e.spill != nil {
		res.Spill = e.spill.result()
	}
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

// assemble sorts the finalized chunks by bucket prefix and finalizes each
// into its prefix-ordered range of a result allocated at exact size: one
// pool task per chunk, run inline when the pool has one worker or there is
// at most one chunk. A task gives its chunk's columns to the free list of
// the worker running it. A run that spilled (or, without a byte budget,
// was set to spill everything) orders the rows of each chunk by hash too,
// so its result is in total hash order. A cancelled context returns
// ctx.Err().
func (e *exec) assemble(ctx context.Context) (*Result, error) {
	// The pool has quiesced: the spill counters need no lock.
	sortSpill := e.spill != nil && (e.spill.forced || e.spill.stats.Buckets > 0)
	chunks := e.out.chunks
	slices.SortFunc(chunks, func(a, b chunk) int { return cmp.Compare(a.sortKey, b.sortKey) })

	n := e.out.groups
	res := &Result{
		Keys:      make([]uint64, n),
		Hashes:    make([]uint64, n),
		Aggs:      make([][]int64, len(e.layout.Specs)),
		AggsFloat: make([][]float64, len(e.layout.Specs)),
	}
	for si, sp := range e.layout.Specs {
		res.Aggs[si] = make([]int64, n)
		if sp.Kind == agg.Avg {
			res.AggsFloat[si] = make([]float64, n)
		}
	}
	if e.pool.Workers() == 1 || len(chunks) <= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		off := 0
		for i := range chunks {
			e.finalizeChunk(e.workers[0].free, res, &chunks[i], off, sortSpill)
			off += len(chunks[i].keys)
		}
	} else if err := e.pool.RunContext(ctx, func(ctx *sched.Ctx) {
		offs := make([]int, len(chunks))
		for i, off := 0, 0; i < len(chunks); i++ {
			offs[i] = off
			off += len(chunks[i].keys)
		}
		// Each task claims the next chunk, so one closure serves them all.
		var next atomic.Int64
		task := func(c *sched.Ctx) {
			i := next.Add(1) - 1
			e.finalizeChunk(e.workers[c.Worker].free, res, &chunks[i], offs[i], sortSpill)
		}
		for range chunks {
			ctx.Spawn(task)
		}
	}); err != nil {
		return nil, err
	}
	for w := range e.workers {
		res.Stats.merge(&e.workers[w].stats)
	}
	for lvl := MaxPasses - 1; lvl >= 0; lvl-- {
		if res.Stats.LevelRows[lvl] > 0 {
			res.Stats.Passes = lvl + 1
			break
		}
	}
	return res, nil
}

// finalizeChunk writes chunk ch into rows [off, off+len) of res, ordered
// by hash when sorted is set, and gives its columns to free. A sort leaf's
// chunk is in hash order already. The rows of any other chunk share its
// bucket's prefix, so hashfn.Order's counting pass orders them on the
// next digits; the keys and hashes are gathered through that permutation
// straight into res, the state columns into columns from free.
func (e *exec) finalizeChunk(free *runs.Free, res *Result, ch *chunk, off int, sorted bool) {
	end := off + len(ch.keys)
	if sorted && !ch.ordered {
		ord := make([]int32, end-off)
		hashfn.Order(ch.hashes, ord)
		hashfn.Gather(res.Keys[off:end], ch.keys, ord)
		hashfn.Gather(res.Hashes[off:end], ch.hashes, ord)
		for w, col := range ch.states {
			ch.states[w] = free.Col(len(ord))
			hashfn.Gather(ch.states[w], col, ord)
			free.Put(col)
		}
	} else {
		copy(res.Keys[off:end], ch.keys)
		copy(res.Hashes[off:end], ch.hashes)
	}
	for si, sp := range e.layout.Specs {
		var floats []float64
		if f := res.AggsFloat[si]; f != nil {
			floats = f[off:end]
		}
		so := e.layout.Offsets[si]
		sp.Kind.FinalizeColumn(res.Aggs[si][off:end], floats, ch.states[so:so+sp.Kind.Width()])
	}
	free.Put(ch.hashes)
	free.Put(ch.keys)
	for _, col := range ch.states {
		free.Put(col)
	}
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
