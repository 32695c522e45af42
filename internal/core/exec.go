package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/memgov"
	"cacheagg/internal/partition"
	"cacheagg/internal/runs"
	"cacheagg/internal/sched"
	"cacheagg/internal/trace"
)

// scratchRows is the block size of the intake loop: hashes and initial
// aggregate states of up to this many rows are materialized at a time
// before being handed to a routine. The block stays cache resident.
const scratchRows = 4096

// exec holds one execution's shared state.
type exec struct {
	cfg     Config
	in      *Input
	layout  *agg.Layout
	wordOps []agg.WordOp
	kern    *agg.Kernels // batch kernels, resolved once per run
	words   int

	cacheRows int // capacity of a cache-sized table
	finalRows int // its fill limit: the leaf threshold of the recursion
	tableRows int // worker-table capacity: cacheRows, or the plan's pre-size

	// Sketch plan (nil when planning is off). hot is the executor's
	// exact-match view of the plan's heavy-hitter keys; refCols lists the
	// input columns the aggregate layout actually reads (the only ones the
	// bypass compaction must copy).
	plan    *Plan
	hot     *hotSet
	refCols []int

	// Memory governance: interRow is the byte cost of one materialized
	// intermediate-run row, chunkRow of one output-chunk row. gov is nil
	// when no budget accounting was requested.
	gov        *memgov.Governor
	interRow   int64
	chunkRow   int64
	fixedBytes int64 // up-front reservation for per-worker machinery

	// tr is the optional execution tracer (nil when not observing).
	tr trace.Tracer

	// Routine selection (routine.go).
	routine      Routine
	routineAlpha float64 // the α that drove the selection (0 = no plan)

	pool    *sched.Pool
	morsels *sched.Morsels
	workers []workerState
	kits    kitKey // pool key of this execution's worker kits

	rootMu sync.Mutex
	root   [hashfn.Fanout]runs.Bucket

	out collector
}

// workerState is the per-worker reusable machinery: one cache-sized hash
// table, one scatterer (whose SWC buffers are reused across tasks), and the
// intake scratch blocks. Tasks on one worker never interleave, so no
// locking is needed — the paper's share-nothing design.
type workerState struct {
	// id is the worker's pool index, stamped on emitted trace events.
	id    int
	table *hashtable.Table
	// finalTables are reusable leaf-finalization tables, keyed by
	// capacity: a leaf bucket of n rows gets the smallest power-of-two
	// table ≥ 4n (capped at the cache size), so the post-aggregation
	// emit scan touches ~4 slots per row instead of the whole
	// cache-sized table for every small leaf.
	finalTables map[int]*hashtable.Table
	// grownTables are the finalizeGrown equivalent (fill 0.5, capacity
	// keyed): fixed-pass strategies finalize every one of the 256 buckets
	// through finalizeGrown, and a fresh table per bucket means zeroing
	// hundreds of MB per run. Tables up to a few cache sizes are retained;
	// genuinely oversized ones stay throwaway.
	grownTables map[int]*hashtable.Table
	scat        *partition.Scatterer
	// free is the worker's column free list: the scatterer's writers and
	// emitTable cut chunks from it, and consumed buckets and assembled
	// output chunks give their columns back.
	free *runs.Free

	hashScratch  []uint64
	stateScratch [][]uint64 // words × scratchRows, for intake partitioning
	stateViews   [][]uint64 // reusable column-view scratch
	rowScratch   []uint64   // one packed state row

	// mem is the worker's reservation cache against the shared governor
	// (nil-safe no-op when no governor is configured).
	mem *memgov.Cache

	// Hot-key bypass state (allocated only when the plan selected hot
	// keys, never pooled — it is a few KiB). hotAcc holds the scalar
	// accumulators; coldKeys/coldCols/coldIdx are the compaction scratch
	// the cold remainder of each block is gathered into before dispatch.
	hotAcc   *hotAccums
	coldKeys []uint64
	coldCols [][]int64
	coldIdx  []int32

	stats workerStats
}

// workerKit is the allocation-heavy part of one worker's machinery — the
// cache-sized table alone is ~1 MiB of zeroed memory — recycled across
// executions through a config-keyed pool. A kit is returned to the pool
// only after a cleanly completed run (never on error, cancellation, or
// panic), at which point nothing escapes the execution that references it:
// results are materialized by copy in assemble, and the free list holds
// only columns of runs and chunks the execution has finished with.
type workerKit struct {
	table        *hashtable.Table
	finalTables  map[int]*hashtable.Table
	grownTables  map[int]*hashtable.Table
	scat         *partition.Scatterer
	free         *runs.Free
	hashScratch  []uint64
	stateScratch [][]uint64
	stateViews   [][]uint64
	rowScratch   []uint64
}

// kitKey pins every size- or layout-relevant parameter of a kit; kits are
// only reused by executions with the identical key. tableRows joins the
// key because the plan may pre-size the worker table below cacheRows.
type kitKey struct {
	cacheRows int
	tableRows int
	words     int
	maxFill   float64
	carry     bool
	chunkRows int
}

// kitPools maps kitKey → *sync.Pool of *workerKit. sync.Pool gives free
// cross-goroutine reuse and lets the GC drop idle kits under pressure.
var kitPools sync.Map

func kitPool(key kitKey) *sync.Pool {
	if p, ok := kitPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := kitPools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

func newExec(cfg Config, in *Input) (*exec, error) {
	lay := agg.NewLayout(in.Specs)
	e := &exec{
		cfg:     cfg,
		in:      in,
		layout:  lay,
		wordOps: lay.WordOps(),
		kern:    lay.Kernels(),
		words:   lay.Words,
		gov:     cfg.Governor,
		tr:      cfg.Tracer,
	}
	e.cacheRows = hashtable.CapacityForCache(cfg.CacheBytes, e.words)
	if e.cacheRows < hashfn.Fanout*hashtable.MinBlockRows {
		e.cacheRows = hashfn.Fanout * hashtable.MinBlockRows
	}
	// Sketch plan: table pre-size and hot-key bypass. The plan is advisory
	// throughout — a corrupt injected plan can at worst waste a few
	// accumulators or split tables more often, never change results.
	e.plan = cfg.Plan
	e.tableRows = e.cacheRows
	if rows := e.plan.sanitizedTableRows(e.cacheRows); rows != 0 {
		e.tableRows = rows
	}
	if e.plan != nil {
		e.hot = newHotSet(e.plan.HotKeys)
	}
	seen := make(map[int]bool)
	for _, c := range e.kern.Cols {
		if c >= 0 && !seen[c] {
			seen[c] = true
			e.refCols = append(e.refCols, c)
		}
	}
	// The leaf threshold: the fused final pass may fill its table up to
	// half (vs the routine tables' 25 %) — the paper's "factor B more
	// partitions" optimization, bounded at 50 % to keep probing cheap.
	e.finalRows = e.cacheRows / 2
	if e.finalRows < 1 {
		e.finalRows = 1
	}
	// One intermediate-run row materializes its key and state words, plus
	// the hash when runs carry hashes; one output-chunk row always carries
	// hash + key + state.
	e.interRow = int64(8 * (1 + e.words))
	if cfg.CarryHashes {
		e.interRow += 8
	}
	e.chunkRow = int64(8 * (2 + e.words))
	e.pool = sched.NewPool(cfg.Workers)
	// Routine selection (routine.go). Sort-spill refuses the run with the
	// typed budget error before anything is reserved, so the caller
	// degrades to the external path without burning a pass.
	e.routine, e.routineAlpha = e.selectRoutine()
	if e.routine == RoutineSortSpill {
		if e.tr != nil {
			e.tr.Emit(trace.KindRoutineSelect, 0, 0, int64(RoutineSortSpill), e.routineAlpha)
		}
		return nil, fmt.Errorf("core: routine selector chose sort-spill (α̂=%.1f): %w",
			e.routineAlpha, ErrMemoryBudget)
	}
	e.workers = make([]workerState, e.pool.Workers())
	e.kits = kitKey{
		cacheRows: e.cacheRows,
		tableRows: e.tableRows,
		words:     e.words,
		maxFill:   cfg.MaxFill,
		carry:     cfg.CarryHashes,
		chunkRows: cfg.ChunkRows,
	}
	kp := kitPool(e.kits)
	for w := range e.workers {
		ws := &e.workers[w]
		ws.id = w
		if k, _ := kp.Get().(*workerKit); k != nil {
			ws.table = k.table
			ws.finalTables = k.finalTables
			ws.grownTables = k.grownTables
			ws.scat = k.scat
			ws.free = k.free
			ws.hashScratch = k.hashScratch
			ws.stateScratch = k.stateScratch
			ws.stateViews = k.stateViews
			ws.rowScratch = k.rowScratch
			if e.gov != nil {
				// Budgeted runs account retained leaf tables as they are
				// (re)created; starting from empty maps keeps the up-front
				// reservation — and thus the degradation behavior —
				// identical to a fresh execution.
				clear(ws.finalTables)
				clear(ws.grownTables)
			}
		} else {
			ws.table = hashtable.New(hashtable.Config{
				CapacityRows:     e.tableRows,
				Blocks:           hashfn.Fanout,
				MaxFill:          cfg.MaxFill,
				Words:            e.words,
				OmitHashesInRuns: !cfg.CarryHashes,
			})
			ws.finalTables = make(map[int]*hashtable.Table)
			ws.grownTables = make(map[int]*hashtable.Table)
			ws.free = &runs.Free{}
			ws.scat = partition.New(partition.Config{
				Level:      0,
				Words:      e.words,
				ChunkRows:  cfg.ChunkRows,
				DropHashes: !cfg.CarryHashes,
				Free:       ws.free,
			})
			ws.hashScratch = make([]uint64, scratchRows)
			ws.stateScratch = make([][]uint64, e.words)
			for i := range ws.stateScratch {
				ws.stateScratch[i] = make([]uint64, scratchRows)
			}
			ws.stateViews = make([][]uint64, e.words)
			ws.rowScratch = make([]uint64, e.words)
		}
		if e.hot != nil {
			ws.hotAcc = newHotAccums(len(e.hot.keys), e.words)
			ws.coldKeys = make([]uint64, scratchRows)
			ws.coldIdx = make([]int32, 0, scratchRows)
			ws.coldCols = make([][]int64, len(in.AggCols))
			for _, c := range e.refCols {
				ws.coldCols[c] = make([]int64, scratchRows)
			}
		}
		ws.mem = e.gov.NewCache(0)
	}
	if e.gov != nil {
		// Register the fixed per-worker machinery up front: the cache-sized
		// table, the intake scratch blocks, and the scatterer's SWC buffers.
		// If even that doesn't fit the budget, fail before touching the
		// input so the caller can degrade immediately.
		fixed := int64(0)
		for w := range e.workers {
			ws := &e.workers[w]
			fixed += ws.table.FootprintBytes()
			fixed += int64(scratchRows * 8)           // hashScratch
			fixed += int64(e.words * scratchRows * 8) // stateScratch
			fixed += int64(e.words * 8)               // rowScratch
			fixed += int64(hashfn.Fanout * partition.DefaultBufRows * 8 * (2 + e.words))
			if e.hot != nil {
				fixed += int64(scratchRows * (8 + 4))                 // coldKeys + coldIdx
				fixed += int64(len(e.refCols) * scratchRows * 8)      // coldCols
				fixed += int64(len(e.hot.keys) * (e.words*8 + 8 + 1)) // accumulators
			}
		}
		if !e.gov.TryReserve(fixed) {
			return nil, e.gov.BudgetError("core: per-worker machinery", fixed)
		}
		e.fixedBytes = fixed
	}
	return e, nil
}

// recycle hands the workers' kits back to the config-keyed pool. Called
// only after a cleanly completed execution: error, cancellation, and panic
// paths drop the kits instead (a worker that died mid-task may have rows
// buffered in its scatterer, which the next run's Reset would refuse).
func (e *exec) recycle() {
	kp := kitPool(e.kits)
	// Runs and output chunks went back to whichever worker consumed them;
	// even the free lists out and trim them to their recent demand.
	lists := make([]*runs.Free, 0, len(e.workers))
	for w := range e.workers {
		if ws := &e.workers[w]; ws.table != nil {
			lists = append(lists, ws.free)
		}
	}
	runs.Settle(lists)
	for w := range e.workers {
		ws := &e.workers[w]
		if ws.table == nil {
			continue
		}
		kp.Put(&workerKit{
			table:        ws.table,
			finalTables:  ws.finalTables,
			grownTables:  ws.grownTables,
			scat:         ws.scat,
			free:         ws.free,
			hashScratch:  ws.hashScratch,
			stateScratch: ws.stateScratch,
			stateViews:   ws.stateViews,
			rowScratch:   ws.rowScratch,
		})
		ws.table = nil
	}
}

// releaseAccounting returns everything this execution reserved — fixed
// machinery and all net worker reservations — so a governor shared across
// sequential runs (the external operator's chunk loop) starts each run from
// a clean ledger. The high-water mark is unaffected.
func (e *exec) releaseAccounting() {
	if e.gov == nil {
		return
	}
	total := e.fixedBytes
	for w := range e.workers {
		ws := &e.workers[w]
		ws.mem.Flush()
		total += ws.mem.Net()
	}
	e.gov.Release(total)
}

// checkBudget flushes the worker's reservation cache and, when the run has
// gone over budget, aborts it with a typed ErrMemoryBudget failure. Called
// at morsel and task boundaries — the overshoot between two checks is at
// most one morsel of production per worker, the documented budget slack.
func (e *exec) checkBudget(ctx *sched.Ctx, ws *workerState) bool {
	if e.gov == nil {
		return true
	}
	ws.mem.Flush()
	if e.gov.OverBudget() {
		ctx.Fail(fmt.Errorf("core: working set %d of %d bytes: %w",
			e.gov.Reserved(), e.gov.Budget(), ErrMemoryBudget))
		return false
	}
	return true
}

// run executes the two phases: parallel intake, then parallel recursion.
// A cancelled context or a panicking task aborts the run and is returned
// as the error; the partially built state is simply discarded.
func (e *exec) run(ctx context.Context) error {
	if e.tr != nil && e.plan != nil {
		// Part = bypass-set size, Value = K̂; the companion decisions are
		// in Stats (and the per-key bypass volumes in KindHotKeyBypass).
		e.tr.Emit(trace.KindPlan, 0, 0, int64(len(e.plan.HotKeys)), e.plan.EstimatedK)
	}
	if e.tr != nil {
		// The run's committed routine.
		e.tr.Emit(trace.KindRoutineSelect, 0, 0, int64(e.routine), e.routineAlpha)
	}
	// Phase A — intake: split the input into runs (Algorithm 2, line 5).
	e.morsels = sched.NewMorsels(len(e.in.Keys), e.cfg.MorselRows)
	nWorkers := e.pool.Workers()
	t0 := e.stamp()
	if err := e.pool.RunContext(ctx, func(ctx *sched.Ctx) {
		// One intake task per worker; morsel stealing balances them.
		for w := 1; w < nWorkers; w++ {
			ctx.Spawn(e.intake)
		}
		e.intake(ctx)
	}); err != nil {
		return err
	}
	e.lap(t0, trace.PhaseIntake)

	// Phase B — recursion into the buckets (Algorithm 2, line 8), spawned
	// largest-first. Task spawn order is the partition assignment of the
	// work-stealing pool: under skew, digit order could queue the hottest
	// bucket behind hundreds of small ones and leave its (deep, serial
	// at the root) recursion to finish alone after everything else —
	// largest-first bounds the makespan by starting the big buckets while
	// the small ones backfill the idle workers. Output order is
	// unaffected: assemble sorts chunks by hash prefix.
	return e.pool.RunContext(ctx, func(ctx *sched.Ctx) {
		type rootTask struct{ d, rows int }
		order := make([]rootTask, 0, hashfn.Fanout)
		for d := range e.root {
			if n := e.root[d].Rows(); n > 0 {
				order = append(order, rootTask{d, n})
			}
		}
		sort.Slice(order, func(i, j int) bool {
			if order[i].rows != order[j].rows {
				return order[i].rows > order[j].rows
			}
			return order[i].d < order[j].d
		})
		for _, rt := range order {
			b := &e.root[rt.d]
			prefix := uint64(rt.d)
			ctx.Spawn(func(c *sched.Ctx) { e.processBucket(c, b, 1, prefix) })
		}
	})
}

// sliceStates fills the worker's reusable view scratch with states[w][lo:hi].
func (ws *workerState) sliceStates(states [][]uint64, lo, hi int) [][]uint64 {
	for w := range ws.stateViews {
		ws.stateViews[w] = states[w][lo:hi]
	}
	return ws.stateViews
}

// intake is one worker's main loop over the input: grab morsels, run the
// strategy's decision loop on raw rows, produce level-0 runs.
//
// With a plan installed, two things change. The strategy may start in
// partitioning mode (ADAPTIVE's low-α switch, taken up front from the
// predicted reduction factor instead of after filling a table for
// nothing). And when the plan selected hot keys, each block is first
// compacted: hot rows fold into per-worker scalar accumulators (flushed
// below as one-row pre-aggregated runs), only the cold remainder reaches
// the table/scatter dispatch.
func (e *exec) intake(ctx *sched.Ctx) {
	ws := &e.workers[ctx.Worker]
	ws.stats.tasks++
	st := e.cfg.Strategy.NewState(0, e.cacheRows)
	if p := e.plan; p != nil && p.StartPartition {
		if as, ok := st.(*adaptiveState); ok {
			as.partitioning = true
			as.left = as.budget
		}
	}
	table := ws.table
	table.Reset()
	table.SetLevel(0)
	scat := ws.scat
	scat.Reset(0)
	var local [hashfn.Fanout]runs.Bucket

	keys := e.in.Keys
	cols := e.in.AggCols
	for {
		// Cancellation/abort and the memory budget are observed once per
		// morsel: a cancelled or over-budget run stops within one morsel
		// of work per worker, and its partial output is never published.
		if ctx.Aborted() {
			return
		}
		if !e.checkBudget(ctx, ws) {
			return
		}
		lo, hi, ok := e.morsels.Next()
		if !ok {
			break
		}
		e.timed(ws, 0, func() {
			if e.hot == nil {
				e.dispatchRaw(ws, st, table, scat, keys, cols, lo, hi, &local)
			} else {
				for blkLo := lo; blkLo < hi; blkLo += scratchRows {
					blkHi := min(blkLo+scratchRows, hi)
					m := e.compactCold(ws, keys, cols, blkLo, blkHi)
					e.dispatchRaw(ws, st, table, scat, ws.coldKeys, ws.coldCols, 0, m, &local)
				}
			}
			ws.stats.levelRows[0] += int64(hi - lo)
		})
	}

	// Flush residual state into the local buckets.
	e.timed(ws, 0, func() {
		t0 := e.stamp()
		if table.Len() > 0 {
			ws.mem.Reserve(int64(table.Len()) * e.interRow)
			splits := table.SplitRuns()
			for d, r := range splits {
				local[d].Add(r)
			}
		}
		scat.Flush()
		views := make([]*runs.Bucket, hashfn.Fanout)
		for d := range local {
			views[d] = &local[d]
		}
		scat.SealInto(views)
		e.flushHotAccums(ws, &local)
		e.lap(t0, trace.PhaseSplit)
	})

	// Publish into the shared root buckets (the only intake-side
	// synchronization, once per worker).
	e.rootMu.Lock()
	for d := range local {
		e.root[d].AddAll(&local[d])
	}
	e.rootMu.Unlock()
}

// dispatchRaw runs the strategy's decision loop over raw rows [lo, hi) of
// the given key/column slices — the shared inner loop of the direct and the
// bypass-compacted intake paths.
func (e *exec) dispatchRaw(ws *workerState, st StrategyState, table *hashtable.Table,
	scat *partition.Scatterer, keys []uint64, cols [][]int64, lo, hi int,
	local *[hashfn.Fanout]runs.Bucket) {
	i := lo
	for i < hi {
		switch st.NextMode() {
		case ModePartition:
			blk := min(hi-i, scratchRows)
			t0 := e.stamp()
			e.scatterRaw(ws, scat, keys, cols, i, i+blk)
			e.lap(t0, trace.PhaseScatter)
			st.OnPartitioned(blk)
			ws.stats.partitionedRows += int64(blk)
			i += blk
		default: // ModeHash (ModeFinal cannot occur at intake)
			i = e.hashRaw(ws, st, table, keys, cols, i, hi, local)
		}
	}
}

// compactCold splits block [lo, hi) of the input into hot and cold rows:
// hot rows (exact key match against the plan's bypass set) fold into the
// worker's scalar accumulators, cold rows are gathered — keys and the
// referenced aggregate columns — into the worker's compaction scratch.
// Returns the number of cold rows.
func (e *exec) compactCold(ws *workerState, keys []uint64, cols [][]int64, lo, hi int) int {
	hot := e.hot
	acc := ws.hotAcc
	lut := &hot.lut
	hk := hot.keys
	idx := ws.coldIdx[:0]
	ck := ws.coldKeys
	m := 0
	// Distinct queries carry no state words: hot rows only need a counter,
	// and cold rows need no index for the (empty) column gather. The split
	// keeps both loops free of per-row calls — the classifier's home-slot
	// probe is inlined; only probe-chain collisions take the call.
	if len(e.wordOps) == 0 {
		for r := lo; r < hi; r++ {
			k := keys[r]
			j := int(lut[hotSlot(k)])
			if j >= 0 && hk[j] != k {
				j = hot.lookup(k)
			}
			if j >= 0 {
				acc.touched[j] = true
				acc.rows[j]++
				continue
			}
			ck[m] = k
			m++
		}
		return m
	}
	for r := lo; r < hi; r++ {
		k := keys[r]
		j := int(lut[hotSlot(k)])
		if j >= 0 && hk[j] != k {
			j = hot.lookup(k)
		}
		if j >= 0 {
			acc.fold(e.wordOps, j, cols, r)
			continue
		}
		ck[m] = k
		idx = append(idx, int32(r))
		m++
	}
	// Column-major gather of the cold rows' referenced aggregate inputs.
	for _, c := range e.refCols {
		dst := ws.coldCols[c]
		src := cols[c]
		for x, r := range idx {
			dst[x] = src[r]
		}
	}
	ws.coldIdx = idx
	return m
}

// flushHotAccums publishes the worker's touched hot-key accumulators as
// one-row pre-aggregated runs into the local level-0 buckets, routed by the
// hash digit exactly like table splits — downstream merging needs no
// special case, and output order is identical to the unplanned path. The
// state words are copied (the runs outlive the accumulators, which are
// reset so a worker running several intake tasks cannot double-publish).
func (e *exec) flushHotAccums(ws *workerState, local *[hashfn.Fanout]runs.Bucket) {
	acc := ws.hotAcc
	if acc == nil {
		return
	}
	for j := range acc.touched {
		if !acc.touched[j] {
			continue
		}
		key, hash := e.hot.keys[j], e.hot.hashes[j]
		r := &runs.Run{
			Keys:       []uint64{key},
			States:     make([][]uint64, e.words),
			Aggregated: true,
		}
		for w := 0; w < e.words; w++ {
			r.States[w] = []uint64{acc.states[j][w]}
		}
		if e.cfg.CarryHashes {
			r.Hashes = []uint64{hash}
		}
		local[hashfn.Digit(hash, 0)].Add(r)
		ws.mem.Reserve(e.interRow)
		ws.stats.hotRows += acc.rows[j]
		if e.tr != nil {
			e.tr.Emit(trace.KindHotKeyBypass, ws.id, 0, int64(key), float64(acc.rows[j]))
		}
		acc.touched[j] = false
		acc.rows[j] = 0
	}
}

// hashRaw inserts raw input rows [i, hi) into the table until the table
// fills or the range is exhausted; on fill it splits the table into the
// local buckets and informs the strategy. Returns the index of the first
// unconsumed row.
//
// The loop is batch-at-a-time: a whole block's hashes are computed in one
// morsel-wide kernel before any table access, then the block is absorbed by
// the software-pipelined batch insert. Only a table-fill event (rare: once
// per cache-sized table) drops back to per-event bookkeeping.
func (e *exec) hashRaw(ws *workerState, st StrategyState, table *hashtable.Table,
	keys []uint64, cols [][]int64, i, hi int, local *[hashfn.Fanout]runs.Bucket) int {
	t0 := e.stamp()
	for i < hi {
		blk := min(hi-i, scratchRows)
		hs := ws.hashScratch[:blk]
		hashfn.HashBatch(keys[i:i+blk], hs)
		done := 0
		for done < blk {
			n := table.InsertRawBatch(hs[done:blk], keys[i+done:i+blk], cols, i+done, e.kern)
			done += n
			ws.stats.hashedRows += int64(n)
			if done == blk {
				break
			}
			// Table full at row i+done: split into the local buckets.
			e.lap(t0, trace.PhaseTableBuild)
			t0 = e.stamp()
			alpha := table.Alpha()
			ws.stats.tablesEmitted++
			ws.stats.alphaSum += alpha
			ws.mem.Reserve(int64(table.Len()) * e.interRow)
			splits := table.SplitRuns()
			for d, r := range splits {
				local[d].Add(r)
			}
			if e.tr != nil {
				e.tr.Emit(trace.KindTableSplit, ws.id, 0, -1, alpha)
			}
			st.OnTableEmit(alpha)
			if st.NextMode() != ModeHash {
				ws.stats.switches++
				if e.tr != nil {
					e.tr.Emit(trace.KindStrategySwitch, ws.id, 0, -1, alpha)
				}
				e.lap(t0, trace.PhaseSplit)
				return i + done // row not consumed; caller re-dispatches
			}
			e.lap(t0, trace.PhaseSplit)
			t0 = e.stamp()
			// Fresh table, retry the unconsumed tail of the block.
		}
		i += blk
	}
	e.lap(t0, trace.PhaseTableBuild)
	return i
}

// scatterRaw hashes a block of raw rows, materializes their initial
// aggregate states, and scatters them (the intake variant of the
// PARTITIONING routine).
func (e *exec) scatterRaw(ws *workerState, scat *partition.Scatterer,
	keys []uint64, cols [][]int64, lo, hi int) {
	n := hi - lo
	hs := ws.hashScratch[:n]
	hashfn.HashBatch(keys[lo:hi], hs)
	for w, op := range e.wordOps {
		dst := ws.stateScratch[w][:n]
		if op.Src == agg.SrcOne {
			for j := range dst {
				dst[j] = 1
			}
		} else {
			src := cols[op.Col][lo:hi]
			for j := range dst {
				dst[j] = uint64(src[j])
			}
		}
	}
	views := ws.sliceStates(ws.stateScratch, 0, n)
	scat.Scatter(hs, keys[lo:hi], views)
	ws.mem.Reserve(int64(n) * e.interRow)
}

// child is a sub-bucket produced by doBucket, awaiting recursion.
type child struct {
	b      *runs.Bucket
	prefix uint64
}

// processBucket is the recursive call of Algorithm 2 for one bucket at the
// given level; prefix is the bucket's fixed hash-digit path.
//
// Leaf-sized children are processed inline rather than spawned: spawning a
// task per 256th of a bucket would drown the scheduler in micro-tasks (the
// paper's equivalent is that its task recursion stops creating parallel
// work once buckets are small).
func (e *exec) processBucket(ctx *sched.Ctx, b *runs.Bucket, level int, prefix uint64) {
	if ctx.Aborted() {
		return
	}
	ws := &e.workers[ctx.Worker]
	ws.stats.tasks++
	if !e.checkBudget(ctx, ws) {
		return
	}
	n := b.Rows()
	if n == 0 {
		return
	}
	var children []child
	e.timed(ws, min(level, MaxPasses-1), func() {
		ws.stats.levelRows[min(level, MaxPasses-1)] += int64(n)
		children = e.doBucket(ctx, ws, b, level, prefix)
	})
	// The input bucket is consumed: its rows now live either in the
	// sub-buckets (reserved as they were re-materialized) or in the output
	// chunk (reserved by emitTable). Its chunks go to this worker's free
	// list, unless the run was aborted: that drops its kits, lists included.
	ws.mem.Reserve(-int64(n) * e.interRow)
	if ctx.Aborted() {
		return
	}
	for _, r := range b.Runs {
		ws.free.Recycle(r)
	}
	// Spawn the oversized children largest-first so a skew-bloated child
	// enters the scheduler before its siblings: idle workers pick up the
	// long pole early instead of finding it last behind a queue of small
	// tasks. Results are unaffected — assemble orders chunks by sort key.
	big := children[:0]
	for _, c := range children {
		if c.b.Rows() <= e.finalRows {
			e.processBucket(ctx, c.b, level+1, c.prefix)
		} else {
			big = append(big, c)
		}
	}
	sort.Slice(big, func(i, j int) bool {
		ri, rj := big[i].b.Rows(), big[j].b.Rows()
		if ri != rj {
			return ri > rj
		}
		return big[i].prefix < big[j].prefix
	})
	for _, c := range big {
		c := c
		nextLevel := level + 1
		ctx.Spawn(func(cc *sched.Ctx) { e.processBucket(cc, c.b, nextLevel, c.prefix) })
	}
}

func (e *exec) doBucket(ctx *sched.Ctx, ws *workerState, b *runs.Bucket, level int, prefix uint64) []child {
	n := b.Rows()

	// Out of hash digits: all rows share the full 64-bit hash. Finalize
	// with a table sized to the bucket (a 64-bit collision bucket is
	// tiny). The level is passed through unclamped so the chunk sort key
	// keeps the full 64-bit prefix; finalizeGrown clamps the table level
	// itself.
	if level >= hashfn.MaxLevels {
		e.finalizeGrown(ws, b, prefix, level)
		return nil
	}

	// Leaf rule: a bucket whose rows fit one cache-sized table (at the
	// relaxed leaf fill, the paper's fused final pass holding "a factor B
	// more partitions") certainly has few enough groups for a single
	// in-cache pass (groups ≤ rows), independent of the strategy.
	if n <= e.finalRows {
		e.finalizeLeaf(ws, b, level, prefix)
		return nil
	}

	st := e.cfg.Strategy.NewState(level, e.cacheRows)
	if st.NextMode() == ModeFinal {
		// Fixed-pass strategy demands its single growing hashing pass.
		e.finalizeGrown(ws, b, prefix, level)
		return nil
	}

	table := ws.table
	table.Reset()
	table.SetLevel(level)
	scat := ws.scat
	scat.Reset(level)
	sub := make([]runs.Bucket, hashfn.Fanout)
	pure := true // no table emitted, no scatter used → direct output legal
	usedScatter := false

	for _, r := range b.Runs {
		if ctx.Aborted() {
			return nil
		}
		i := 0
		for i < r.Len() {
			switch st.NextMode() {
			case ModePartition:
				blk := min(r.Len()-i, scratchRows)
				t0 := e.stamp()
				hs := r.Hashes
				if hs == nil {
					hs = ws.hashScratch[:blk]
					hashfn.HashBatch(r.Keys[i:i+blk], hs)
				} else {
					hs = hs[i : i+blk]
				}
				scat.Scatter(hs, r.Keys[i:i+blk], ws.sliceStates(r.States, i, i+blk))
				e.lap(t0, trace.PhaseScatter)
				st.OnPartitioned(blk)
				ws.stats.partitionedRows += int64(blk)
				ws.mem.Reserve(int64(blk) * e.interRow)
				i += blk
				pure = false
				usedScatter = true
			default: // ModeHash; ModeFinal cannot occur mid-bucket for our strategies
				var emitted bool
				i, emitted = e.hashRun(ws, st, table, r, i, sub, level, prefix)
				if emitted {
					pure = false
				}
			}
		}
	}

	if pure && table.Len() > 0 {
		// The single table absorbed the entire bucket: this IS the final
		// pass, fused with aggregation (Section 2.1's optimization).
		e.emitTable(ws, table, prefix, level)
		ws.stats.directEmits++
		return nil
	}

	t0 := e.stamp()
	if table.Len() > 0 {
		ws.mem.Reserve(int64(table.Len()) * e.interRow)
		splits := table.SplitRuns()
		for d, r := range splits {
			sub[d].Add(r)
		}
	}
	if usedScatter {
		views := make([]*runs.Bucket, hashfn.Fanout)
		for d := range sub {
			views[d] = &sub[d]
		}
		scat.SealInto(views)
	}
	e.lap(t0, trace.PhaseSplit)

	var children []child
	for d := range sub {
		if sub[d].Rows() == 0 {
			continue
		}
		children = append(children, child{b: &sub[d], prefix: prefix<<hashfn.DigitBits | uint64(d)})
	}
	return children
}

// hashRun inserts rows [start, …) of a run into the table until it fills or
// the run ends. On fill it splits the table into sub and informs the
// strategy; emitted reports whether a split happened.
//
// Like hashRaw, the loop is batch-at-a-time: carried hashes are consumed as
// block slices, recomputed hashes are materialized morsel-wide, and rows are
// absorbed through the software-pipelined batch merge.
func (e *exec) hashRun(ws *workerState, st StrategyState, table *hashtable.Table,
	r *runs.Run, start int, sub []runs.Bucket, level int, prefix uint64) (next int, emitted bool) {
	carried := r.Hashes != nil
	i := start
	n := r.Len()
	t0 := e.stamp()
	for i < n {
		blk := min(n-i, scratchRows)
		var hs []uint64
		if carried {
			hs = r.Hashes[i : i+blk]
		} else {
			hs = ws.hashScratch[:blk]
			hashfn.HashBatch(r.Keys[i:i+blk], hs)
		}
		done := 0
		for done < blk {
			m := table.InsertStateBatch(hs[done:blk], r.Keys[i+done:i+blk], r.States, i+done, e.kern)
			done += m
			ws.stats.hashedRows += int64(m)
			if done == blk {
				break
			}
			// Table full at row i+done: split and hand control back to the
			// caller's decision loop (matching the scalar path, which
			// returns after every emit).
			e.lap(t0, trace.PhaseTableBuild)
			t0 = e.stamp()
			alpha := table.Alpha()
			ws.stats.tablesEmitted++
			ws.stats.alphaSum += alpha
			ws.mem.Reserve(int64(table.Len()) * e.interRow)
			splits := table.SplitRuns()
			for d, run := range splits {
				sub[d].Add(run)
			}
			if e.tr != nil {
				e.tr.Emit(trace.KindTableSplit, ws.id, level, int64(prefix), alpha)
			}
			st.OnTableEmit(alpha)
			if st.NextMode() != ModeHash {
				ws.stats.switches++
				if e.tr != nil {
					e.tr.Emit(trace.KindStrategySwitch, ws.id, level, int64(prefix), alpha)
				}
			}
			e.lap(t0, trace.PhaseSplit)
			return i + done, true
		}
		i += blk
	}
	e.lap(t0, trace.PhaseTableBuild)
	return i, false
}

// leafTable returns a reusable worker-local table for finalizing a leaf
// bucket of n rows: capacity = smallest power of two ≥ 4n, capped at the
// cache size, unblocked (leaves never split), fill limit 0.55 — the fused
// final pass "allows us to hold a factor B more partitions" (Section 2.1).
func (e *exec) leafTable(ws *workerState, n, level int) *hashtable.Table {
	capRows := 256
	for capRows < 4*n && capRows < e.cacheRows {
		capRows <<= 1
	}
	t := ws.finalTables[capRows]
	if t == nil {
		t = hashtable.New(hashtable.Config{
			CapacityRows: capRows,
			Blocks:       1,
			MaxFill:      0.55,
			Words:        e.words,
		})
		ws.finalTables[capRows] = t
		// Retained across leaves as worker machinery.
		ws.mem.Reserve(t.FootprintBytes())
	}
	t.Reset()
	t.SetLevel(min(level, hashfn.MaxLevels-1))
	return t
}

// finalizeLeaf aggregates a leaf bucket with one in-cache hashing pass and
// emits the result. The table is sized to the bucket (emitting scans the
// whole table, so a cache-sized table would waste a full scan on a 64-row
// bucket). In the impossible-in-practice case of overflow it falls back to
// a grown throwaway table.
func (e *exec) finalizeLeaf(ws *workerState, b *runs.Bucket, level int, prefix uint64) {
	n := b.Rows()
	table := e.leafTable(ws, n, level)
	t0 := e.stamp()
	for _, r := range b.Runs {
		if !e.absorbRun(ws, table, r) {
			e.lap(t0, trace.PhaseTableBuild)
			table.Reset()
			e.finalizeGrown(ws, b, prefix, level)
			return
		}
	}
	e.lap(t0, trace.PhaseTableBuild)
	e.emitTable(ws, table, prefix, level)
	ws.stats.directEmits++
}

// absorbRun feeds an entire run through the batch merge path into table,
// reporting false if the table cannot hold it (caller falls back).
func (e *exec) absorbRun(ws *workerState, table *hashtable.Table, r *runs.Run) bool {
	carried := r.Hashes != nil
	n := r.Len()
	for i := 0; i < n; {
		blk := min(n-i, scratchRows)
		var hs []uint64
		if carried {
			hs = r.Hashes[i : i+blk]
		} else {
			hs = ws.hashScratch[:blk]
			hashfn.HashBatch(r.Keys[i:i+blk], hs)
		}
		m := table.InsertStateBatch(hs, r.Keys[i:i+blk], r.States, i, e.kern)
		ws.stats.hashedRows += int64(m)
		if m < blk {
			return false
		}
		i += blk
	}
	return true
}

// finalizeGrown aggregates a bucket with a single hashing pass whose
// unblocked table is sized to the bucket's row count, growing beyond the
// cache budget if necessary. Used for fixed-pass strategies (ModeFinal),
// for 64-bit hash-collision buckets, and as the leaf fallback.
func (e *exec) finalizeGrown(ws *workerState, b *runs.Bucket, prefix uint64, level int) {
	n := b.Rows()
	capRows := 64
	for capRows < 4*n {
		capRows *= 2
	}
	table := ws.grownTables[capRows]
	retained := table != nil
	if table == nil {
		table = hashtable.New(hashtable.Config{
			CapacityRows: capRows,
			Blocks:       1,
			MaxFill:      0.5,
			Words:        e.words,
		})
		ws.mem.Reserve(table.FootprintBytes())
		if capRows <= 4*e.cacheRows {
			// Retained across buckets as worker machinery.
			ws.grownTables[capRows] = table
			retained = true
		}
	}
	if !retained {
		defer ws.mem.Reserve(-table.FootprintBytes())
	}
	table.Reset()
	table.SetLevel(min(level, hashfn.MaxLevels-1))
	t0 := e.stamp()
	for _, r := range b.Runs {
		if !e.absorbRun(ws, table, r) {
			// Cannot happen: capacity ≥ 4·rows ≥ 4·groups with fill 0.5.
			panic("core: grown finalization table overflowed")
		}
	}
	e.lap(t0, trace.PhaseTableBuild)
	e.emitTable(ws, table, prefix, level)
	ws.stats.directEmits++
}

// emitTable converts the table's contents into an output chunk tagged with
// the bucket's prefix and hands it to the collector. Rows are emitted in
// block order, i.e. ordered by the next hash digit — concatenating all
// chunks in prefix order yields the hash-ordered result. The chunk's columns
// come from the worker's free list; assemble gives them back to it.
func (e *exec) emitTable(ws *workerState, table *hashtable.Table, prefix uint64, level int) {
	n := table.Len()
	t0 := e.stamp()
	ch := chunk{
		sortKey: prefix << uint(64-hashfn.DigitBits*min(level, hashfn.MaxLevels)),
		worker:  ws.id,
		hashes:  ws.free.Col(n),
		keys:    ws.free.Col(n),
		states:  make([][]uint64, e.words),
	}
	for w := range ch.states {
		ch.states[w] = ws.free.Col(n)
	}
	table.EmitColumns(ch.hashes, ch.keys, ch.states)
	table.Reset()
	e.lap(t0, trace.PhaseSplit)
	if e.tr != nil {
		e.tr.Emit(trace.KindTableEmit, ws.id, level, int64(prefix), float64(n))
	}
	// Output chunks are retained until assemble; they are part of the
	// run's footprint.
	ws.mem.Reserve(int64(n) * e.chunkRow)
	e.out.add(ch)
}
