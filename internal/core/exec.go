package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
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

// scratchRows is the block size of the intake loop: the hashes of up to
// this many rows are materialized at a time before being handed to a
// routine, one block of the scatterer's mapping vector. The block stays
// cache resident.
const scratchRows = partition.BlockRows

// Footprint returns the operator's memory terms for aggregate states of
// the given word width under cfg (CacheBytes 0 selects the default):
// fixed is the bytes of one worker's machinery and perRow the bytes of one
// output-chunk row. A governed run reserves exactly fixed for each worker
// of its pool up front (see Floor).
func Footprint(cfg Config, words int) (fixed, perRow int64) {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	return workerBytes(cacheRows(cfg.CacheBytes, words), words), chunkRowBytes(words)
}

// Floor returns the bytes a governed run of cfg over rows input rows,
// with aggregate states of the given word width, reserves before it reads
// the input: Footprint's fixed term for each worker of the pool it builds,
// after the sizing a spill target under a byte budget applies. Serve
// admission waits for it.
func Floor(cfg Config, rows, words int) int64 {
	cfg = cfg.withDefaults().sizedForSpill(words)
	fixed, _ := Footprint(cfg, words)
	return int64(poolWorkers(cfg, rows)) * fixed
}

// poolWorkers is the width of the pool a run of cfg builds over rows input
// rows: the resolved worker count, but only as many workers as the intake
// has morsels — a worker without a morsel would only add machinery to
// reserve and a goroutine to start.
func poolWorkers(cfg Config, rows int) int {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	grain := cfg.MorselRows
	if grain <= 0 {
		grain = sched.DefaultGrain
	}
	return max(min(workers, (rows+grain-1)/grain), 1)
}

// minTableRows is the smallest worker table: each of the Fanout blocks
// keeps MinBlockRows slots.
const minTableRows = hashfn.Fanout * hashtable.MinBlockRows

// cacheRows is the capacity of a cache-sized table, at least minTableRows.
func cacheRows(cacheBytes, words int) int {
	return max(hashtable.CapacityForCache(cacheBytes, words), minTableRows)
}

// chunkRowBytes is one output-chunk row: hash, key and state words.
func chunkRowBytes(words int) int64 { return int64(8 * (2 + words)) }

// runRowBytes is one intermediate-run row: hash and state words.
func runRowBytes(words int) int64 { return int64(8 * (1 + words)) }

// workerBytes is one worker's fixed machinery: a table of tableRows slots,
// the intake's hash block and the scatterer.
func workerBytes(tableRows, words int) int64 {
	b := int64(tableRows) * int64(hashtable.SlotBytes(words))
	b += int64(scratchRows * 8) // hashScratch
	return b + swcBytes(words)
}

// swcBytes is the scatterer: its §4.2 write-combining buffers,
// DefaultBufRows run rows per partition, and its mapping-vector scratch.
func swcBytes(words int) int64 {
	return int64(hashfn.Fanout*partition.DefaultBufRows)*runRowBytes(words) + partition.ScratchBytes
}

// exec holds one execution's shared state.
type exec struct {
	cfg    Config
	in     *Input
	layout *agg.Layout
	kern   *agg.Kernels // batch kernels, resolved once per run
	words  int

	cacheRows  int // capacity of a cache-sized table
	finalRows  int // its fill limit: the leaf threshold of the recursion
	intakeRows int // logical capacity of the intake tables (intakeCapacity)

	// Memory governance: interRow is the byte cost of one materialized
	// intermediate-run row, chunkRow of one output-chunk row. gov is nil
	// when no budget accounting was requested.
	gov        *memgov.Governor
	interRow   int64
	chunkRow   int64
	fixedBytes int64 // up-front reservation for per-worker machinery

	// tr is the optional execution tracer (nil when not observing).
	tr trace.Tracer

	// spill is the spill tier (nil without Config.Spill).
	spill *spiller

	pool    *sched.Pool
	morsels *sched.Morsels
	workers []workerState
	kits    kitKey // pool key of this execution's worker kits

	// root holds the level-0 buckets, made by the first intake that
	// publishes rows (a run whose intake tables hold every group has none).
	rootMu sync.Mutex
	root   []runs.Bucket

	out collector
}

// workerState is the per-worker reusable machinery: one cache-sized hash
// table, one scatterer (whose SWC buffers are reused across tasks), the
// intake's hash block and the sort leaf's scratch. Tasks on one worker
// never interleave, so no locking is needed — the paper's share-nothing
// design.
type workerState struct {
	// id is the worker's pool index, stamped on emitted trace events.
	id        int
	workerKit // the machinery, pooled across executions
	// kit is the pooled kit the machinery came from, if any; recycle
	// hands the machinery back in it.
	kit *workerKit
	// intakeSplit says the worker's intake put rows into its level-0
	// buckets: it split a table or scattered a row, or the run may spill.
	// Until then its table holds everything it consumed, for finishIntake.
	intakeSplit bool

	// mem is the worker's reservation cache against the shared governor
	// (nil, a no-op, when no governor is configured).
	mem *memgov.Cache

	// The spill tier's per-worker state. owned is the bucket set the worker
	// may spill: its intake-local buckets, or the sub-buckets of the
	// bucket it passes over, which become the children it has not spawned
	// yet; ownedScat says the scatterer's writers still hold rows of them.
	owned     []runs.Bucket
	ownedScat bool
	spillW    *runs.BlockWriter // created on first spill
	spillID   int               // file id of the spill being written
	reader    runs.BlockReader
	// The read-back run: one decoded block at a time.
	back       *runs.Run
	backKeys   []uint64
	backStates [][]uint64

	stats workerStats
}

// workerKit is the allocation-heavy part of one worker's machinery — the
// cache-sized table alone is 2–4 MiB of zeroed memory at the default cache,
// depending on the state width — recycled across
// executions through a config-keyed pool. A kit is returned to the pool
// only after a cleanly completed run (never on error, cancellation, or
// panic), at which point nothing escapes the execution that references it:
// results are materialized by copy in assemble, and the free list holds
// only columns of runs and chunks the execution has finished with.
type workerKit struct {
	table *hashtable.Table
	// leaf is the sort leaf's scratch (leafScratch), nil until the
	// worker finalizes its first leaf.
	leaf *leafScratch
	scat *partition.Scatterer
	// free is the worker's column free list: the scatterer's writers and
	// emitTable cut chunks from it, and consumed buckets and assembled
	// output chunks give their columns back.
	free *runs.Free

	hashScratch []uint64
	stateViews  [][]uint64    // reusable column-view scratch
	local       []runs.Bucket // intake's level-0 buckets, empty between runs
}

// kitKey pins every size- or layout-relevant parameter of a kit; kits are
// only reused by executions with the identical key.
type kitKey struct {
	cacheRows int
	words     int
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

// intakeCapacity is the logical capacity of an intake table over n input
// rows: n rows hold at most n groups, so the smallest table whose fill limit
// holds n rows never fills by count, and emitting it scans slots in
// proportion to the input, not to the cache. At least minTableRows, at most
// cacheRows.
func intakeCapacity(n, cacheRows int) int {
	c := minTableRows
	for c < cacheRows && int(float64(c)*hashtable.DefaultMaxFill) < n {
		c <<= 1
	}
	return c
}

func newExec(ctx context.Context, cfg Config, in *Input) (*exec, error) {
	lay := agg.NewLayout(in.Specs)
	if err := in.validate(lay); err != nil {
		return nil, err
	}
	if cfg.Spill != nil && cfg.Governor == nil {
		cfg.Governor = memgov.New(0) // a spill tier keeps the ledger
	}
	cfg = cfg.sizedForSpill(lay.Words)
	e := &exec{
		cfg:    cfg,
		in:     in,
		layout: lay,
		kern:   lay.Kernels(),
		words:  lay.Words,
		gov:    cfg.Governor,
		tr:     cfg.Tracer,
	}
	e.cacheRows = cacheRows(cfg.CacheBytes, e.words)
	e.intakeRows = intakeCapacity(len(in.Keys), e.cacheRows)
	// The leaf threshold: the fused final pass may fill its table up to
	// half (vs the routine tables' 25 %) — the paper's "factor B more
	// partitions" optimization, bounded at 50 % to keep probing cheap.
	e.finalRows = e.cacheRows / 2
	e.chunkRow = chunkRowBytes(e.words)
	e.interRow = runRowBytes(e.words)
	e.pool = sched.NewPool(poolWorkers(cfg, len(in.Keys)))
	e.workers = make([]workerState, e.pool.Workers())
	if e.tr != nil && e.gov != nil {
		// Sample the ledger's high water into the trace: every 64th of the
		// budget, at least 32 KiB apart, or every MiB without a budget. A
		// ledger shared by runs (a server's, an external run's chunks)
		// keeps the hook its first traced run installed.
		grain := int64(1 << 20)
		if b := e.gov.Budget(); b > 0 {
			grain = max(b/64, 32<<10)
		}
		tr := e.tr
		e.gov.InitHighWaterHook(grain, func(hw int64) {
			tr.Emit(trace.KindGovHighWater, 0, 0, -1, float64(hw))
		})
	}
	if e.gov != nil {
		// Register the fixed per-worker machinery (workerBytes) before
		// building it. If even that exceeds the budget, fail before
		// touching the input: no spill can free it. Otherwise wait for
		// room, holding none of it yet: a run's own governor is empty here
		// and never waits, while a ledger shared with other runs has room
		// again when they release.
		fixed := int64(len(e.workers)) * workerBytes(e.cacheRows, e.words)
		if b := e.gov.Budget(); b > 0 && fixed > b {
			return nil, e.gov.BudgetError("core: per-worker machinery", fixed)
		}
		if err := e.gov.TryReserveOrWait(ctx, fixed); err != nil {
			return nil, err
		}
		e.fixedBytes = fixed
	}
	e.kits = kitKey{cacheRows: e.cacheRows, words: e.words, chunkRows: cfg.ChunkRows}
	kp := kitPool(e.kits)
	for w := range e.workers {
		ws := &e.workers[w]
		ws.id = w
		if k, _ := kp.Get().(*workerKit); k != nil {
			ws.kit, ws.workerKit = k, *k
			if e.gov != nil {
				// Budgeted runs account the leaf scratch as it is
				// allocated; starting without it keeps the up-front
				// reservation — and thus the degradation behavior —
				// identical to a fresh execution.
				ws.leaf = nil
			}
		} else {
			free := &runs.Free{}
			ws.workerKit = workerKit{
				table: hashtable.New(hashtable.Config{
					CapacityRows: e.cacheRows,
					Blocks:       hashfn.Fanout,
					Words:        e.words,
				}),
				scat: partition.New(partition.Config{
					Level:     0,
					Words:     e.words,
					ChunkRows: cfg.ChunkRows,
					Free:      free,
				}),
				free:        free,
				hashScratch: make([]uint64, scratchRows),
				stateViews:  make([][]uint64, e.words),
				local:       make([]runs.Bucket, hashfn.Fanout),
			}
		}
		if e.gov != nil {
			ws.mem = e.gov.NewCache(0)
		}
	}
	if cfg.Spill != nil {
		// Without a byte budget nothing would ever press the run to spill:
		// every level-0 bucket goes through the spill target.
		e.spill = newSpiller(*cfg.Spill, e.words, e.gov.Budget() <= 0, e.tr)
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
	// even the free lists out and trim them to their recent demand. (A
	// constant capacity keeps the slice on the stack up to 8 workers.)
	lists := make([]*runs.Free, 0, 8)
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
		k := ws.kit
		if k == nil {
			k = new(workerKit)
		}
		*k = ws.workerKit
		kp.Put(k)
		ws.kit, ws.table = nil, nil
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
// gone over budget, spills what the worker owns (busy excepted; see
// relieve) or, without a spill target, aborts the run with a typed
// ErrMemoryBudget failure. Called at morsel and task boundaries — the
// overshoot between two checks is at most one morsel of production per
// worker, the documented budget slack.
func (e *exec) checkBudget(ctx *sched.Ctx, ws *workerState, busy *runs.Bucket) bool {
	if e.gov == nil {
		return true
	}
	ws.mem.Flush()
	if !e.gov.OverBudget() {
		return true
	}
	if e.spill != nil {
		return e.relieve(ctx, ws, busy)
	}
	ctx.Fail(fmt.Errorf("core: working set %d of %d bytes: %w",
		e.gov.Reserved(), e.gov.Budget(), ErrMemoryBudget))
	return false
}

// run executes the two phases: parallel intake, then parallel recursion.
// A cancelled context or a panicking task aborts the run and is returned
// as the error; the partially built state is simply discarded.
func (e *exec) run(ctx context.Context) error {
	// Phase A — intake: split the input into runs (Algorithm 2, line 5).
	e.morsels = sched.NewMorsels(len(e.in.Keys), e.cfg.MorselRows)
	nWorkers := e.pool.Workers()
	for w := range e.workers {
		ws := &e.workers[w]
		ws.table.ResetCapacity(e.intakeRows)
		ws.table.SetLevel(0)
		// A spilling run keeps no intake table: its buckets must reach the
		// spill tier, and its result total hash order.
		ws.intakeSplit = e.spill != nil
	}
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
	e.finishIntake()
	if e.spill != nil {
		if err := e.spillRoots(); err != nil {
			return err
		}
		if e.spill.stats.Buckets > 0 { // one goroutine runs here
			// Phase B reads spilled buckets back: the out-of-core merge.
			defer e.lap(e.stamp(), trace.PhaseMerge)
		}
	}
	return e.recurse(ctx)
}

// recurse is phase B: recursion into the root buckets (Algorithm 2, line
// 8), spawned largest-first; a run without root rows has no phase B. Task
// spawn order is the partition assignment of the work-stealing pool: under
// skew, digit order could queue the hottest bucket behind hundreds of small
// ones and leave its (deep, serial at the root) recursion to finish alone
// after everything else — largest-first bounds the makespan by starting the
// big buckets while the small ones backfill the idle workers. Output order
// is unaffected: assemble sorts chunks by hash prefix.
func (e *exec) recurse(ctx context.Context) error {
	if !slices.ContainsFunc(e.root, func(b runs.Bucket) bool { return b.Rows() > 0 }) {
		return nil
	}
	return e.pool.RunContext(ctx, func(ctx *sched.Ctx) {
		type rootTask struct{ d, rows int }
		order := make([]rootTask, 0, hashfn.Fanout)
		for d := range e.root {
			if n := e.root[d].Rows(); n > 0 {
				order = append(order, rootTask{d, n})
			}
		}
		slices.SortFunc(order, func(a, b rootTask) int {
			return cmp.Or(cmp.Compare(b.rows, a.rows), cmp.Compare(a.d, b.d))
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
func (e *exec) intake(ctx *sched.Ctx) {
	ws := &e.workers[ctx.Worker]
	ws.stats.tasks++
	st := e.cfg.Strategy.NewState(0, e.cacheRows)
	// run sized and emptied the table: a worker that runs a second intake
	// task keeps filling it.
	table := ws.table
	scat := ws.scat
	scat.Reset(0)
	local := ws.local
	ws.owned, ws.ownedScat = local, true
	defer func() { ws.owned, ws.ownedScat = nil, false }()

	keys := e.in.Keys
	cols := e.in.AggCols
	for {
		// Cancellation/abort and the memory budget are observed once per
		// morsel: a cancelled or over-budget run stops within one morsel
		// of work per worker, and its partial output is never published.
		if ctx.Aborted() {
			return
		}
		if !e.checkBudget(ctx, ws, nil) {
			return
		}
		lo, hi, ok := e.morsels.Next()
		if !ok {
			break
		}
		e.timed(ws, 0, func() {
			for i := lo; i < hi; {
				switch st.NextMode() {
				case ModePartition:
					blk := min(hi-i, scratchRows)
					t0 := e.stamp()
					e.scatterRaw(ws, scat, keys, cols, i, i+blk)
					ws.intakeSplit = true
					e.lap(t0, trace.PhaseScatter)
					st.OnPartitioned(blk)
					ws.stats.partitionedRows += int64(blk)
					i += blk
				default: // ModeHash (ModeFinal cannot occur at intake)
					i = e.hashRaw(ws, st, table, keys, cols, i, hi, local)
				}
			}
			ws.stats.levelRows[0] += int64(hi - lo)
		})
	}

	if !ws.intakeSplit {
		// The table absorbed everything the worker consumed: it stays whole
		// for finishIntake, and the local buckets are empty.
		return
	}
	// Flush residual state into the local buckets.
	e.timed(ws, 0, func() {
		t0 := e.stamp()
		e.splitTable(ws, table, local)
		scat.Flush()
		views := make([]*runs.Bucket, hashfn.Fanout)
		for d := range local {
			views[d] = &local[d]
		}
		scat.SealInto(views)
		e.lap(t0, trace.PhaseSplit)
	})

	// Publish into the shared root buckets (the only intake-side
	// synchronization, once per worker).
	e.rootMu.Lock()
	root := e.rootBuckets()
	for d := range local {
		root[d].AddAll(&local[d])
	}
	e.rootMu.Unlock()
	clear(local)
}

// splitTable splits a non-empty table into one run per digit, added to
// the matching bucket of into, and reserves the runs' rows.
func (e *exec) splitTable(ws *workerState, table *hashtable.Table, into []runs.Bucket) {
	if table.Len() == 0 {
		return
	}
	ws.mem.Reserve(int64(table.Len()) * e.interRow)
	for d, r := range table.SplitRuns() {
		into[d].Add(r)
	}
}

// rootBuckets returns the level-0 buckets, making them on first use. The
// caller holds rootMu or runs alone.
func (e *exec) rootBuckets() []runs.Bucket {
	if e.root == nil {
		e.root = make([]runs.Bucket, hashfn.Fanout)
	}
	return e.root
}

// finishIntake is the fused final pass of intake (Section 2.1): when no
// worker's intake split a table or scattered a row, the intake tables hold
// the final state of every group, and they are emitted straight into the
// result. One engaged worker emits its table; several absorb their tables
// into the largest one and emit that, unless the union filled a
// cache-sized table. Otherwise every table still holding rows is split
// into the root buckets, as its worker's own flush would have done. It
// runs on one goroutine, after the intake pool has quiesced; a worker
// whose intake split has flushed its table already, so only kept tables
// hold rows.
func (e *exec) finishIntake() {
	var target *workerState
	engaged, pure := 0, true
	for w := range e.workers {
		ws := &e.workers[w]
		pure = pure && !ws.intakeSplit
		if n := ws.table.Len(); n > 0 {
			engaged++
			if target == nil || n > target.table.Len() {
				target = ws
			}
		}
	}
	if engaged == 0 {
		return
	}
	if pure && (engaged == 1 || e.absorbIntake(target)) {
		e.timed(target, 0, func() { e.emitTable(target, target.table, 0, 0) })
		target.stats.directEmits++
		return
	}
	for w := range e.workers {
		ws := &e.workers[w]
		if ws.table.Len() == 0 {
			continue
		}
		e.timed(ws, 0, func() {
			t0 := e.stamp()
			e.splitTable(ws, ws.table, e.rootBuckets())
			e.lap(t0, trace.PhaseSplit)
		})
	}
}

// absorbIntake merges every other intake table into target's through their
// emitted hash and state columns, emptying them, with the intake's growth
// rule: a short count grows target while it is below the cache size, and
// at the cache size splits it into the root buckets, after which the merge
// continues into the emptied table. It reports whether target holds every
// group, that is whether no split happened.
func (e *exec) absorbIntake(target *workerState) bool {
	whole := true
	for w := range e.workers {
		ws := &e.workers[w]
		n := ws.table.Len()
		if ws == target || n == 0 {
			continue
		}
		var r runs.Run
		e.timed(ws, 0, func() {
			t0 := e.stamp()
			r.Keys, r.States = ws.free.Col(n), make([][]uint64, e.words)
			for i := range r.States {
				r.States[i] = ws.free.Col(n)
			}
			ws.table.EmitColumns(r.Keys, nil, r.States)
			ws.table.Reset()
			e.lap(t0, trace.PhaseSplit)
		})
		e.timed(target, 0, func() {
			t0 := e.stamp()
			for i := 0; i < n; {
				m := target.table.InsertStateBatch(r.Keys[i:], nil, r.States, i, e.kern)
				target.stats.hashedRows += int64(m)
				if i += m; i == n {
					break
				}
				if target.table.CapacityRows() < e.cacheRows {
					target.table.Grow() // in place: the allocation is cache-sized
					continue
				}
				whole = false
				e.splitTable(target, target.table, e.rootBuckets())
			}
			e.lap(t0, trace.PhaseTableBuild)
		})
		ws.free.Put(r.Keys)
		for _, col := range r.States {
			ws.free.Put(col)
		}
	}
	return whole
}

// hashRaw inserts raw input rows [i, hi) into the table until a
// cache-sized table fills (a smaller one that stops short grows) or the
// range is exhausted; on fill it splits the table into the local buckets
// and informs the strategy. Returns the index of the first unconsumed row.
//
// The loop is batch-at-a-time: a whole block's hashes are computed in one
// morsel-wide kernel before any table access, then the block is absorbed by
// the software-pipelined batch insert. Only a table-fill event (rare: once
// per cache-sized table) drops back to per-event bookkeeping.
func (e *exec) hashRaw(ws *workerState, st StrategyState, table *hashtable.Table,
	keys []uint64, cols [][]int64, i, hi int, local []runs.Bucket) int {
	t0 := e.stamp()
	for i < hi {
		blk := min(hi-i, scratchRows)
		hs := ws.hashScratch[:blk]
		hashfn.HashBatch(keys[i:i+blk], hs)
		done := 0
		for done < blk {
			n := table.InsertRawBatch(hs[done:blk], nil, cols, i+done, e.kern)
			done += n
			ws.stats.hashedRows += int64(n)
			if done == blk {
				break
			}
			if table.CapacityRows() < e.cacheRows {
				table.Grow() // in place: the allocation is cache-sized
				continue
			}
			// Cache-sized table full at row i+done: split into the local
			// buckets.
			e.lap(t0, trace.PhaseTableBuild)
			t0 = e.stamp()
			alpha := table.Alpha()
			ws.stats.tablesEmitted++
			ws.stats.alphaSum += alpha
			ws.intakeSplit = true
			e.splitTable(ws, table, local)
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

// scatterRaw hashes a block of raw rows and scatters them, hashes as the
// runs' key column, with their initial aggregate states read straight
// from the input columns (the intake variant of the PARTITIONING routine).
func (e *exec) scatterRaw(ws *workerState, scat *partition.Scatterer,
	keys []uint64, cols [][]int64, lo, hi int) {
	n := hi - lo
	hs := ws.hashScratch[:n]
	hashfn.HashBatch(keys[lo:hi], hs)
	scat.ScatterRaw(hs, cols, e.kern.Cols, lo)
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
	if !e.checkBudget(ctx, ws, b) {
		return
	}
	n := b.Rows()
	if n == 0 {
		return
	}
	// Spilled rows gave their reservation back when they were written.
	inMem := n
	spilled := len(b.Spilled) > 0
	if spilled {
		inMem = b.MemRows()
		e.spill.mu.Lock()
		e.spill.stats.DeepestRead = max(e.spill.stats.DeepestRead, level)
		e.spill.mu.Unlock()
		if e.tr != nil {
			e.tr.Emit(trace.KindMergeStart, ws.id, level, int64(prefix), float64(n))
		}
	}
	owner := ws.owned
	var children []child
	e.timed(ws, min(level, MaxPasses-1), func() {
		ws.stats.levelRows[min(level, MaxPasses-1)] += int64(n)
		children = e.doBucket(ctx, ws, b, level, prefix)
	})
	ws.ownedScat = false
	// The input bucket is consumed: its rows now live either in the
	// sub-buckets (reserved as they were re-materialized) or in the output
	// chunk. Its chunks go to this worker's free list, unless the run was
	// aborted: that drops its kits, lists included.
	ws.mem.Reserve(-int64(inMem) * e.interRow)
	if ctx.Aborted() {
		ws.owned = owner
		return
	}
	for _, r := range b.Runs {
		ws.free.Recycle(r)
	}
	b.Runs, b.Spilled = nil, nil
	if spilled && e.tr != nil {
		e.tr.Emit(trace.KindMergeFinish, ws.id, level, int64(prefix), float64(n))
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
	ws.owned = owner
	slices.SortFunc(big, func(x, y child) int {
		return cmp.Or(cmp.Compare(y.b.Rows(), x.b.Rows()), cmp.Compare(x.prefix, y.prefix))
	})
	for _, c := range big {
		c := c
		nextLevel := level + 1
		ctx.Spawn(func(cc *sched.Ctx) { e.processBucket(cc, c.b, nextLevel, c.prefix) })
	}
}

func (e *exec) doBucket(ctx *sched.Ctx, ws *workerState, b *runs.Bucket, level int, prefix uint64) []child {
	n := b.Rows()

	// Leaf rule: a bucket whose rows fit one cache-sized table (at the
	// relaxed leaf fill, the paper's fused final pass holding "a factor B
	// more partitions") certainly has few enough groups for a single
	// in-cache pass (groups ≤ rows), independent of the strategy; that
	// pass sorts (sortLeaf). A larger bucket out of hash digits holds one
	// group, since all its rows share the full 64-bit hash, and is folded
	// into one state row (foldGroup). The level is passed through
	// unclamped so the chunk sort key keeps the full 64-bit prefix.
	if n <= e.finalRows {
		e.sortLeaf(ctx, ws, b, prefix, level)
		return nil
	}
	if level >= hashfn.MaxLevels {
		e.foldGroup(ctx, ws, b, prefix, level)
		return nil
	}

	st := e.cfg.Strategy.NewState(level, e.cacheRows)
	if st.NextMode() == ModeFinal {
		// A fixed-pass strategy's single final pass over a bucket above
		// the leaf threshold: the paper lets PARTITIONALWAYS' tables grow
		// past the cache, and here the sort's scratch, which is dropped
		// afterwards so that no more than finalRows rows of it stay held.
		e.sortLeaf(ctx, ws, b, prefix, level)
		if sc := ws.leaf; sc != nil && len(sc.hashes) > e.finalRows {
			e.reserveMachinery(ws, -sc.bytes(e.words))
			ws.leaf = nil
		}
		return nil
	}

	table := ws.table
	table.ResetCapacity(e.cacheRows)
	table.SetLevel(level)
	scat := ws.scat
	scat.Reset(level)
	sub := make([]runs.Bucket, hashfn.Fanout)
	pure := true // no table emitted, no scatter used → direct output legal
	usedScatter := false
	if e.spill != nil {
		// The sub-buckets are this worker's to spill while it fills them.
		ws.owned, ws.ownedScat = sub, true
	}

	// consume runs the strategy's decision loop over one run of the bucket.
	consume := func(r *runs.Run) bool {
		i := 0
		for i < r.Len() {
			switch st.NextMode() {
			case ModePartition:
				blk := min(r.Len()-i, scratchRows)
				t0 := e.stamp()
				hs := r.Keys[i : i+blk] // the run carries the hash
				scat.Scatter(hs, hs, ws.sliceStates(r.States, i, i+blk))
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
		return e.spill == nil || e.checkBudget(ctx, ws, nil)
	}
	for _, r := range b.Runs {
		if ctx.Aborted() || !consume(r) {
			return nil
		}
	}
	for _, s := range b.Spilled {
		if !e.readBack(ctx, ws, level, s, consume) {
			return nil
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
	e.splitTable(ws, table, sub)
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
// Like hashRaw, the loop is batch-at-a-time: the run carries its hashes,
// and rows are absorbed through the software-pipelined batch merge.
func (e *exec) hashRun(ws *workerState, st StrategyState, table *hashtable.Table,
	r *runs.Run, start int, sub []runs.Bucket, level int, prefix uint64) (next int, emitted bool) {
	i := start
	n := r.Len()
	t0 := e.stamp()
	for i < n {
		blk := min(n-i, scratchRows)
		hs := r.Keys[i : i+blk]
		done := 0
		for done < blk {
			m := table.InsertStateBatch(hs[done:], nil, r.States, i+done, e.kern)
			done += m
			ws.stats.hashedRows += int64(m)
			if done == blk {
				break
			}
			// Table full at row i+done: split and hand control back to the
			// caller's decision loop, which consults the strategy after
			// every emit.
			e.lap(t0, trace.PhaseTableBuild)
			t0 = e.stamp()
			alpha := table.Alpha()
			ws.stats.tablesEmitted++
			ws.stats.alphaSum += alpha
			e.splitTable(ws, table, sub)
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

// leafScratch is one worker's sort-leaf scratch: the leaf's hashes, their
// hash-order permutation, each row's group, and the state words of the
// rows read back from spill files, made the first time a leaf reads one
// back. Every column holds as many rows as the hashes.
type leafScratch struct {
	hashes    []uint64
	perm, seg []int32
	states    [][]uint64
}

// bytes is what the scratch holds at the given state width.
func (sc *leafScratch) bytes(words int) int64 {
	b := 16 * int64(len(sc.hashes))
	if sc.states != nil {
		b += 8 * int64(words) * int64(len(sc.hashes))
	}
	return b
}

// leafScratch returns the worker's sort-leaf scratch with room for a leaf
// of n rows, its state columns too when the leaf has spilled rows. It
// grows by doubling from 256 rows as the leaves demand, so at most to
// finalRows but for a fixed-pass strategy's final bucket; what it holds is
// reserved as machinery and kept for the rest of the run.
func (e *exec) leafScratch(ws *workerState, n int, spilled bool) *leafScratch {
	sc := ws.leaf
	if sc == nil {
		sc = &leafScratch{}
		ws.leaf = sc
	}
	before := sc.bytes(e.words)
	if len(sc.hashes) < n {
		c := 256
		for c < n {
			c <<= 1
		}
		sc.hashes, sc.perm, sc.seg = make([]uint64, c), make([]int32, c), make([]int32, c)
		// The state columns grow with the hashes, below.
		spilled, sc.states = spilled || sc.states != nil, nil
	}
	if spilled && sc.states == nil {
		sc.states = make([][]uint64, e.words)
		for w := range sc.states {
			sc.states[w] = make([]uint64, len(sc.hashes))
		}
	}
	e.reserveMachinery(ws, sc.bytes(e.words)-before)
	return sc
}

// sortLeaf is the fused final pass over a leaf, a bucket of at most
// finalRows rows, or over a fixed-pass strategy's final bucket, done by
// sorting rather than hashing (the paper's §2: both make the same
// transfers). It orders the bucket's carried hashes with hashfn.Order,
// numbers the groups in that order, one pass, and merges every run's
// states into one state row per group with the layout's merge kernels, a
// run at a time where the run lies. Spilled runs are read back into the
// scratch first. The chunk is in hash order. The order indexes rows with
// int32: a bucket of more rows fails the run with ErrMemoryBudget.
func (e *exec) sortLeaf(ctx *sched.Ctx, ws *workerState, b *runs.Bucket, prefix uint64, level int) {
	n := b.Rows()
	if n > math.MaxInt32 {
		ctx.Fail(fmt.Errorf("core: bucket of %d rows past the sort's int32 row index: %w", n, ErrMemoryBudget))
		return
	}
	sc := e.leafScratch(ws, n, len(b.Spilled) > 0)
	t0 := e.stamp()
	off := 0
	for _, r := range b.Runs {
		off += copy(sc.hashes[off:n], r.Keys)
	}
	inMem := off
	for _, s := range b.Spilled {
		if !e.readBack(ctx, ws, level, s, func(r *runs.Run) bool {
			copy(sc.hashes[off:n], r.Keys)
			for w, col := range r.States {
				copy(sc.states[w][off:n], col)
			}
			off += r.Len()
			return true
		}) {
			return
		}
	}
	hashes, perm, seg := sc.hashes[:n], sc.perm[:n], sc.seg[:n]
	hashfn.Order(hashes, perm)
	// Group g is the g-th distinct hash in order. A row's group index is
	// at most its position in perm, so perm[g] can take any row of group
	// g in place: perm[:groups] ends up one row per group, in order.
	g := int32(-1)
	last := ^hashes[perm[0]]
	for _, r := range perm {
		h := hashes[r]
		d := h ^ last // a new group where the hash changes, without a branch
		g += int32((d | -d) >> 63)
		perm[g] = r
		seg[r] = g
		last = h
	}
	groups := int(g) + 1
	ch := e.newChunk(ws, groups, prefix, level)
	ch.ordered = true
	hashfn.Gather(ch.hashes, hashes, perm[:groups])
	for w, col := range ch.states {
		col[0] = e.kern.Ops[w].Op.Identity()
		for i := 1; i < len(col); i *= 2 {
			copy(col[i:], col[:i])
		}
	}
	off = 0
	for _, r := range b.Runs {
		for w, merge := range e.kern.Merge {
			merge(ch.states[w], seg[off:off+r.Len()], r.States[w])
		}
		off += r.Len()
	}
	if inMem < n {
		for w, merge := range e.kern.Merge {
			merge(ch.states[w], seg[inMem:], sc.states[w][inMem:n])
		}
	}
	ws.stats.hashedRows += int64(n)
	e.lap(t0, trace.PhaseTableBuild)
	e.emitFinal(ws, ch, prefix, level)
}

// zeroSlots is a slot vector of one block that names state row 0 for
// every row: the merge kernels fold a block of rows into one row with it.
var zeroSlots [scratchRows]int32

// foldGroup is the final pass over a bucket past the last digit above the
// leaf threshold: all its rows share the full 64-bit hash, so it holds
// one group, and the merge kernels fold every row's states into one state
// row over zeroSlots, a block at a time, spilled runs read back block by
// block. It takes no scratch, however many rows the bucket has.
func (e *exec) foldGroup(ctx *sched.Ctx, ws *workerState, b *runs.Bucket, prefix uint64, level int) {
	t0 := e.stamp()
	ch := e.newChunk(ws, 1, prefix, level)
	ch.ordered = true
	for w, col := range ch.states {
		col[0] = e.kern.Ops[w].Op.Identity()
	}
	fold := func(r *runs.Run) bool {
		ch.hashes[0] = r.Keys[0]
		for lo := 0; lo < r.Len(); lo += len(zeroSlots) {
			hi := min(r.Len(), lo+len(zeroSlots))
			for w, merge := range e.kern.Merge {
				merge(ch.states[w], zeroSlots[:hi-lo], r.States[w][lo:hi])
			}
		}
		return true
	}
	for _, r := range b.Runs {
		fold(r)
	}
	for _, s := range b.Spilled {
		if !e.readBack(ctx, ws, level, s, fold) {
			return
		}
	}
	ws.stats.hashedRows += int64(b.Rows())
	e.lap(t0, trace.PhaseTableBuild)
	e.emitFinal(ws, ch, prefix, level)
}

// emitFinal recovers the keys of a bucket's final chunk from its hashes,
// once per group, and emits it: the bucket's fused final pass.
func (e *exec) emitFinal(ws *workerState, ch chunk, prefix uint64, level int) {
	t0 := e.stamp()
	hashfn.InverseBatch(ch.hashes, ch.keys)
	e.lap(t0, trace.PhaseSplit)
	e.emit(ws, ch, prefix, level)
	ws.stats.directEmits++
}

// newChunk returns an output chunk of n rows for the bucket at prefix and
// level, its columns cut from the worker's free list; assemble gives them
// to the list of the worker that finalizes the chunk.
func (e *exec) newChunk(ws *workerState, n int, prefix uint64, level int) chunk {
	ch := chunk{
		sortKey: prefix << uint(64-hashfn.DigitBits*min(level, hashfn.MaxLevels)),
		hashes:  ws.free.Col(n),
		keys:    ws.free.Col(n),
		states:  make([][]uint64, e.words),
	}
	for w := range ch.states {
		ch.states[w] = ws.free.Col(n)
	}
	return ch
}

// emit hands a filled chunk to the collector, traced as a table emit.
func (e *exec) emit(ws *workerState, ch chunk, prefix uint64, level int) {
	if e.tr != nil {
		e.tr.Emit(trace.KindTableEmit, ws.id, level, int64(prefix), float64(len(ch.keys)))
	}
	// The output is the caller's memory, not the run's working set.
	e.out.add(ch)
}

// emitTable converts the table's contents into an output chunk tagged with
// the bucket's prefix and hands it to the collector. Rows are emitted in
// slot order; concatenating all chunks in prefix order yields the result
// ordered by bucket prefix. Keys are recovered from the hashes here, once
// per group.
func (e *exec) emitTable(ws *workerState, table *hashtable.Table, prefix uint64, level int) {
	t0 := e.stamp()
	ch := e.newChunk(ws, table.Len(), prefix, level)
	table.EmitColumns(ch.hashes, ch.keys, ch.states)
	table.Reset()
	e.lap(t0, trace.PhaseSplit)
	e.emit(ws, ch, prefix, level)
}
