package core

import (
	"cmp"
	"context"
	"fmt"
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

// scratchRows is the block size of the intake loop: hashes and initial
// aggregate states of up to this many rows are materialized at a time
// before being handed to a routine. The block stays cache resident.
const scratchRows = 4096

// Footprint returns the operator's memory terms for aggregate states of
// the given word width under cfg (CacheBytes 0 selects the default):
// fixed is the bytes of one worker's machinery and perRow the bytes of one
// output-chunk row. A governed run reserves exactly Workers·fixed up
// front; admission and the external path size themselves from the same
// two numbers.
func Footprint(cfg Config, words int) (fixed, perRow int64) {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	return workerBytes(cacheRows(cfg.CacheBytes, words), words), chunkRowBytes(words)
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
// the intake scratch blocks (hashes and states), the packed-row scratch
// and the scatterer's write-combining buffers.
func workerBytes(tableRows, words int) int64 {
	b := int64(tableRows) * int64(hashtable.SlotBytes(words))
	b += int64(scratchRows * 8 * (1 + words)) // hashScratch + stateScratch
	b += int64(8 * words)                     // rowScratch
	return b + swcBytes(words)
}

// swcBytes is the scatterer's §4.2 write-combining buffers: DefaultBufRows
// run rows per partition.
func swcBytes(words int) int64 {
	return int64(hashfn.Fanout*partition.DefaultBufRows) * runRowBytes(words)
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
	stateScratch [][]uint64    // words × scratchRows, for intake partitioning
	stateViews   [][]uint64    // reusable column-view scratch
	rowScratch   []uint64      // one packed state row
	local        []runs.Bucket // intake's level-0 buckets, empty between runs
	// intakeSplit says the worker's intake put rows into its level-0
	// buckets: it split a table or scattered a row, or the run may spill.
	// Until then its table holds everything it consumed, for finishIntake.
	intakeSplit bool

	// mem is the worker's reservation cache against the shared governor
	// (nil, a no-op, when no governor is configured).
	mem *memgov.Cache
	// kit is the pooled kit the machinery above came from, if any; recycle
	// hands the machinery back in it.
	kit *workerKit

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
	table        *hashtable.Table
	finalTables  map[int]*hashtable.Table
	grownTables  map[int]*hashtable.Table
	scat         *partition.Scatterer
	free         *runs.Free
	hashScratch  []uint64
	stateScratch [][]uint64
	stateViews   [][]uint64
	rowScratch   []uint64
	local        []runs.Bucket
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

func newExec(cfg Config, in *Input) (*exec, error) {
	lay := agg.NewLayout(in.Specs)
	if err := in.validate(lay); err != nil {
		return nil, err
	}
	if cfg.Spill != nil {
		if cfg.Governor == nil {
			cfg.Governor = memgov.New(0) // a spill tier keeps the ledger
		} else if b := cfg.Governor.Budget(); b > 0 {
			cfg = sizeForSpill(cfg, lay.Words, b)
		}
	}
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
	if e.finalRows < 1 {
		e.finalRows = 1
	}
	e.chunkRow = chunkRowBytes(e.words)
	e.interRow = runRowBytes(e.words)
	// The pool is only as wide as the intake's morsels: a worker without a
	// morsel would only add machinery to reserve and a goroutine to start.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	grain := cfg.MorselRows
	if grain <= 0 {
		grain = sched.DefaultGrain
	}
	e.pool = sched.NewPool(max(min(workers, (len(in.Keys)+grain-1)/grain), 1))
	e.workers = make([]workerState, e.pool.Workers())
	e.kits = kitKey{cacheRows: e.cacheRows, words: e.words, chunkRows: cfg.ChunkRows}
	kp := kitPool(e.kits)
	for w := range e.workers {
		ws := &e.workers[w]
		ws.id = w
		if k, _ := kp.Get().(*workerKit); k != nil {
			ws.kit = k
			ws.table = k.table
			ws.finalTables = k.finalTables
			ws.grownTables = k.grownTables
			ws.scat = k.scat
			ws.free = k.free
			ws.hashScratch = k.hashScratch
			ws.stateScratch = k.stateScratch
			ws.stateViews = k.stateViews
			ws.rowScratch = k.rowScratch
			ws.local = k.local
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
				CapacityRows: e.cacheRows,
				Blocks:       hashfn.Fanout,
				Words:        e.words,
			})
			ws.finalTables = make(map[int]*hashtable.Table)
			ws.grownTables = make(map[int]*hashtable.Table)
			ws.free = &runs.Free{}
			ws.scat = partition.New(partition.Config{
				Level:     0,
				Words:     e.words,
				ChunkRows: cfg.ChunkRows,
				Free:      ws.free,
			})
			ws.hashScratch = make([]uint64, scratchRows)
			ws.stateScratch = make([][]uint64, e.words)
			for i := range ws.stateScratch {
				ws.stateScratch[i] = make([]uint64, scratchRows)
			}
			ws.stateViews = make([][]uint64, e.words)
			ws.rowScratch = make([]uint64, e.words)
			ws.local = make([]runs.Bucket, hashfn.Fanout)
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
	if e.tr != nil && e.gov != nil {
		// Sample the ledger's high water into the trace: every 64th of the
		// budget, at least 32 KiB apart, or every MiB without a budget.
		grain := int64(1 << 20)
		if b := e.gov.Budget(); b > 0 {
			grain = max(b/64, 32<<10)
		}
		tr := e.tr
		e.gov.SetHighWaterHook(grain, func(hw int64) {
			tr.Emit(trace.KindGovHighWater, 0, 0, -1, float64(hw))
		})
	}
	if e.gov != nil {
		// Register the fixed per-worker machinery up front (workerBytes).
		// If even that doesn't fit the budget, fail before touching the
		// input: no spill can free it.
		fixed := int64(len(e.workers)) * workerBytes(e.cacheRows, e.words)
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
		*k = workerKit{
			table:        ws.table,
			finalTables:  ws.finalTables,
			grownTables:  ws.grownTables,
			scat:         ws.scat,
			free:         ws.free,
			hashScratch:  ws.hashScratch,
			stateScratch: ws.stateScratch,
			stateViews:   ws.stateViews,
			rowScratch:   ws.rowScratch,
			local:        ws.local,
		}
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
// into the largest one when a pre-check shows the union cannot overflow it,
// and emit that. Otherwise every table still holding rows is split into the
// root buckets, as its worker's own flush would have done. It runs on one
// goroutine, after the intake pool has quiesced; a worker whose intake
// split has flushed its table already, so only kept tables hold rows.
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
// emitted hash and state columns, and reports true; it leaves every table
// as it was and reports false when the union might not fit target. The
// pre-check bounds the union by target's rows plus the other tables' rows
// whose hash target lacks, in rows against target's fill limit and per
// block against the block's slots, so the merge cannot fail halfway. The
// bound is exact for two tables; beyond, it counts a group new to target
// once per other table that holds it.
func (e *exec) absorbIntake(target *workerState) bool {
	blockRows := target.table.CapacityRows() / hashfn.Fanout
	var occ [hashfn.Fanout]int
	total := 0
	emitted := make([]runs.Run, len(e.workers))
	for w := range e.workers {
		ws, r := &e.workers[w], &emitted[w]
		n := ws.table.Len()
		if n == 0 {
			continue
		}
		e.timed(ws, 0, func() {
			t0 := e.stamp()
			r.Keys, r.States = ws.free.Col(n), make([][]uint64, e.words)
			for i := range r.States {
				r.States[i] = ws.free.Col(n)
			}
			ws.table.EmitColumns(r.Keys, nil, r.States)
			for _, h := range r.Keys {
				if ws == target || !target.table.Contains(h) {
					occ[hashfn.Digit(h, 0)]++
					total++
				}
			}
			e.lap(t0, trace.PhaseSplit)
		})
	}
	fits := total <= target.table.MaxRows()
	for _, n := range occ {
		fits = fits && n <= blockRows
	}
	e.timed(target, 0, func() {
		t0 := e.stamp()
		for w := range e.workers {
			ws, r := &e.workers[w], &emitted[w]
			if r.Keys == nil {
				continue
			}
			if fits && ws != target {
				m := target.table.InsertStateBatch(r.Keys, nil, r.States, 0, e.kern)
				target.stats.hashedRows += int64(m)
				if m < r.Len() {
					panic("core: intake absorb overflowed")
				}
				ws.table.Reset()
			}
			ws.free.Put(r.Keys)
			for _, col := range r.States {
				ws.free.Put(col)
			}
		}
		e.lap(t0, trace.PhaseTableBuild)
	})
	return fits
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
			// Table full at row i+done: split into the local buckets.
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

// scatterRaw hashes a block of raw rows, materializes their initial
// aggregate states, and scatters hashes and states (the intake variant of
// the PARTITIONING routine).
func (e *exec) scatterRaw(ws *workerState, scat *partition.Scatterer,
	keys []uint64, cols [][]int64, lo, hi int) {
	n := hi - lo
	hs := ws.hashScratch[:n]
	hashfn.HashBatch(keys[lo:hi], hs)
	for w, op := range e.kern.Ops {
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
	scat.Scatter(hs, hs, views)
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

	// Out of hash digits: all rows share the full 64-bit hash, which is
	// the group, so the bucket holds one key. Finalize with a table sized
	// to the bucket. The level is passed through unclamped so the chunk
	// sort key keeps the full 64-bit prefix; finalizeGrown clamps the
	// table level itself.
	if level >= hashfn.MaxLevels {
		e.finalizeGrown(ctx, ws, b, prefix, level)
		return nil
	}

	// Leaf rule: a bucket whose rows fit one cache-sized table (at the
	// relaxed leaf fill, the paper's fused final pass holding "a factor B
	// more partitions") certainly has few enough groups for a single
	// in-cache pass (groups ≤ rows), independent of the strategy.
	if n <= e.finalRows {
		e.finalizeLeaf(ctx, ws, b, level, prefix)
		return nil
	}

	st := e.cfg.Strategy.NewState(level, e.cacheRows)
	if st.NextMode() == ModeFinal {
		// Fixed-pass strategy demands its single growing hashing pass.
		e.finalizeGrown(ctx, ws, b, prefix, level)
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
			// caller's decision loop (matching the scalar path, which
			// returns after every emit).
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
		e.reserveMachinery(ws, t.FootprintBytes())
	}
	t.Reset()
	t.SetLevel(min(level, hashfn.MaxLevels-1))
	return t
}

// finalizeLeaf aggregates a leaf bucket with one in-cache hashing pass and
// emits the result. The table is sized to the bucket (emitting scans the
// whole table, so a cache-sized table would waste a full scan on a 64-row
// bucket).
func (e *exec) finalizeLeaf(ctx *sched.Ctx, ws *workerState, b *runs.Bucket, level int, prefix uint64) {
	e.finalize(ctx, ws, b, e.leafTable(ws, b.Rows(), level), prefix, level)
}

// absorbRun feeds an entire run, hashes carried, through the batch merge
// path into table, reporting false if the table cannot hold it.
func (e *exec) absorbRun(ws *workerState, table *hashtable.Table, r *runs.Run) bool {
	n := r.Len()
	for i := 0; i < n; {
		blk := min(n-i, scratchRows)
		m := table.InsertStateBatch(r.Keys[i:i+blk], nil, r.States, i, e.kern)
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
// cache budget if necessary. Used for fixed-pass strategies (ModeFinal)
// and for buckets past the last digit, which hold one key each.
func (e *exec) finalizeGrown(ctx *sched.Ctx, ws *workerState, b *runs.Bucket, prefix uint64, level int) {
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
		e.reserveMachinery(ws, table.FootprintBytes())
		if capRows <= 4*e.cacheRows {
			// Retained across buckets as worker machinery.
			ws.grownTables[capRows] = table
			retained = true
		}
	}
	if !retained {
		defer e.reserveMachinery(ws, -table.FootprintBytes())
	}
	table.Reset()
	table.SetLevel(min(level, hashfn.MaxLevels-1))
	e.finalize(ctx, ws, b, table, prefix, level)
}

// finalize is the fused final pass: it absorbs every run of b into table,
// spilled ones read back block by block, and emits the table. Both callers
// size the table so it cannot fill: an unblocked table whose fill limit is
// at least the bucket's rows, hence its groups.
func (e *exec) finalize(ctx *sched.Ctx, ws *workerState, b *runs.Bucket, table *hashtable.Table, prefix uint64, level int) {
	t0 := e.stamp()
	for _, r := range b.Runs {
		if !e.absorbRun(ws, table, r) {
			panic("core: finalization table overflowed")
		}
	}
	for _, s := range b.Spilled {
		if !e.readBack(ctx, ws, level, s, func(r *runs.Run) bool {
			if !e.absorbRun(ws, table, r) {
				panic("core: finalization table overflowed")
			}
			return true
		}) {
			return
		}
	}
	e.lap(t0, trace.PhaseTableBuild)
	e.emitTable(ws, table, prefix, level)
	ws.stats.directEmits++
}

// emitTable converts the table's contents into an output chunk tagged with
// the bucket's prefix and hands it to the collector. Rows are emitted in
// block order, i.e. ordered by the next hash digit — concatenating all
// chunks in prefix order yields the hash-ordered result. Keys are
// recovered from the hashes here, once per group. The chunk's columns
// come from the worker's free list; assemble gives them to the list of
// the worker that finalizes the chunk.
func (e *exec) emitTable(ws *workerState, table *hashtable.Table, prefix uint64, level int) {
	n := table.Len()
	t0 := e.stamp()
	ch := chunk{
		sortKey: prefix << uint(64-hashfn.DigitBits*min(level, hashfn.MaxLevels)),
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
	// The output is the caller's memory, not the run's working set.
	e.out.add(ch)
}
