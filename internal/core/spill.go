package core

// The spill tier: the disk level of the external memory model, run by the
// same executor. The paper's Section 2 analysis "holds in the cache setting
// as well as in the disk-based setting", so a run on disk is only a run one
// level down: a governed run with a spill target that goes over its budget
// writes the largest bucket it owns to a file instead of failing (the
// largest-first eviction of dynamic hybrid hashing), and the bucket's task
// reads the file back one block at a time through the same HASHING and
// PARTITIONING routines, which still recurse by the next digit. Partial
// aggregates are spilled as they are — states, not raw rows — so early
// aggregation keeps paying off after the spill.
//
// Ownership keeps the tier free of new synchronization: a worker spills only
// buckets it owns — its intake-local buckets, or the sub-buckets of the
// bucket it is passing over and the children it has built but not yet
// spawned — and the level-0 buckets spill between intake and recursion,
// when one goroutine runs. A run fails typed only at the floor: when
// nothing it owns is left to spill and the machinery no spill can free
// exceeds the budget.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cacheagg/internal/faultfs"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/runs"
	"cacheagg/internal/sched"
	"cacheagg/internal/trace"
)

// Spill is the spill target of a run (Config.Spill).
type Spill struct {
	// Dir is where the run's spill directory is created, on first use;
	// "" selects the system temp directory. The directory and every file
	// in it are removed when the run returns, on success and on error.
	Dir string
	// FS is the spill-file backend; nil selects the real file system. It
	// is wrapped in a faultfs.Retry, so transient faults are absorbed.
	FS faultfs.FS
	// Retry configures the transient-fault retries; zero fields select
	// faultfs.DefaultRetryPolicy.
	Retry faultfs.RetryPolicy
	// MaxSpillBytes caps the bytes written to spill files over the run;
	// the write that would exceed it fails the run with
	// runs.ErrSpillBudget. 0 means no cap.
	MaxSpillBytes int64
}

// SpillStats reports what the spill tier of a run did.
type SpillStats struct {
	// Buckets counts bucket spills; each writes one file, and a bucket
	// that refills can spill again.
	Buckets int
	// ResidentRoots counts the non-empty level-0 buckets that never
	// spilled.
	ResidentRoots int
	// Rows and Bytes count the records written; a record is the key and
	// the state words, 8 bytes each.
	Rows, Bytes int64
	// DeepestRead is the deepest level that read a spilled run back
	// (level-0 buckets are read at level 1); 0 when nothing was read.
	DeepestRead int
	// Retries counts transient spill-I/O faults absorbed by the retries.
	Retries int64
	// CleanupFailures counts spill files whose removal failed; the spill
	// directory is still removed recursively at the end.
	CleanupFailures int
}

// minSpillCacheBytes is the smallest cache budget spill sizing hands out;
// at any width its table is the operator's minimum.
const minSpillCacheBytes = 32 << 10

// sizedForSpill fits a run with a spill target under a byte budget to
// that budget (sizeForSpill); any other config is returned as it is.
func (cfg Config) sizedForSpill(words int) Config {
	if cfg.Spill != nil && cfg.Governor != nil {
		if b := cfg.Governor.Budget(); b > 0 {
			return sizeForSpill(cfg, words, b)
		}
	}
	return cfg
}

// sizeForSpill fits a spilling run to its byte budget: few enough workers
// that their fixed machinery leaves two thirds of the budget to runs, and
// an eighth of the budget per worker as cache. It only ever shrinks what
// was asked for.
func sizeForSpill(cfg Config, words int, budget int64) Config {
	// One worker's machinery at the smallest cache handed out below, whose
	// table is the operator's floor; its SWC buffers dominate.
	perWorker, _ := Footprint(Config{CacheBytes: minSpillCacheBytes}, words)
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if maxW := int(budget / (3 * perWorker)); w > maxW {
		w = max(maxW, 1)
	}
	cfg.Workers = w
	if target := int(budget / int64(8*w)); cfg.CacheBytes > target {
		cfg.CacheBytes = max(target, minSpillCacheBytes)
	}
	return cfg
}

// spiller is one run's spill tier: the target, the spill directory, the
// files alive in it and the counters.
type spiller struct {
	cfg      Spill
	fs       *faultfs.Retry
	rowBytes int64 // bytes of one record: key and state words
	forced   bool  // no byte budget: every level-0 bucket goes to disk

	// machinery counts the finalization tables reserved beyond the fixed
	// machinery; with it, the floor no spill can free.
	machinery atomic.Int64
	disk      atomic.Int64 // bytes written, headers and footers included

	mu    sync.Mutex
	dir   string // created on first spill
	ids   int
	live  map[string]struct{} // files written and not yet removed
	stats SpillStats
}

func newSpiller(cfg Spill, words int, forced bool, tr trace.Tracer) *spiller {
	s := &spiller{cfg: cfg, rowBytes: int64(8 * (1 + words)), forced: forced, live: make(map[string]struct{})}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS()
	}
	if tr != nil {
		prev := cfg.Retry.OnRetry
		cfg.Retry.OnRetry = func(op faultfs.Op) {
			if prev != nil {
				prev(op)
			}
			tr.Emit(trace.KindSpillRetry, 0, 0, int64(op), 1)
		}
	}
	s.fs = faultfs.NewRetry(cfg.FS, cfg.Retry)
	return s
}

// newFile names the next spill file, creating the spill directory on
// first use, and charges the file's header and footer to the spill cap.
func (s *spiller) newFile() (string, int, error) {
	if err := s.charge(runs.BlockFileOverhead); err != nil {
		return "", 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		dir, err := os.MkdirTemp(s.cfg.Dir, "cacheagg-spill-*")
		if err != nil {
			return "", 0, fmt.Errorf("core: %w", err)
		}
		s.dir = dir
	}
	s.ids++
	path := filepath.Join(s.dir, fmt.Sprintf("part-%06d.spill", s.ids))
	s.live[path] = struct{}{}
	return path, s.ids, nil
}

// charge takes n bytes of the spill cap, failing before the write that
// would exceed it.
func (s *spiller) charge(n int) error {
	d := s.disk.Add(int64(n))
	if limit := s.cfg.MaxSpillBytes; limit > 0 && d > limit {
		return fmt.Errorf("core: %w: %d bytes spilled, next write of %d bytes exceeds MaxSpillBytes=%d",
			runs.ErrSpillBudget, d-int64(n), n, limit)
	}
	return nil
}

// remove deletes a spill file, counting (not ignoring) a failed removal.
func (s *spiller) remove(path string) {
	err := s.fs.Remove(path)
	s.mu.Lock()
	delete(s.live, path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.stats.CleanupFailures++
	}
	s.mu.Unlock()
}

// close removes every file still alive and the spill directory. It runs
// once the pool has quiesced, on every return path of the run.
func (s *spiller) close() {
	if s == nil {
		return
	}
	for path := range s.live {
		s.remove(path)
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// result returns the counters of the finished run.
func (s *spiller) result() SpillStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Retries = s.fs.Retries()
	return st
}

// floorErr returns the typed failure of a run at the floor: still over
// budget with the footprint no spill can free — the fixed worker machinery
// and the finalization tables — over it alone; nil otherwise.
func (e *exec) floorErr() error {
	floor := e.fixedBytes + e.spill.machinery.Load()
	if !e.gov.OverBudget() || floor <= e.gov.Budget() {
		return nil
	}
	return fmt.Errorf("core: working set %d of %d bytes with nothing left to spill (floor %d bytes): %w",
		e.gov.Reserved(), e.gov.Budget(), floor, ErrMemoryBudget)
}

// reserveMachinery accounts worker machinery beyond the fixed reservation
// (the finalization tables), which counts towards the floor.
func (e *exec) reserveMachinery(ws *workerState, n int64) {
	ws.mem.Reserve(n)
	if e.spill != nil {
		e.spill.machinery.Add(n)
	}
}

// spillLargest spills the buckets of set holding rows in memory, busy
// excepted, largest first: until the ledger is under budget, or all of
// them.
func (e *exec) spillLargest(ws *workerState, set []runs.Bucket, busy *runs.Bucket, all bool) error {
	type cand struct {
		b    *runs.Bucket
		rows int
	}
	var cs []cand
	for d := range set {
		if b := &set[d]; b != busy {
			if n := b.MemRows(); n > 0 {
				cs = append(cs, cand{b, n})
			}
		}
	}
	slices.SortStableFunc(cs, func(x, y cand) int { return cmp.Compare(y.rows, x.rows) })
	for _, c := range cs {
		if err := e.spillBucket(ws, c.b); err != nil {
			return err
		}
		ws.mem.Flush()
		if !all && !e.gov.OverBudget() {
			return nil
		}
	}
	return e.floorErr()
}

// relieve brings an over-budget run back under budget by spilling the
// buckets this worker owns, largest first, skipping busy (the bucket its
// task is about to consume). A worker that owns nothing more keeps going,
// so others can spill theirs or consume what they hold, unless the run is
// at the floor, which fails it typed.
func (e *exec) relieve(ctx *sched.Ctx, ws *workerState, busy *runs.Bucket) bool {
	if ws.ownedScat {
		// The scatterer's writers hold rows of the owned buckets.
		views := make([]*runs.Bucket, hashfn.Fanout)
		for d := range ws.owned {
			views[d] = &ws.owned[d]
		}
		ws.scat.SealInto(views)
	}
	if err := e.spillLargest(ws, ws.owned, busy, false); err != nil {
		ctx.Fail(err)
		return false
	}
	return true
}

// spillRoots runs between intake and recursion, on one goroutine: a run
// without a byte budget writes every level-0 bucket to disk, a budgeted run
// spills them largest first until the ledger is back under budget.
func (e *exec) spillRoots() error {
	for w := range e.workers {
		e.workers[w].mem.Flush()
	}
	if e.spill.forced || e.gov.OverBudget() {
		if err := e.spillLargest(&e.workers[0], e.root, nil, e.spill.forced); err != nil {
			return err
		}
	}
	n := 0
	for d := range e.root {
		if e.root[d].Rows() > 0 && len(e.root[d].Spilled) == 0 {
			n++
		}
	}
	e.spill.stats.ResidentRoots = n
	return nil
}

// spillWriter returns the worker's block writer, created on first use
// with the hooks that charge the spill cap, count and trace each block.
func (e *exec) spillWriter(ws *workerState) *runs.BlockWriter {
	if ws.spillW != nil {
		return ws.spillW
	}
	w := &runs.BlockWriter{}
	var t0 time.Time
	w.OnBlock = func(encBytes, rows int) error {
		t0 = e.stamp()
		if err := e.spill.charge(encBytes); err != nil {
			return err
		}
		e.spill.mu.Lock()
		e.spill.stats.Rows += int64(rows)
		e.spill.stats.Bytes += int64(rows) * e.spill.rowBytes
		e.spill.mu.Unlock()
		return nil
	}
	w.OnFlush = func(rows int) {
		if e.tr != nil {
			e.tr.Emit(trace.KindSpillWrite, ws.id, 0, int64(ws.spillID), float64(rows))
		}
		e.lap(t0, trace.PhaseSpill)
	}
	ws.spillW = w
	return w
}

// spillBucket writes the in-memory runs of b to one new spill file and
// frees them: their reservation goes back to the governor and their
// columns to the worker's free list.
func (e *exec) spillBucket(ws *workerState, b *runs.Bucket) error {
	n := b.MemRows()
	path, id, err := e.spill.newFile()
	if err != nil {
		return err
	}
	w := e.spillWriter(ws)
	ws.spillID = id
	if err := w.Create(e.spill.fs, path, "spill", e.words); err != nil {
		// Create removed whatever it had created.
		e.spill.mu.Lock()
		delete(e.spill.live, path)
		e.spill.mu.Unlock()
		return err
	}
	for _, r := range b.Runs {
		if err = w.AppendRun(r.Keys, r.States); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Finish(false)
	}
	if err != nil {
		w.Abort()
		e.spill.remove(path)
		return err
	}
	b.Spilled = append(b.Spilled, runs.Spilled{Path: path, Rows: n})
	for _, r := range b.Runs {
		ws.free.Recycle(r)
	}
	b.Runs = nil
	ws.mem.Reserve(-int64(n) * e.interRow)
	e.spill.mu.Lock()
	e.spill.stats.Buckets++
	e.spill.mu.Unlock()
	return nil
}

// readBack streams spilled run s through fn one block at a time, decoded
// into the worker's read-back run, which fn must not retain: reserve one
// block, decode, consume, release, and remove the file once it is read.
// It reports false when fn stopped or the run failed.
func (e *exec) readBack(ctx *sched.Ctx, ws *workerState, level int, s runs.Spilled, fn func(*runs.Run) bool) bool {
	rd := &ws.reader
	if err := rd.Open(e.spill.fs, s.Path, "spill", e.words); err != nil {
		ctx.Fail(err)
		return false
	}
	if e.tr != nil {
		e.tr.Emit(trace.KindSpillRead, ws.id, level, -1, float64(s.Rows))
	}
	if ws.backKeys == nil {
		ws.backKeys = make([]uint64, runs.BlockRows)
		ws.backStates = make([][]uint64, e.words)
		for w := range ws.backStates {
			ws.backStates[w] = make([]uint64, runs.BlockRows)
		}
		ws.back = &runs.Run{States: make([][]uint64, e.words)}
	}
	blockBytes := int64(runs.BlockRows) * e.interRow
	ws.mem.Reserve(blockBytes)
	ok := true
	for ok {
		if ctx.Aborted() {
			ok = false
			break
		}
		n, err := rd.Next(ws.backKeys, ws.backStates)
		if err == io.EOF {
			break
		}
		if err != nil {
			ctx.Fail(err)
			ok = false
			break
		}
		r := ws.back
		r.Keys = ws.backKeys[:n]
		for w, col := range ws.backStates {
			r.States[w] = col[:n]
		}
		ok = fn(r)
	}
	ws.mem.Reserve(-blockBytes)
	if err := rd.Close(); err != nil && ok {
		ctx.Fail(err)
		ok = false
	}
	if ok {
		e.spill.remove(s.Path)
	}
	return ok
}
