// Package stream implements durable push-based streaming aggregation on
// top of the batch operator: a StreamAggregator accepts blocks of
// (key, columns) rows through a bounded, memory-governed ingest queue,
// folds them block by block into the epoch accumulator — a growable batch
// hash table (hashtable.Table fed by hashfn.HashBatch and the batch insert
// kernels) whose exact footprint is on the memory ledger, with runs of
// equal adjacent keys pre-folded before the table — and periodically seals
// the accumulator into an epoch
// checkpoint — partial aggregation state written through the runs
// package's CRC-checked block codec, committed by an atomically-renamed,
// checksummed manifest. Resume reconstructs the stream from its checkpoint
// directory after a crash: epochs the manifest never committed are rolled
// back, corrupt state surfaces as a typed error, and ingest continues from
// the last sealed epoch.
//
// # Epoch state machine
//
//	       Push (fold into accumulator)
//	          │
//	┌────────▼────────┐  seal (size/budget/Checkpoint/Finish)
//	│  OPEN epoch e+1 │ ──────────────────────────────┐
//	└─────────────────┘                               │
//	         ▲             write epoch-(e+1).ckpt     │
//	         │             fsync                      │
//	         │             write MANIFEST.tmp, fsync  │
//	         │             rename → MANIFEST          │
//	         │             fsync directory            │
//	         └───── accumulator reset ◄───────────────┘
//
// The rename is the commit point. A crash before it leaves a torn epoch
// file that Resume deletes (state rolls back to the previous manifest); a
// crash after it recovers the epoch. Producers replay un-acknowledged
// input from Progress().RowsDurable.
//
// # Backpressure contract
//
// Push blocks while the bounded queue is full or the memory governor has
// no room for the block, honoring its context; TryPush never blocks and
// returns a *BackpressureError (wrapping ErrBackpressure) carrying a retry
// hint instead. When the governor refuses a block while the accumulator
// holds reserved memory, the aggregator requests an early seal — releasing
// the accumulator's reservation is what un-wedges the budget — so a
// starved stream degrades to smaller epochs instead of deadlocking.
package stream

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cacheagg/internal/agg"
	"cacheagg/internal/faultfs"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/memgov"
	"cacheagg/internal/runs"
	"cacheagg/internal/trace"
)

// Typed sentinels. Every failure mode of the streaming path wraps one of
// these (or context/memgov/runs sentinels), so callers can dispatch
// without string matching.
var (
	// ErrBackpressure is wrapped by *BackpressureError when TryPush finds
	// the ingest queue or the memory budget full.
	ErrBackpressure = errors.New("stream: backpressure")
	// ErrClosed reports an operation on a closed aggregator.
	ErrClosed = errors.New("stream: aggregator closed")
	// ErrFinished reports a Push/Resume on a finished stream.
	ErrFinished = errors.New("stream: already finished")
	// ErrCorruptCheckpoint is wrapped by every structural failure of the
	// checkpoint state: a damaged manifest, a manifest-listed epoch file
	// that is missing, truncated or fails its checksums, or a record
	// count that disagrees with the manifest.
	ErrCorruptCheckpoint = errors.New("stream: corrupt checkpoint")
	// ErrNoCheckpoint reports a Resume on a directory with no manifest.
	ErrNoCheckpoint = errors.New("stream: no checkpoint")
	// ErrSpecMismatch reports a Resume whose Options.Specs disagree with
	// the manifest's recorded aggregate plan.
	ErrSpecMismatch = errors.New("stream: aggregate specs do not match checkpoint")
)

// BackpressureError is the typed refusal of TryPush (and of Push when its
// context expires first): the stream is healthy but full. RetryAfter is
// the producer's hint — retry no sooner than this.
type BackpressureError struct {
	// Reason is "queue" (the bounded block queue is full) or "budget"
	// (the memory governor cannot admit the block).
	Reason string
	// RetryAfter is the suggested backoff before the next attempt.
	RetryAfter time.Duration
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("stream: backpressure (%s full), retry after %v", e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrBackpressure) true for every BackpressureError.
func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// Block is one pushed batch of rows: a key column plus the value columns
// the aggregate specs refer to. All slices must have equal length.
type Block struct {
	Keys []uint64
	Cols [][]int64
}

// Rows returns the number of rows in the block.
func (b Block) Rows() int { return len(b.Keys) }

// Options configures Begin and Resume.
type Options struct {
	// Dir is the checkpoint directory — the stream's durable identity.
	// Begin requires it to hold no manifest; Resume requires one.
	Dir string
	// Specs are the aggregates computed over every pushed block. Resume
	// may leave them nil to adopt the manifest's recorded specs.
	Specs []agg.Spec
	// QueueDepth bounds the ingest queue in blocks; <= 0 selects 16.
	QueueDepth int
	// EpochMaxRows seals the open epoch after this many ingested rows;
	// <= 0 selects 1 << 18.
	EpochMaxRows int64
	// MemoryBudgetBytes bounds the bytes held by queued blocks plus the
	// epoch accumulator, enforced through Governor (created here when
	// nil). 0 means unlimited.
	MemoryBudgetBytes int64
	// Governor, when non-nil, is used instead of a fresh governor built
	// from MemoryBudgetBytes, so one ledger can span several streams.
	Governor *memgov.Governor
	// FS is the checkpoint I/O backend; nil selects the real filesystem.
	// It is wrapped in a faultfs.Retry so transient faults are absorbed.
	FS faultfs.FS
	// Retry configures the transient-fault retry policy; zero fields
	// select faultfs.DefaultRetryPolicy.
	Retry faultfs.RetryPolicy
	// Tracer, when non-nil, receives epoch-seal, checkpoint-write,
	// recover and backpressure events.
	Tracer trace.Tracer
	// RetryHint is the backoff suggested by BackpressureError; <= 0
	// selects 10ms.
	RetryHint time.Duration
	// NoSync skips every fsync (epoch files, manifests, directory).
	// Tests and benchmarks only: a NoSync stream survives process
	// crashes in practice but not power loss.
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.EpochMaxRows <= 0 {
		o.EpochMaxRows = 1 << 18
	}
	if o.RetryHint <= 0 {
		o.RetryHint = 10 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = faultfs.OS()
	}
	return o
}

// Stats is a point-in-time census of the stream's work.
type Stats struct {
	RowsIngested         int64 // raw rows folded into accumulators
	BlocksIngested       int64
	RunsDetected         int64 // sorted/clustered runs of >= 2 equal keys
	RunRows              int64 // rows folded through the run fast path
	EpochsSealed         int64
	CheckpointBytes      int64 // bytes written to epoch files and manifests
	Backpressure         int64 // refused TryPushes + Pushes that had to wait
	EarlySeals           int64 // epochs sealed by memory pressure, not row count
	Snapshots            int64
	RecoveredEpochs      int64 // sealed epochs restored by Resume
	RecoveredRows        int64 // durable raw rows restored by Resume
	TornEpochsRolledBack int64 // un-manifested epoch files deleted by Resume
}

// Progress is the durable high-water mark producers ack against.
type Progress struct {
	// Epoch is the last sealed epoch's sequence number (0 = none).
	Epoch uint64
	// RowsDurable is the count of raw rows folded into sealed epochs: a
	// producer that crashes replays everything after this offset.
	RowsDurable uint64
	// BlocksDurable is the count of pushed blocks fully covered by
	// sealed epochs.
	BlocksDurable uint64
	// RowsBuffered is the count of raw rows folded into the open (not
	// yet durable) accumulator. Queued, un-folded blocks are not
	// included.
	RowsBuffered int64
}

// Result is a finalized aggregate snapshot, deterministically ordered by
// (hash, key) so equal streams produce bit-identical results regardless
// of arrival order, epoch boundaries, or crash/resume history.
type Result struct {
	Keys   []uint64
	Hashes []uint64
	// Aggs has one column per spec: integer result (truncated for AVG).
	Aggs [][]int64
	// AggsFloat has one column per spec: exact float result for AVG,
	// widened integer otherwise.
	AggsFloat [][]float64
	// Epochs is how many sealed epochs the snapshot covers (the open
	// accumulator is always included on top).
	Epochs int
}

// Groups returns the number of groups.
func (r *Result) Groups() int { return len(r.Keys) }

// Aggregator is the durable streaming aggregation session. All methods
// are safe for concurrent use; blocks and control operations are applied
// in one total order by a single consumer goroutine.
type Aggregator struct {
	opts   Options
	layout *agg.Layout  // the specs' state words: AVG is (sum, count)
	kern   *agg.Kernels // the layout's batch kernels
	specs  []agg.Spec
	fs     faultfs.FS // retry-wrapped
	gov    *memgov.Governor
	ownGov bool // governor created here: drain-to-zero is ours to assert
	tr     trace.Tracer
	dir    string

	ch   chan msg
	done chan struct{}
	// Pressure-seal requests, which no full queue can drop: pushWaiters
	// counts the Pushes waiting for the budget, and sealWanted is set by
	// a TryPush the budget refused, until the next seal. While either
	// holds, the consumer seals after every fold (maybeSeal); wake rouses
	// it to check when it is idle.
	pushWaiters atomic.Int32
	sealWanted  atomic.Bool
	wake        chan struct{}

	// sendMu serializes senders (RLock) against lifecycle flips (Lock):
	// once closed is set under the write lock, nothing new can enter ch,
	// so everything queued behind the final control message is control.
	sendMu sync.RWMutex
	closed bool

	failMu  sync.Mutex
	failErr error

	// Consumer-goroutine state (unsynchronized: single owner).
	acc     accum
	epoch   uint64
	man     manifest
	pending int64 // pushed blocks not yet covered by a sealed epoch

	statMu sync.Mutex
	stats  Stats
	prog   Progress
}

// accum is the open epoch's accumulator: one growable batch hash table
// with one state word per decomposed column — unblocked and at most half
// full, like core's grown finalization table — plus reusable scratch. The
// governor holds exactly tab.FootprintBytes() for it while tab is non-nil.
type accum struct {
	tab  *hashtable.Table // nil until the epoch's first fold
	rows int64            // raw rows folded this epoch

	// Fold scratch, one block wide: the run scan's row→segment slot vector
	// and segment keys, hashes, and the pre-folded segment states.
	slots     []int32
	segKeys   []uint64
	hashes    []uint64
	segStates [][]uint64

	// EmitColumns scratch of seal and snapshot, reserved with the governor
	// only while in use.
	outHashes []uint64
	outKeys   []uint64
	outStates [][]uint64
}

// newAccumTable is the accumulator's table shape with at least slots
// slots; growth doubles it. The accumulator starts at the smallest legal
// size, the snapshot merge at twice its largest input.
func newAccumTable(width, slots int) *hashtable.Table {
	return hashtable.New(hashtable.Config{
		CapacityRows: slots,
		Blocks:       1,
		MaxFill:      0.5,
		Words:        width,
	})
}

// sizeFold makes the fold scratch at least n rows wide. A block pre-folds
// its segments only when they are at most half its rows, so the segment
// states need half the width.
func (acc *accum) sizeFold(n, width int) {
	if cap(acc.slots) >= n {
		return
	}
	acc.slots = make([]int32, n)
	acc.segKeys = make([]uint64, n)
	acc.hashes = make([]uint64, n)
	acc.segStates = make([][]uint64, width)
	for w := range acc.segStates {
		acc.segStates[w] = make([]uint64, n/2)
	}
}

// foldBytes is the fold scratch n block rows occupy, as sizeFold lays it
// out: per row a slot, a segment key, a hash, the table's batch slot, and
// half a row of segment states. A queued block reserves it on top of its
// columns, so the working memory of its fold is admitted with it.
func foldBytes(n, width int) int64 { return int64(n) * int64(24+4*width) }

type ctlOp int

const (
	ctlSeal ctlOp = iota
	ctlSnapshot
	ctlFinish
	ctlClose
)

type ctlReply struct {
	epoch uint64
	res   *Result
	err   error
}

type msg struct {
	// Exactly one of push/ctl is set.
	push      *Block
	pushBytes int64
	ctl       ctlOp
	window    int
	reply     chan ctlReply
}

// Begin creates a new durable stream in opts.Dir, which must not already
// hold a checkpoint manifest.
func Begin(opts Options) (*Aggregator, error) {
	opts = opts.withDefaults()
	if err := validateSpecs(opts.Specs); err != nil {
		return nil, err
	}
	a, err := newAggregator(opts)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(a.dir, manifestName)); err == nil {
		return nil, fmt.Errorf("stream: Begin(%s): checkpoint manifest already present (use Resume)", a.dir)
	}
	a.man = manifest{Specs: opts.Specs}
	a.start()
	return a, nil
}

// newAggregator builds the shared skeleton of Begin and Resume: directory,
// filesystem stack, governor, plan. It does not start the consumer.
func newAggregator(opts Options) (*Aggregator, error) {
	if opts.Dir == "" {
		return nil, errors.New("stream: Options.Dir is required (the stream's durable identity)")
	}
	if opts.MemoryBudgetBytes < 0 {
		return nil, fmt.Errorf("stream: MemoryBudgetBytes is negative (%d); use 0 for unlimited", opts.MemoryBudgetBytes)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: create checkpoint dir: %w", err)
	}
	gov := opts.Governor
	own := false
	if gov == nil {
		gov = memgov.New(opts.MemoryBudgetBytes)
		own = true
	}
	a := &Aggregator{
		opts:   opts,
		specs:  opts.Specs,
		fs:     faultfs.NewRetry(opts.FS, opts.Retry),
		gov:    gov,
		ownGov: own,
		tr:     opts.Tracer,
		dir:    opts.Dir,
		ch:     make(chan msg, opts.QueueDepth),
		done:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
	}
	if opts.Specs != nil {
		a.layout = agg.NewLayout(opts.Specs)
	}
	return a, nil
}

// start finalizes the layout-dependent state and launches the consumer.
func (a *Aggregator) start() {
	a.kern = a.layout.Kernels()
	a.statMu.Lock()
	a.prog.Epoch = a.epoch
	a.prog.RowsDurable = a.man.RowsDurable
	a.prog.BlocksDurable = a.man.BlocksDurable
	a.statMu.Unlock()
	go a.run()
}

func validateSpecs(specs []agg.Spec) error {
	if len(specs) == 0 {
		return errors.New("stream: at least one aggregate spec is required")
	}
	for _, s := range specs {
		if !s.Kind.Valid() {
			return fmt.Errorf("stream: invalid aggregate kind %d", int(s.Kind))
		}
		if s.Col < 0 {
			return fmt.Errorf("stream: negative aggregate column %d", s.Col)
		}
	}
	return nil
}

// validateBlock rejects structurally broken blocks before they enter the
// queue, so the consumer never sees one.
func (a *Aggregator) validateBlock(b Block) error {
	for c, col := range b.Cols {
		if len(col) != len(b.Keys) {
			return fmt.Errorf("stream: block column %d has %d rows, keys have %d", c, len(col), len(b.Keys))
		}
	}
	for _, s := range a.specs {
		if s.Kind != agg.Count && s.Col >= len(b.Cols) {
			return fmt.Errorf("stream: %s needs column %d, block has %d", s, s.Col, len(b.Cols))
		}
	}
	return nil
}

func blockBytes(b Block) int64 {
	return int64(8*len(b.Keys)) + int64(8*len(b.Keys)*len(b.Cols))
}

// loadErr returns the stream's sticky failure, if any.
func (a *Aggregator) loadErr() error {
	a.failMu.Lock()
	defer a.failMu.Unlock()
	return a.failErr
}

func (a *Aggregator) fail(err error) {
	a.failMu.Lock()
	if a.failErr == nil {
		a.failErr = err
	}
	a.failMu.Unlock()
	// The open accumulator is dead: its rows were never acknowledged as
	// durable, so producers replay them after Resume. Return its memory.
	a.releaseAcc()
}

// releaseAcc drops the accumulator's table and emit scratch and returns
// the table's reservation.
func (a *Aggregator) releaseAcc() {
	if a.acc.tab != nil {
		a.gov.Release(a.acc.tab.FootprintBytes())
	}
	a.acc.tab = nil
	a.acc.rows = 0
	a.acc.outHashes, a.acc.outKeys, a.acc.outStates = nil, nil, nil
}

// endEpoch empties the accumulator after a seal. An unbudgeted stream
// resets its table in place (O(1)) and keeps it and its reservation for
// the next epoch; a budgeted one drops them, so a pressure seal frees the
// budget.
func (a *Aggregator) endEpoch() {
	if a.gov.Budget() == 0 && a.acc.tab != nil {
		a.acc.tab.Reset()
		a.acc.rows = 0
		return
	}
	a.releaseAcc()
}

// emitScratch sizes the accumulator's emit scratch for n rows and
// reserves it with the governor; releaseScratch returns the reservation.
func (a *Aggregator) emitScratch(n int) int64 {
	acc := &a.acc
	width := a.layout.Words
	if cap(acc.outKeys) < n {
		acc.outHashes = make([]uint64, n)
		acc.outKeys = make([]uint64, n)
		acc.outStates = make([][]uint64, width)
		for w := range acc.outStates {
			acc.outStates[w] = make([]uint64, n)
		}
	}
	bytes := int64(cap(acc.outKeys)) * int64(16+8*width)
	a.gov.Reserve(bytes)
	return bytes
}

// releaseScratch returns the emit scratch's reservation. A budgeted
// stream also drops the scratch, so no unreserved bytes outlive their use.
func (a *Aggregator) releaseScratch(bytes int64) {
	a.gov.Release(bytes)
	if a.gov.Budget() > 0 {
		a.acc.outHashes, a.acc.outKeys, a.acc.outStates = nil, nil, nil
	}
}

// backpressure builds the typed refusal and records the event.
func (a *Aggregator) backpressure(reason string) error {
	a.statMu.Lock()
	a.stats.Backpressure++
	a.statMu.Unlock()
	if a.tr != nil {
		a.tr.Emit(trace.KindBackpressure, 0, 0, int64(len(a.ch)), 1)
	}
	return &BackpressureError{Reason: reason, RetryAfter: a.opts.RetryHint}
}

// wakeConsumer rouses an idle consumer to check for a pressure seal
// (maybeSeal) without blocking; a busy one checks after its fold.
func (a *Aggregator) wakeConsumer() {
	select {
	case a.wake <- struct{}{}:
	default: // a wake-up is pending already
	}
}

// Push enqueues one block, blocking until the queue and the memory budget
// admit it or ctx is done. The block's slices must not be mutated by the
// caller afterwards. A nil error means the block WILL be folded (barring
// a crash — it is durable only once Progress().RowsDurable covers it).
func (a *Aggregator) Push(ctx context.Context, b Block) error {
	return a.push(ctx, b, true)
}

// TryPush is Push without blocking: when the queue or the budget is full
// it returns a *BackpressureError immediately.
func (a *Aggregator) TryPush(b Block) error {
	return a.push(context.Background(), b, false)
}

func (a *Aggregator) push(ctx context.Context, b Block, wait bool) error {
	if err := a.validateBlock(b); err != nil {
		return err
	}
	if b.Rows() == 0 {
		return nil
	}
	a.sendMu.RLock()
	defer a.sendMu.RUnlock()
	if a.closed {
		return ErrClosed
	}
	if err := a.loadErr(); err != nil {
		return err
	}
	bytes := blockBytes(b) + foldBytes(b.Rows(), a.layout.Words)
	if budget := a.gov.Budget(); budget > 0 && bytes > budget {
		return a.gov.BudgetError("stream: ingest block", bytes)
	}
	if !a.gov.TryReserve(bytes) {
		// The accumulator's reservation is what crowds the budget;
		// sealing it is the release valve.
		if !wait {
			a.sealWanted.Store(true)
			a.wakeConsumer()
			return a.backpressure("budget")
		}
		a.statMu.Lock()
		a.stats.Backpressure++
		a.statMu.Unlock()
		if a.tr != nil {
			a.tr.Emit(trace.KindBackpressure, 0, 0, int64(len(a.ch)), 1)
		}
		a.pushWaiters.Add(1)
		a.wakeConsumer()
		err := a.gov.TryReserveOrWait(ctx, bytes)
		a.pushWaiters.Add(-1)
		if err != nil {
			return err
		}
	}
	m := msg{push: &b, pushBytes: bytes}
	select {
	case a.ch <- m:
		return nil
	default:
	}
	// Queue full: a refusal for TryPush, a counted stall for Push.
	if !wait {
		a.gov.Release(bytes)
		return a.backpressure("queue")
	}
	a.statMu.Lock()
	a.stats.Backpressure++
	a.statMu.Unlock()
	if a.tr != nil {
		a.tr.Emit(trace.KindBackpressure, 0, 0, int64(len(a.ch)), 1)
	}
	select {
	case a.ch <- m:
		return nil
	case <-ctx.Done():
		a.gov.Release(bytes)
		return ctx.Err()
	}
}

// control round-trips one control operation through the consumer, keeping
// its position in the ingest order.
func (a *Aggregator) control(ctx context.Context, op ctlOp, window int, flip bool) (ctlReply, error) {
	if flip {
		a.sendMu.Lock()
		if a.closed {
			a.sendMu.Unlock()
			return ctlReply{}, ErrClosed
		}
		a.closed = true
		defer a.sendMu.Unlock()
	} else {
		a.sendMu.RLock()
		if a.closed {
			a.sendMu.RUnlock()
			return ctlReply{}, ErrClosed
		}
		defer a.sendMu.RUnlock()
	}
	reply := make(chan ctlReply, 1)
	select {
	case a.ch <- msg{ctl: op, window: window, reply: reply}:
	case <-ctx.Done():
		return ctlReply{}, ctx.Err()
	}
	select {
	case r := <-reply:
		return r, r.err
	case <-ctx.Done():
		// The operation is queued and will execute; only the caller
		// stops waiting.
		return ctlReply{}, ctx.Err()
	}
}

// Checkpoint seals the open epoch (after folding everything queued ahead
// of it) and returns the sealed epoch's sequence number. Sealing an empty
// accumulator is a no-op that returns the current epoch.
func (a *Aggregator) Checkpoint(ctx context.Context) (uint64, error) {
	r, err := a.control(ctx, ctlSeal, 0, false)
	return r.epoch, err
}

// Snapshot merges the last `window` sealed epochs plus the open
// accumulator into a finalized result (window <= 0 means all epochs): the
// stream's rolling-window query. Ingest ordered before the call is
// included; ingest ordered after is not.
func (a *Aggregator) Snapshot(ctx context.Context, window int) (*Result, error) {
	r, err := a.control(ctx, ctlSnapshot, window, false)
	return r.res, err
}

// Finish seals the open epoch, marks the manifest finished, returns the
// final result over all epochs and shuts the stream down. After Finish
// every method returns ErrClosed (and Resume on the directory returns
// ErrFinished).
func (a *Aggregator) Finish(ctx context.Context) (*Result, error) {
	r, err := a.control(ctx, ctlFinish, 0, true)
	return r.res, err
}

// Close shuts the stream down without sealing: buffered rows are folded
// then dropped with the open accumulator (durable state keeps the last
// sealed epoch; producers replay from Progress().RowsDurable after
// Resume). Safe to call more than once and after Finish.
func (a *Aggregator) Close() error {
	a.sendMu.Lock()
	if a.closed {
		a.sendMu.Unlock()
		<-a.done
		return nil
	}
	a.closed = true
	a.ch <- msg{ctl: ctlClose}
	a.sendMu.Unlock()
	<-a.done
	return nil
}

// Stats returns a copy of the stream's counters.
func (a *Aggregator) Stats() Stats {
	a.statMu.Lock()
	defer a.statMu.Unlock()
	return a.stats
}

// Progress returns the durable high-water mark.
func (a *Aggregator) Progress() Progress {
	a.statMu.Lock()
	defer a.statMu.Unlock()
	return a.prog
}

// Specs returns the stream's aggregate specs (Resume may have adopted
// them from the manifest).
func (a *Aggregator) Specs() []agg.Spec { return a.specs }

// Dir returns the checkpoint directory.
func (a *Aggregator) Dir() string { return a.dir }

// ---------------------------------------------------------------------------
// Consumer.

// run is the single consumer goroutine: it owns the accumulator and the
// manifest, applying blocks and control operations in arrival order.
func (a *Aggregator) run() {
	defer close(a.done)
	for {
		var m msg
		select {
		case m = <-a.ch:
		case <-a.wake:
			if a.loadErr() == nil {
				if err := a.maybeSeal(); err != nil {
					a.fail(err)
				}
			}
			continue
		}
		switch {
		case m.push != nil:
			if a.loadErr() != nil {
				a.gov.Release(m.pushBytes)
				continue
			}
			err := a.fold(*m.push)
			a.gov.Release(m.pushBytes)
			if err == nil {
				err = a.maybeSeal()
			}
			if err != nil {
				a.fail(err)
			}
		case m.ctl == ctlSeal:
			ep, err := a.sealChecked()
			m.reply <- ctlReply{epoch: ep, err: err}
		case m.ctl == ctlSnapshot:
			res, err := a.snapshot(m.window)
			m.reply <- ctlReply{res: res, err: err}
		case m.ctl == ctlFinish:
			res, err := a.finish()
			// Release before replying: Finish's caller may read the
			// ledger, and an unbudgeted stream keeps its table past a seal.
			a.releaseAcc()
			m.reply <- ctlReply{res: res, err: err}
			return
		case m.ctl == ctlClose:
			a.releaseAcc()
			return
		}
	}
}

// fold merges one block into the accumulator table through the batch
// kernels. One scan finds the segments of equal adjacent keys. When runs
// remove at least half the rows (sorted or clustered input), each segment
// is pre-folded into one state row with the same fold kernels and the
// segments are merged into the table (in-stream early aggregation, sound
// by the super-aggregate law); otherwise the raw rows go straight in. It
// fails only when the table cannot grow (see fill).
func (a *Aggregator) fold(b Block) error {
	acc := &a.acc
	n := len(b.Keys)
	width := a.layout.Words
	if acc.tab == nil {
		acc.tab = newAccumTable(width, hashtable.MinBlockRows)
		a.gov.Reserve(acc.tab.FootprintBytes())
	}
	acc.sizeFold(n, width)
	keys, slots, segKeys := b.Keys, acc.slots[:n], acc.segKeys[:n]
	var runs, runRows int64
	g, start := 0, 0
	segKeys[0], slots[0] = keys[0], 0
	for r := 1; r < n; r++ {
		if keys[r] != keys[r-1] {
			if r-start >= 2 {
				runs++
				runRows += int64(r - start)
			}
			g++
			segKeys[g] = keys[r]
			start = r
		}
		slots[r] = int32(g)
	}
	if n-start >= 2 {
		runs++
		runRows += int64(n - start)
	}
	g++
	var err error
	if 2*(n-g) >= n {
		err = a.foldSegments(b, g)
	} else {
		hashes := acc.hashes[:n]
		hashfn.HashBatch(keys, hashes)
		err = a.fill(acc.tab, n, func(i int) int {
			return acc.tab.InsertRawBatch(hashes[i:], nil, b.Cols, i, a.kern)
		})
	}
	if err != nil {
		return err
	}
	acc.rows += int64(n)
	a.pending++
	a.statMu.Lock()
	a.stats.RowsIngested += int64(n)
	a.stats.BlocksIngested++
	a.stats.RunsDetected += runs
	a.stats.RunRows += runRows
	a.prog.RowsBuffered = acc.rows
	a.statMu.Unlock()
	return nil
}

// foldSegments pre-folds each of the block's g segments (the slot vector
// of fold's scan maps rows to segments) into one state row, starting from
// the word identities, and merges the segment rows into the table.
func (a *Aggregator) foldSegments(b Block, g int) error {
	acc := &a.acc
	n := len(b.Keys)
	states := acc.segStates
	for w, op := range a.kern.Ops {
		id := op.Op.Identity()
		col := states[w][:g]
		for i := range col {
			col[i] = id
		}
	}
	slots := acc.slots[:n]
	for w, fold := range a.kern.Fold {
		var vals []int64
		if c := a.kern.Cols[w]; c >= 0 {
			vals = b.Cols[c][:n]
		}
		fold(states[w], slots, vals)
	}
	hashes := acc.hashes[:g]
	hashfn.HashBatch(acc.segKeys[:g], hashes)
	return a.insertStates(acc.tab, hashes, states)
}

// insertStates merges the state rows of hashes and states into tab. The
// hash is the group: the table stores no key, and EmitColumns recovers the
// keys at seal and snapshot.
func (a *Aggregator) insertStates(tab *hashtable.Table, hashes []uint64, states [][]uint64) error {
	return a.fill(tab, len(hashes), func(i int) int {
		return tab.InsertStateBatch(hashes[i:], nil, states, i, a.kern)
	})
}

// fill inserts rows [0, n) into tab through insert, which absorbs rows
// from i on and returns how many it took. When an insert stops short the
// table grows: the doubled columns are reserved before they are allocated
// and the old ones released afterwards. Like every fold and merge
// reservation this is unconditional; a fold's budget is checked at the
// block boundary (maybeSeal). A table at hashtable.MaxSlots cannot grow:
// fill then returns the governor's budget error, the rows from i on not
// inserted.
func (a *Aggregator) fill(tab *hashtable.Table, n int, insert func(i int) int) error {
	for i := 0; i < n; {
		if i += insert(i); i < n {
			old := tab.FootprintBytes()
			a.gov.Reserve(2 * old)
			if !tab.Grow() {
				a.gov.Release(2 * old)
				return a.gov.BudgetError(fmt.Sprintf("stream: table at its cap of %d slots", tab.CapacityRows()), 2*old)
			}
			// The old columns, or the whole reservation had Grow found
			// room in the allocation.
			a.gov.Release(3*old - tab.FootprintBytes())
		}
	}
	return nil
}

// maybeSeal seals when the open epoch crossed the row threshold, or under
// memory pressure (pressure seal): while a Push waits for the budget, after
// a TryPush it refused, or when the accumulator pushed the governor over
// it.
func (a *Aggregator) maybeSeal() error {
	if a.acc.rows >= a.opts.EpochMaxRows {
		return a.seal()
	}
	if a.acc.rows > 0 && (a.pushWaiters.Load() > 0 || a.sealWanted.Load() || a.gov.OverBudget()) {
		a.statMu.Lock()
		a.stats.EarlySeals++
		a.statMu.Unlock()
		return a.seal()
	}
	return nil
}

// sealChecked is seal behind the sticky-failure gate, for explicit
// Checkpoint calls.
func (a *Aggregator) sealChecked() (uint64, error) {
	if err := a.loadErr(); err != nil {
		return a.epoch, err
	}
	if err := a.seal(); err != nil {
		a.fail(err)
		return a.epoch, err
	}
	return a.epoch, nil
}

// seal makes the open accumulator durable: epoch file through the block
// codec, fsync, manifest commit. On any error the orphan epoch file is
// removed and the previous manifest remains the truth.
func (a *Aggregator) seal() error {
	if a.acc.rows == 0 {
		return nil
	}
	// Whatever called it, the seal answers a refused TryPush's request.
	a.sealWanted.Store(false)
	seq := a.epoch + 1
	path := filepath.Join(a.dir, epochFileName(seq))
	w, err := runs.NewBlockWriter(a.fs, path, "checkpoint", a.layout.Words)
	if err != nil {
		return fmt.Errorf("stream: seal epoch %d: %w", seq, err)
	}
	groups := a.acc.tab.Len()
	scratch := a.emitScratch(groups)
	defer a.releaseScratch(scratch)
	keys, states := a.acc.outKeys[:groups], a.acc.outStates
	a.acc.tab.EmitColumns(a.acc.outHashes[:groups], keys, states)
	for i, k := range keys {
		if err := w.AppendState(k, states, i); err != nil {
			w.Abort()
			a.fs.Remove(path)
			return fmt.Errorf("stream: seal epoch %d: %w", seq, err)
		}
	}
	if err := w.Finish(!a.opts.NoSync); err != nil {
		w.Abort()
		a.fs.Remove(path)
		return fmt.Errorf("stream: seal epoch %d: %w", seq, err)
	}
	if a.tr != nil {
		a.tr.Emit(trace.KindCheckpointWrite, 0, 0, int64(seq), float64(w.Bytes()))
	}
	m := a.man.clone()
	m.Epochs = append(m.Epochs, epochEntry{
		Seq:     seq,
		Records: uint64(groups),
		Bytes:   w.Bytes(),
	})
	m.RowsDurable += uint64(a.acc.rows)
	m.BlocksDurable += uint64(a.pending)
	manBytes, err := a.commitManifest(m)
	if err != nil {
		a.fs.Remove(path) // roll the orphan epoch back ourselves
		return fmt.Errorf("stream: seal epoch %d: %w", seq, err)
	}
	a.man = m
	a.epoch = seq
	a.pending = 0
	if a.tr != nil {
		a.tr.Emit(trace.KindEpochSeal, 0, 0, int64(seq), float64(groups))
	}
	a.statMu.Lock()
	a.stats.EpochsSealed++
	a.stats.CheckpointBytes += w.Bytes() + manBytes
	a.prog.Epoch = seq
	a.prog.RowsDurable = m.RowsDurable
	a.prog.BlocksDurable = m.BlocksDurable
	a.prog.RowsBuffered = 0
	a.statMu.Unlock()
	a.endEpoch()
	return nil
}

// commitManifest writes m to MANIFEST.tmp, fsyncs, atomically renames it
// over MANIFEST and fsyncs the directory — the commit point of the seal.
func (a *Aggregator) commitManifest(m manifest) (int64, error) {
	b := m.encode()
	tmp := filepath.Join(a.dir, manifestName+".tmp")
	f, err := a.fs.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("create manifest: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		a.fs.Remove(tmp)
		return 0, fmt.Errorf("write manifest: %w", err)
	}
	if !a.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			a.fs.Remove(tmp)
			return 0, fmt.Errorf("sync manifest: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		a.fs.Remove(tmp)
		return 0, fmt.Errorf("close manifest: %w", err)
	}
	if err := a.fs.Rename(tmp, filepath.Join(a.dir, manifestName)); err != nil {
		a.fs.Remove(tmp)
		return 0, fmt.Errorf("commit manifest: %w", err)
	}
	if !a.opts.NoSync {
		if err := a.syncDir(); err != nil {
			return 0, fmt.Errorf("sync checkpoint dir: %w", err)
		}
	}
	if a.tr != nil {
		a.tr.Emit(trace.KindCheckpointWrite, 0, 0, -1, float64(len(b)))
	}
	return int64(len(b)), nil
}

// syncDir fsyncs the checkpoint directory so the manifest rename itself
// is durable.
func (a *Aggregator) syncDir() error {
	d, err := a.fs.Open(a.dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// finish seals, marks the manifest finished, and computes the final
// result.
func (a *Aggregator) finish() (*Result, error) {
	if err := a.loadErr(); err != nil {
		return nil, err
	}
	if err := a.seal(); err != nil {
		a.fail(err)
		return nil, err
	}
	res, err := a.snapshot(0)
	if err != nil {
		return nil, err
	}
	m := a.man.clone()
	m.Finished = true
	if _, err := a.commitManifest(m); err != nil {
		return nil, fmt.Errorf("stream: finish: %w", err)
	}
	a.man = m
	return res, nil
}

// snapshot merges the last `window` sealed epochs plus the open
// accumulator into one table of the accumulator's shape and finalizes per
// the original specs. The table starts at twice the largest input — the
// merge holds at least that many groups — and doubles through fill when a
// merge stops short. Epoch partials go in as read, with no widening; the
// live table goes in with its emitted hashes. The table, the emit scratch
// and each decoded epoch are reserved with the governor while held,
// unconditionally, so a Snapshot always materializes.
func (a *Aggregator) snapshot(window int) (*Result, error) {
	if err := a.loadErr(); err != nil {
		return nil, err
	}
	epochs := a.man.Epochs
	if window > 0 && window < len(epochs) {
		epochs = epochs[len(epochs)-window:]
	}
	live := 0
	if a.acc.tab != nil {
		live = a.acc.tab.Len()
	}
	largest := live
	for _, e := range epochs {
		largest = max(largest, int(e.Records))
	}
	res := &Result{Epochs: len(epochs)}
	a.statMu.Lock()
	a.stats.Snapshots++
	a.statMu.Unlock()
	if largest == 0 {
		res.Aggs = make([][]int64, len(a.specs))
		res.AggsFloat = make([][]float64, len(a.specs))
		return res, nil
	}

	width := a.layout.Words
	tab := newAccumTable(width, 2*largest)
	a.gov.Reserve(tab.FootprintBytes())
	defer func() { a.gov.Release(tab.FootprintBytes()) }()
	// The emit scratch holds the live rows, then each epoch's hashes.
	scratch := a.emitScratch(largest)
	defer a.releaseScratch(scratch)
	if live > 0 {
		hashes := a.acc.outHashes[:live]
		a.acc.tab.EmitColumns(hashes, nil, a.acc.outStates)
		if err := a.insertStates(tab, hashes, a.acc.outStates); err != nil {
			return nil, err
		}
	}
	for _, e := range epochs {
		if err := a.mergeEpoch(tab, e); err != nil {
			return nil, err
		}
	}

	groups := tab.Len()
	keys, hashes := make([]uint64, groups), make([]uint64, groups)
	parts := make([][]uint64, width)
	for w := range parts {
		parts[w] = make([]uint64, groups)
	}
	tab.EmitColumns(hashes, keys, parts)
	finalize(a.layout, keys, hashes, parts, res)
	sortResult(res)
	return res, nil
}

// mergeEpoch reads sealed epoch e and merges its partials into tab. The
// decoded columns are reserved with the governor, at the file's size,
// while they are held.
func (a *Aggregator) mergeEpoch(tab *hashtable.Table, e epochEntry) error {
	a.gov.Reserve(e.Bytes)
	defer a.gov.Release(e.Bytes)
	path := filepath.Join(a.dir, epochFileName(e.Seq))
	keys, states, err := runs.ReadBlockFile(a.fs, path, "checkpoint", a.layout.Words)
	if err != nil {
		return fmt.Errorf("%w: epoch %d: %w", ErrCorruptCheckpoint, e.Seq, err)
	}
	if uint64(len(keys)) != e.Records {
		return fmt.Errorf("%w: epoch %d holds %d records, manifest says %d",
			ErrCorruptCheckpoint, e.Seq, len(keys), e.Records)
	}
	hashes := a.acc.outHashes[:len(keys)]
	hashfn.HashBatch(keys, hashes)
	return a.insertStates(tab, hashes, states)
}

// finalize turns merged state columns into the specs' results, as
// core's finalizeChunk does, and fills every float column: AVG's exact
// quotient, every other spec widened. hashes are the groups' hashes as
// the merge table emitted them.
func finalize(lay *agg.Layout, keys, hashes []uint64, states [][]uint64, res *Result) {
	n := len(keys)
	res.Keys, res.Hashes = keys, hashes
	res.Aggs = make([][]int64, len(lay.Specs))
	res.AggsFloat = make([][]float64, len(lay.Specs))
	for si, sp := range lay.Specs {
		ints, floats := make([]int64, n), make([]float64, n)
		off := lay.Offsets[si]
		sp.Kind.FinalizeColumn(ints, floats, states[off:off+sp.Kind.Width()])
		if sp.Kind != agg.Avg {
			for g, v := range ints {
				floats[g] = float64(v)
			}
		}
		res.Aggs[si], res.AggsFloat[si] = ints, floats
	}
}

// sortResult orders the result by hash, which is the group (Murmur2 on a
// uint64 key is a bijection): the canonical order that makes snapshots
// bit-identical across arrival orders, epoch splits and crash/resume
// histories.
func sortResult(res *Result) {
	n := len(res.Keys)
	perm := make([]int32, n)
	hashfn.Order(res.Hashes, perm)
	keys := make([]uint64, n)
	hashes := make([]uint64, n)
	hashfn.Gather(keys, res.Keys, perm)
	hashfn.Gather(hashes, res.Hashes, perm)
	res.Keys, res.Hashes = keys, hashes
	for c := range res.Aggs {
		col := make([]int64, n)
		for i, s := range perm {
			col[i] = res.Aggs[c][s]
		}
		res.Aggs[c] = col
	}
	for c := range res.AggsFloat {
		col := make([]float64, n)
		for i, s := range perm {
			col[i] = res.AggsFloat[c][s]
		}
		res.AggsFloat[c] = col
	}
}
