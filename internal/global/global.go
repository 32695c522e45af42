// Package global implements a single shared concurrent hash table that all
// workers fold into, instead of the share-nothing per-worker block tables of
// the partitioned routine. It is a standalone component: the operator does
// not use it, and benchmark/replay.go measures it directly.
//
// "Global Hash Tables Strike Back!" (arXiv:2505.04153) shows that on
// many-core machines with a high reduction factor α (rows per group), a
// shared table beats partition-everything: when most rows hit a small hot
// working set of groups, per-worker tables pay the full partition/merge
// memory traffic only to re-aggregate the same keys P times. The shared
// table folds every row exactly once — at the cost of atomic contention,
// which this package bounds so the routine degrades instead of livelocking.
//
// Design:
//
//   - Geometry mirrors internal/hashtable: 256 blocks addressed by the TOP
//     hash digit, linear probing inside a block addressed by the LOW hash
//     bits. Draining therefore yields one aggregated run per radix-256
//     digit, which drops straight into the core recursion's root buckets.
//   - Slot claim is a CAS protocol on a per-slot epoch-versioned meta word:
//     meta = epoch<<2 | phase with phase ∈ {0 free, 1 claiming, 2 ready}.
//     A claimer CASes free→claiming, plain-writes hash/key/initial state,
//     then atomically publishes ready (release); readers atomic-load meta
//     (acquire) before touching the slot, so the plain writes are ordered
//     without per-word atomics on the claim path.
//   - Folds into ready slots are per-word atomics: SUM/COUNT words use
//     atomic add (wrapping, bit-identical to the scalar kernels in any
//     interleaving by commutativity+associativity), MIN/MAX words use a
//     CAS loop with an early predicate exit — every failed CAS means some
//     other worker succeeded, so the loop is lock-free with global
//     progress. AVG is exact because it is two OpAdd words (sum+count).
//   - Contention and fill never livelock a worker: the wait for a slot in
//     the claiming phase is bounded, the in-block probe is bounded, and a
//     whole batch has a bounded contention budget. When any bound trips,
//     the row ESCAPES — the caller folds it into its private local table
//     instead. Escapes are counted so the caller can see the table
//     misbehaving.
//   - Growth is a cooperative stop-the-world split: inserters hold a shared
//     RLock for the duration of one batch (the hot path inside stays
//     CAS-only), the grower takes the write lock, doubles the block size
//     and rehashes. New memory is gated by the memgov ledger — a refused
//     reservation permanently disables growth and lets escapes absorb the
//     overflow instead of breaking the budget.
package global

import (
	"math"
	"sync"
	"sync/atomic"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/memgov"
	"cacheagg/internal/runs"
)

const (
	phaseBits     = 2
	phaseMask     = (1 << phaseBits) - 1
	phaseClaiming = 1
	phaseReady    = 2
	// epochMax is the largest epoch representable in the meta word; Reset
	// rezeroes and wraps when it is reached (same scheme as hashtable).
	epochMax = math.MaxUint32 >> phaseBits

	// blockShift extracts the top radix digit: the block index.
	blockShift = 64 - hashfn.DigitBits

	// DefaultSpinLimit bounds the wait on a slot stuck in the claiming
	// phase. The claim window is three plain stores plus one atomic store,
	// so a handful of re-reads almost always observes ready; a claimer
	// descheduled mid-claim must not stall the observer, hence the bound.
	DefaultSpinLimit = 64

	// MinRows is the smallest usable capacity: every one of the 256 blocks
	// needs at least a few slots for probing to make sense.
	MinRows = hashfn.Fanout * 8

	pipelineWidth = 8
)

// Config sizes a shared table.
type Config struct {
	// CapacityRows is the initial slot count, rounded up to a power of two
	// and floored at MinRows.
	CapacityRows int
	// MaxCapacityRows caps cooperative growth; 0 disables growth entirely.
	MaxCapacityRows int
	// MaxFill is the claimed-slot fraction that triggers growth (and, when
	// growth is exhausted or refused, escapes). Defaults to 0.25 — the
	// same probe-friendly limit as the per-worker tables.
	MaxFill float64
	// Ops is the per-state-word fold description (layout.WordOps()).
	Ops []agg.WordOp
	// Governor gates growth reservations; nil means ungoverned. The
	// INITIAL capacity is the caller's reservation (FootprintBytes).
	Governor *memgov.Governor
	// SpinLimit overrides DefaultSpinLimit (for tests); 0 = default.
	SpinLimit int
}

// Table is the shared concurrent aggregation table. All Insert* methods are
// safe for concurrent use; Drain/Len-style inspection requires external
// quiescence (callers drain after the worker pool has joined).
type Table struct {
	ops       []agg.WordOp
	words     int
	maxFill   float64
	spinLimit int
	gov       *memgov.Governor
	maxCap    int

	// mu is the batch-granular growth lock: inserters hold it shared for
	// one batch, the grower exclusively. The fast path takes no other lock.
	mu sync.RWMutex

	// Geometry and storage; mutated only under mu (write-locked).
	capRows   int
	blockRows int
	blockMask uint64
	meta      []uint32   // epoch<<2|phase per slot; accessed atomically
	hashes    []uint64   // plain, published by meta
	keys      []uint64   // plain, published by meta
	states    [][]uint64 // words × capRows; atomic folds after publish

	epoch uint32

	claimed   atomic.Int64 // distinct groups (ready slots)
	rowsIn    atomic.Int64 // rows folded in (absorbed, not escaped)
	escaped   atomic.Int64 // rows handed back to callers
	contended atomic.Int64 // claim-spins + CAS-fold retries observed
	grows     atomic.Int64
	noGrow    atomic.Bool // governor refused, or cap reached
}

func ceilPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// New creates a shared table. The caller is responsible for reserving
// FootprintBytes of the initial capacity against its governor.
func New(cfg Config) *Table {
	capRows := ceilPow2(max(cfg.CapacityRows, MinRows))
	maxFill := cfg.MaxFill
	if maxFill <= 0 || maxFill > 0.9 {
		maxFill = 0.25
	}
	spin := cfg.SpinLimit
	if spin <= 0 {
		spin = DefaultSpinLimit
	}
	maxCap := cfg.MaxCapacityRows
	if maxCap < capRows {
		maxCap = capRows // 0 or undersized: growth disabled
	}
	t := &Table{
		ops:       cfg.Ops,
		words:     len(cfg.Ops),
		maxFill:   maxFill,
		spinLimit: spin,
		gov:       cfg.Governor,
		maxCap:    ceilPow2(maxCap),
		epoch:     1,
	}
	t.alloc(capRows)
	return t
}

// alloc installs fresh zeroed storage of the given capacity. Caller must
// hold mu exclusively (or be the constructor).
func (t *Table) alloc(capRows int) {
	t.capRows = capRows
	t.blockRows = capRows / hashfn.Fanout
	t.blockMask = uint64(t.blockRows - 1)
	t.meta = make([]uint32, capRows)
	t.hashes = make([]uint64, capRows)
	t.keys = make([]uint64, capRows)
	t.states = make([][]uint64, t.words)
	for w := range t.states {
		t.states[w] = make([]uint64, capRows)
	}
}

// SlotBytes is the per-slot memory cost for a table with the given number
// of state words: meta + hash + key + states.
func SlotBytes(words int) int64 { return 4 + 8 + 8 + 8*int64(words) }

// FootprintBytes is the table's current allocation size, the quantity the
// owner reserves against the memory governor (growth deltas are reserved by
// the table itself).
func (t *Table) FootprintBytes() int64 { return int64(t.capRows) * SlotBytes(t.words) }

// CapacityRows returns the current slot count.
func (t *Table) CapacityRows() int { return t.capRows }

// Len returns the number of groups (claimed slots). Safe concurrently, but
// only approximate while inserts are in flight.
func (t *Table) Len() int { return int(t.claimed.Load()) }

// RowsIn returns the number of rows folded into the table.
func (t *Table) RowsIn() int64 { return t.rowsIn.Load() }

// Escaped returns the number of rows that escaped to callers.
func (t *Table) Escaped() int64 { return t.escaped.Load() }

// Contended returns the cumulative contention events (claim-phase spins and
// failed fold CASes) observed by inserters.
func (t *Table) Contended() int64 { return t.contended.Load() }

// Grows returns the number of completed stop-the-world growth splits.
func (t *Table) Grows() int64 { return t.grows.Load() }

// Alpha returns the observed reduction factor rows/groups. 0 while the
// table is empty.
func (t *Table) Alpha() float64 {
	g := t.claimed.Load()
	if g == 0 {
		return 0
	}
	return float64(t.rowsIn.Load()) / float64(g)
}

// Reset recycles the table for a new run: epoch bump invalidates every slot
// in O(1); on epoch wrap the meta array is rezeroed.
func (t *Table) Reset() {
	t.epoch++
	if t.epoch > epochMax {
		t.epoch = 1
		clear(t.meta)
	}
	t.claimed.Store(0)
	t.rowsIn.Store(0)
	t.escaped.Store(0)
	t.contended.Store(0)
	t.grows.Store(0)
	t.noGrow.Store(false)
}

// live reports whether meta holds a published slot of the current epoch.
func (t *Table) live(m uint32) bool {
	return m>>phaseBits == t.epoch && m&phaseMask == phaseReady
}

// InsertBatch folds rows of one hashed batch into the shared table.
// hs[i] is the hash of ks[i]; the row's aggregate inputs are read from
// cols[op.Col][base+i] (SrcOne words ignore cols). Rows that cannot be
// absorbed under the contention/fill bounds have their batch-relative index
// appended to esc. Returns the grown esc slice and the number of contention
// events observed while processing the batch.
//
// The method never blocks beyond its bounds: a full block, a slot stuck in
// the claiming phase past the spin limit, a full table that cannot grow, or
// an exhausted per-batch contention budget all turn into escapes.
func (t *Table) InsertBatch(hs, ks []uint64, cols [][]int64, base int, esc []int32) ([]int32, int) {
	t.mu.RLock()
	esc, contended, needGrow := t.insertLocked(hs, ks, cols, base, esc)
	t.mu.RUnlock()
	if needGrow {
		t.grow()
	}
	if n := len(esc); n > 0 {
		t.escaped.Add(int64(n))
	}
	if contended > 0 {
		t.contended.Add(int64(contended))
	}
	return esc, contended
}

func (t *Table) insertLocked(hs, ks []uint64, cols [][]int64, base int, esc []int32) ([]int32, int, bool) {
	blockRows := t.blockRows
	blockMask := t.blockMask
	meta := t.meta
	hashes := t.hashes
	keys := t.keys
	epoch := t.epoch
	readyWord := epoch<<phaseBits | phaseReady
	claimWord := epoch<<phaseBits | phaseClaiming
	limit := int64(float64(t.capRows) * t.maxFill)
	escStart := len(esc)

	// Warm pass: touch the home slot of each row a small distance ahead of
	// the resolve loop (the software-pipelined probe idiom): by the time
	// the resolve loop reaches row i, its slot's cache line is in flight.
	var warmSink uint32
	warm := len(hs)
	if warm > pipelineWidth {
		warm = pipelineWidth
	}
	for i := 0; i < warm; i++ {
		h := hs[i]
		s := int(h>>blockShift)*blockRows + int(h&blockMask)
		warmSink += atomic.LoadUint32(&meta[s])
	}
	_ = warmSink

	contended := 0
	// Per-batch contention budget: a worker that keeps losing races stops
	// fighting and lets the rest of the batch escape to its local table.
	budget := t.spinLimit * len(hs)
	absorbed := int64(0)
	needGrow := false

	for i := 0; i < len(hs); i++ {
		if w := i + pipelineWidth; w < len(hs) {
			h := hs[w]
			s := int(h>>blockShift)*blockRows + int(h&blockMask)
			warmSink += atomic.LoadUint32(&meta[s])
		}
		if contended > budget {
			// Bound tripped: escape the whole remaining tail at once.
			for ; i < len(hs); i++ {
				esc = append(esc, int32(i))
			}
			break
		}
		h, k := hs[i], ks[i]
		blockBase := int(h>>blockShift) * blockRows
		j := h & blockMask
	probe:
		for probes := 0; probes < blockRows; {
			s := blockBase + int(j)
			m := atomic.LoadUint32(&meta[s])
			if m>>phaseBits != epoch || m&phaseMask == 0 {
				// Free slot. Fill check first: past the limit the table
				// wants to grow, and this row escapes rather than claiming
				// into an over-full table.
				if t.claimed.Load() >= limit {
					needGrow = true
					esc = append(esc, int32(i))
					break probe
				}
				if !atomic.CompareAndSwapUint32(&meta[s], m, claimWord) {
					// Lost the claim race; re-examine the slot (it now
					// belongs to someone — possibly folding our own key).
					contended++
					continue probe
				}
				// Claimed: plain writes, then publish (release). The
				// initial state is the row's own contribution.
				hashes[s] = h
				keys[s] = k
				for w := range t.ops {
					op := &t.ops[w]
					v := int64(1)
					if op.Src == agg.SrcCol {
						v = cols[op.Col][base+i]
					}
					t.states[w][s] = uint64(v)
				}
				atomic.StoreUint32(&meta[s], readyWord)
				t.claimed.Add(1)
				absorbed++
				break probe
			}
			if m == claimWord {
				// Mid-claim by another worker: bounded wait for publish.
				spun := 0
				for ; spun < t.spinLimit; spun++ {
					m = atomic.LoadUint32(&meta[s])
					if m != claimWord {
						break
					}
				}
				contended += spun
				if m == claimWord {
					esc = append(esc, int32(i))
					break probe
				}
				// Published (or epoch changed — impossible mid-run);
				// re-examine the slot without advancing the probe.
				continue probe
			}
			// Ready slot of the current epoch.
			if hashes[s] == h && keys[s] == k {
				contended += t.fold(s, cols, base+i)
				absorbed++
				break probe
			}
			j = (j + 1) & blockMask
			probes++
			if probes == blockRows {
				// Block exhausted by other keys.
				needGrow = true
				esc = append(esc, int32(i))
			}
		}
	}
	if absorbed > 0 {
		t.rowsIn.Add(absorbed)
	}
	_ = escStart
	return esc, contended, needGrow
}

// fold atomically combines one raw row into a published slot, one state
// word at a time. Returns the number of failed MIN/MAX CASes (each one
// means another worker made progress — lock-free, never a livelock).
func (t *Table) fold(s int, cols [][]int64, row int) int {
	retries := 0
	for w := range t.ops {
		op := &t.ops[w]
		v := int64(1)
		if op.Src == agg.SrcCol {
			v = cols[op.Col][row]
		}
		word := &t.states[w][s]
		switch op.Op {
		case agg.OpAdd:
			atomic.AddUint64(word, uint64(v))
		case agg.OpMin:
			for {
				cur := atomic.LoadUint64(word)
				if int64(v) >= int64(cur) {
					break
				}
				if atomic.CompareAndSwapUint64(word, cur, uint64(v)) {
					break
				}
				retries++
			}
		case agg.OpMax:
			for {
				cur := atomic.LoadUint64(word)
				if int64(v) <= int64(cur) {
					break
				}
				if atomic.CompareAndSwapUint64(word, cur, uint64(v)) {
					break
				}
				retries++
			}
		}
	}
	return retries
}

// grow performs the cooperative stop-the-world split: it takes the write
// lock (stalling inserters at their next batch boundary), doubles the
// capacity, and rehashes every live slot into the new geometry. Growth is
// abandoned — permanently, escapes absorb the overflow — when the capacity
// cap is reached or the governor refuses the new memory.
func (t *Table) grow() {
	if t.noGrow.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Re-check under the lock: another worker may have grown already.
	limit := int64(float64(t.capRows) * t.maxFill)
	if t.claimed.Load() < limit || t.noGrow.Load() {
		return
	}
	newCap := t.capRows * 2
	if newCap > t.maxCap {
		t.noGrow.Store(true)
		return
	}
	delta := int64(newCap-t.capRows) * SlotBytes(t.words)
	if t.gov != nil && !t.gov.TryReserve(delta) {
		t.noGrow.Store(true)
		return
	}
	oldMeta, oldHashes, oldKeys, oldStates := t.meta, t.hashes, t.keys, t.states
	oldCap := t.capRows
	t.alloc(newCap)
	// Exclusive access: plain reads of the old arrays, plain writes of the
	// new ones. Rehash preserves per-block low-bit probe order; within a
	// block the relative order of keys may change, which is fine — drains
	// promise no intra-block order.
	ready := t.epoch<<phaseBits | phaseReady
	for s := 0; s < oldCap; s++ {
		if !t.live(oldMeta[s]) {
			continue
		}
		h := oldHashes[s]
		blockBase := int(h>>blockShift) * t.blockRows
		j := h & t.blockMask
		for {
			d := blockBase + int(j)
			if t.meta[d] != ready {
				t.meta[d] = ready
				t.hashes[d] = h
				t.keys[d] = oldKeys[s]
				for w := range t.states {
					t.states[w][d] = oldStates[w][s]
				}
				break
			}
			j = (j + 1) & t.blockMask
		}
	}
	t.grows.Add(1)
}

// DrainRuns scans the table and returns one aggregated run per radix-256
// digit (index = top hash digit; empty digits are nil). Rows appear in
// block slot order — no intra-block ordering is promised. The caller must
// guarantee quiescence (no concurrent inserts); the core drains after the
// intake pool has joined. Like every run, a drained one holds keys and
// states, not hashes.
//
// Draining does not reset the table; pair with Reset for reuse.
func (t *Table) DrainRuns() [hashfn.Fanout]*runs.Run {
	var out [hashfn.Fanout]*runs.Run
	for d := 0; d < hashfn.Fanout; d++ {
		lo := d * t.blockRows
		hi := lo + t.blockRows
		n := 0
		for s := lo; s < hi; s++ {
			if t.live(t.meta[s]) {
				n++
			}
		}
		if n == 0 {
			continue
		}
		r := &runs.Run{
			Keys:   make([]uint64, 0, n),
			States: make([][]uint64, t.words),
		}
		for w := range r.States {
			r.States[w] = make([]uint64, 0, n)
		}
		for s := lo; s < hi; s++ {
			if !t.live(t.meta[s]) {
				continue
			}
			r.Keys = append(r.Keys, t.keys[s])
			for w := range r.States {
				r.States[w] = append(r.States[w], t.states[w][s])
			}
		}
		out[d] = r
	}
	return out
}
