// Package trace is the execution-observability layer: a pluggable Tracer
// that the operator threads through every execution stage (core build,
// scatter/split, spill I/O, reading spilled buckets back, governor).
//
// The design goal is that an *absent* tracer costs one nil-check per block
// of work and an *installed* tracer costs two atomic stores per event plus
// a handful of lock-free word writes into a fixed-size ring. There are no
// locks, no allocations, and no channels on any emission path, so the
// tracer can stay installed in benchmark runs without distorting them.
//
// Two views of the same stream:
//
//   - Counters: per-worker cache-line-padded lanes of atomic counts and
//     float sums, one slot per event Kind, folded on demand by Snapshot.
//     These are exact — every Emit is counted even when the ring wraps —
//     and are what the reconcile tests compare against core/external Stats.
//   - Events: a bounded lock-free ring holding the most recent events with
//     nanosecond timestamps, for timeline export (JSONL) and debugging.
//     When more events are emitted than the ring holds, the oldest are
//     overwritten; Snapshot.Dropped reports how many.
//
// Phase accounting is separate from events: AddPhase charges elapsed
// nanoseconds to one of the fixed execution phases (intake, scatter,
// table-build, split, spill, merge). See docs/OBSERVABILITY.md for the
// phase model (which phases are wall time and which are summed worker
// activity).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// Phase identifies one bucket of the per-phase time breakdown.
type Phase uint8

const (
	// PhaseIntake is the wall time of the input-consumption phase: from
	// the first morsel handed to the pool until every intake task has
	// finished (including recursive bucket finalization spawned from it).
	PhaseIntake Phase = iota
	// PhaseScatter is summed worker activity spent partitioning rows into
	// buckets (scatter kernels, all recursion levels).
	PhaseScatter
	// PhaseTableBuild is summed worker activity spent hashing and
	// inserting rows into hash tables (all levels).
	PhaseTableBuild
	// PhaseSplit is summed worker activity spent splitting or sealing
	// full tables into sorted-by-hash runs and emitting output columns.
	PhaseSplit
	// PhaseSpill is summed writer activity spent encoding and writing
	// spill blocks (runs that spilled only).
	PhaseSpill
	// PhaseMerge is the wall time of the recursion phase of a run whose
	// level-0 buckets spilled: the out-of-core merge that reads them back.
	PhaseMerge

	// NumPhases is the number of phases; valid Phase values are < NumPhases.
	NumPhases = 6
)

var phaseNames = [NumPhases]string{
	"intake", "scatter", "table-build", "split", "spill", "merge",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Kind identifies the type of an emitted event. The per-event meaning of
// the Part and Value fields is documented next to each kind.
type Kind uint8

const (
	// KindStrategySwitch: the adaptive controller switched HASHING →
	// PARTITIONING after a table emit. Part = partition prefix (-1 at
	// intake level), Value = the observed α that triggered the switch.
	KindStrategySwitch Kind = iota
	// KindTableSplit: a full hash table was split into sorted runs and
	// recycled (paper's "spill" of the in-memory strategy). Part =
	// partition prefix (-1 at intake), Value = the table's α.
	KindTableSplit
	// KindTableEmit: a final (pure or finalized) table emitted output
	// groups directly. Part = partition prefix, Value = groups emitted.
	KindTableEmit
	// KindSpillWrite: one column-major block was encoded and written to a
	// spill file. Part = spill file id, Value = rows in the block.
	KindSpillWrite
	// KindSpillRead: one spill file was opened to be read back.
	// Part = -1, Value = rows in the file.
	KindSpillRead
	// KindSpillRetry: a transient spill-I/O fault was retried.
	// Part = faultfs op code, Value = 1.
	KindSpillRetry
	// KindMergeStart: a bucket task began reading a spilled bucket back.
	// Part = the bucket's hash prefix, Value = the bucket's rows.
	KindMergeStart
	// KindMergeFinish: the task consumed it. Part and Value mirror the
	// matching KindMergeStart.
	KindMergeFinish
	// KindGovHighWater: the governor's reservation high-water mark rose
	// past another sampling grain. Part = -1, Value = high water in bytes.
	KindGovHighWater
	// KindEpochSeal: a streaming epoch was sealed — its accumulator is
	// durable on disk and the manifest committed. Part = epoch sequence
	// number, Value = groups (records) in the epoch file.
	KindEpochSeal
	// KindCheckpointWrite: one checkpoint artifact (epoch file or
	// manifest) finished writing, before the manifest commit makes it
	// live. Part = epoch sequence number (-1 for the manifest),
	// Value = file size in bytes.
	KindCheckpointWrite
	// KindRecover: a stream resumed from its checkpoint directory.
	// Part = sealed epochs restored, Value = durable rows recovered.
	KindRecover
	// KindBackpressure: a push was refused (ErrBackpressure) or blocked
	// because the ingest queue or memory budget was full. Part = queue
	// length at refusal, Value = 1.
	KindBackpressure
	// KindInternGrow: a shard of the key-interning dictionary grew its
	// open-addressed index and republished it (an epoch boundary for
	// lock-free readers of that shard). Part = shard number,
	// Value = the new slot count.
	KindInternGrow

	// NumKinds is the number of kinds; valid Kind values are < NumKinds.
	NumKinds = 14
)

var kindNames = [NumKinds]string{
	"strategy-switch", "table-split", "table-emit",
	"spill-write", "spill-read", "spill-retry",
	"merge-start", "merge-finish",
	"gov-high-water",
	"epoch-seal", "checkpoint-write", "recover", "backpressure",
	"intern-grow",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Tracer is the sink for execution events and phase timings. The one
// concrete implementation is *Recorder; the interface exists so execution
// code can hold a nil sink and guard emission with a single branch.
//
// Implementations must be safe for concurrent use from many workers.
type Tracer interface {
	// Emit records one event. worker is the emitting worker's index
	// (0 when the caller has no worker identity), level the recursion
	// depth, and part/value are Kind-specific (see the Kind docs).
	Emit(k Kind, worker, level int, part int64, value float64)
	// AddPhase charges nanos of elapsed time to phase p.
	AddPhase(p Phase, nanos int64)
}

// RecorderOf returns the recorder behind a tracer of the public cacheagg
// package, which sets it when it is initialized: internal packages handed
// a public tracer (serve's configuration) record into its recorder.
var RecorderOf func(public any) *Recorder

// Event is one decoded entry from the recorder's ring.
type Event struct {
	// Seq is the global emission sequence number (0-based).
	Seq uint64
	// Nanos is the emission time in nanoseconds since the Recorder was
	// created.
	Nanos int64
	// Kind-specific fields; see the Kind constants.
	Kind   Kind
	Worker int
	Level  int
	Part   int64
	Value  float64
}

// MarshalJSON encodes the event as the stable JSONL schema documented in
// docs/OBSERVABILITY.md (kind as a string, time as t_ns).
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seq    uint64  `json:"seq"`
		Nanos  int64   `json:"t_ns"`
		Kind   string  `json:"kind"`
		Worker int     `json:"worker"`
		Level  int     `json:"level"`
		Part   int64   `json:"part"`
		Value  float64 `json:"value"`
	}{e.Seq, e.Nanos, e.Kind.String(), e.Worker, e.Level, e.Part, e.Value})
}

// WriteJSONL writes one JSON object per line for each event.
func WriteJSONL(w io.Writer, events []Event) error {
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is a consistent-enough point-in-time fold of the recorder's
// counters. Counts and Sums are exact totals over every Emit (including
// events the ring has since overwritten); Phases holds accumulated
// nanoseconds per phase.
type Snapshot struct {
	// Emitted is the total number of events emitted so far.
	Emitted uint64
	// Dropped is how many of those are no longer in the ring.
	Dropped uint64
	Counts  [NumKinds]int64
	Sums    [NumKinds]float64
	Phases  [NumPhases]int64
}

// Sub returns the component-wise difference s - prev, for isolating the
// activity of a single run on a shared recorder.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{Emitted: s.Emitted - prev.Emitted}
	for k := 0; k < NumKinds; k++ {
		d.Counts[k] = s.Counts[k] - prev.Counts[k]
		d.Sums[k] = s.Sums[k] - prev.Sums[k]
	}
	for p := 0; p < NumPhases; p++ {
		d.Phases[p] = s.Phases[p] - prev.Phases[p]
	}
	if s.Dropped > prev.Dropped {
		d.Dropped = s.Dropped - prev.Dropped
	}
	return d
}

// laneCount is the number of counter lanes. A power of two; workers hash
// onto lanes by index so any worker count is safe, and 64 lanes keep
// same-lane contention negligible for realistic worker counts.
const laneCount = 64

// lane holds one worker's counters. The trailing pad keeps adjacent lanes
// from sharing a cache line on the hot Counts words.
type lane struct {
	counts [NumKinds]atomic.Int64
	sums   [NumKinds]atomic.Uint64 // float64 bits, CAS-accumulated
	_      [64]byte
}

// slot is one ring entry. All words are atomics so concurrent writers and
// readers stay race-detector clean; tag is a seqlock-style publication
// word — 0 while a writer owns the slot, seq+1 once the payload is
// published. A reader accepts a slot only when tag matches the expected
// sequence before and after reading the payload.
type slot struct {
	tag   atomic.Uint64
	meta  atomic.Uint64 // kind<<48 | worker<<32 | level (low 32)
	nanos atomic.Int64
	part  atomic.Int64
	val   atomic.Uint64 // float64 bits
}

// DefaultCapacity is the ring capacity used when NewRecorder is given a
// non-positive capacity: 16384 events ≈ 640 KiB.
const DefaultCapacity = 1 << 14

// Recorder is the concrete Tracer: exact lock-free counters plus a
// bounded event ring. Create one per process or per run with NewRecorder;
// the zero value is not usable.
type Recorder struct {
	start  time.Time
	mask   uint64
	seq    atomic.Uint64
	slots  []slot
	lanes  [laneCount]lane
	phases [NumPhases]atomic.Int64
}

// NewRecorder returns a Recorder whose ring holds at least capacity
// events (rounded up to a power of two; DefaultCapacity if capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{start: time.Now(), mask: uint64(n - 1), slots: make([]slot, n)}
}

// Emit implements Tracer. Safe for concurrent use; never blocks and never
// allocates.
func (r *Recorder) Emit(k Kind, worker, level int, part int64, value float64) {
	ln := &r.lanes[uint(worker)&(laneCount-1)]
	ln.counts[k].Add(1)
	if value != 0 {
		addFloat(&ln.sums[k], value)
	}

	seq := r.seq.Add(1) - 1
	s := &r.slots[seq&r.mask]
	s.tag.Store(0) // take the slot; readers of the old entry now fail validation
	s.meta.Store(uint64(k)<<48 | uint64(uint16(worker))<<32 | uint64(uint32(level)))
	s.nanos.Store(int64(time.Since(r.start)))
	s.part.Store(part)
	s.val.Store(math.Float64bits(value))
	s.tag.Store(seq + 1) // publish
}

// AddPhase implements Tracer.
func (r *Recorder) AddPhase(p Phase, nanos int64) {
	r.phases[p].Add(nanos)
}

func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Snapshot folds the counter lanes and phase clocks. It may run
// concurrently with Emit; each word is read atomically, so totals are
// exact once emitters are quiescent and near-exact while they run.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	s.Emitted = r.seq.Load()
	if ring := uint64(len(r.slots)); s.Emitted > ring {
		s.Dropped = s.Emitted - ring
	}
	for i := range r.lanes {
		ln := &r.lanes[i]
		for k := 0; k < NumKinds; k++ {
			s.Counts[k] += ln.counts[k].Load()
			s.Sums[k] += math.Float64frombits(ln.sums[k].Load())
		}
	}
	for p := 0; p < NumPhases; p++ {
		s.Phases[p] = r.phases[p].Load()
	}
	return s
}

// Events decodes the ring in emission order (oldest surviving event
// first). Safe to call while emitters run; entries being overwritten
// mid-read fail seqlock validation and are skipped rather than returned
// torn. With quiescent emitters the result is complete and exact.
func (r *Recorder) Events() []Event {
	end := r.seq.Load()
	ring := uint64(len(r.slots))
	begin := uint64(0)
	if end > ring {
		begin = end - ring
	}
	out := make([]Event, 0, end-begin)
	for seq := begin; seq < end; seq++ {
		s := &r.slots[seq&r.mask]
		if s.tag.Load() != seq+1 {
			continue // unpublished or already overwritten
		}
		meta := s.meta.Load()
		ev := Event{
			Seq:    seq,
			Nanos:  s.nanos.Load(),
			Part:   s.part.Load(),
			Value:  math.Float64frombits(s.val.Load()),
			Kind:   Kind(meta >> 48),
			Worker: int(uint16(meta >> 32)),
			Level:  int(uint32(meta)),
		}
		if s.tag.Load() != seq+1 {
			continue // torn by a concurrent writer; drop
		}
		out = append(out, ev)
	}
	return out
}
