package cacheagg

// Public face of the execution tracer: an optional, low-overhead observer
// of what the operator actually did — strategy switches with the α that
// triggered them, table emits and splits, spill and merge traffic, memory
// high-water samples — plus a wall-time breakdown by execution phase.
//
// Install one with Options.Tracer. A nil Tracer (the default) costs one
// predictable branch per block of rows on the hot path; an installed one
// costs two atomics per event on a padded per-worker counter lane plus a
// lock-free ring slot, and events are only emitted at rare boundaries
// (a table filling, a partition spilling), never per row.

import (
	"encoding/json"
	"io"
	"time"

	"cacheagg/internal/trace"
)

// Tracer records execution events and phase timings across one or more
// Aggregate calls. Safe for concurrent use; a single Tracer may observe
// concurrent executions, though per-call attribution is then lost.
//
// The zero value is not usable; construct with NewTracer.
type Tracer struct {
	rec *trace.Recorder
}

// NewTracer returns a Tracer whose event ring keeps the most recent
// events (capacity rounds up to a power of two; capacity <= 0 selects the
// default of 16384). Counters and phase times are exact regardless of
// ring capacity — only the event *log* is bounded.
func NewTracer(capacity int) *Tracer {
	return &Tracer{rec: trace.NewRecorder(capacity)}
}

// TraceEvent is one recorded execution event.
type TraceEvent struct {
	// Seq is the global emission sequence number (monotone per Tracer).
	Seq uint64 `json:"seq"`
	// Nanos is the event time as a monotonic-clock nanosecond reading.
	Nanos int64 `json:"t_ns"`
	// Kind names the event: "strategy-switch", "table-split", "table-emit",
	// "spill-write", "spill-read", "spill-retry", "merge-start",
	// "merge-finish", "gov-high-water", "epoch-seal", "checkpoint-write",
	// "recover", "backpressure" or "intern-grow".
	Kind string `json:"kind"`
	// Worker is the emitting worker's index (0 when not worker-scoped).
	Worker int `json:"worker"`
	// Level is the recursion level the event happened at, where it applies.
	Level int `json:"level"`
	// Part identifies the partition (radix digit or spill-file id) the
	// event concerns, or -1 when it has no partition identity.
	Part int64 `json:"part"`
	// Value is the event's payload: the observed α for strategy switches
	// and table splits, row counts for emits, spill writes and reads and
	// merges, the sampled bytes for gov-high-water.
	Value float64 `json:"value"`
}

// Phases is the wall-time breakdown of one Aggregate call, reported on
// Result.Phases when a Tracer was installed. Intake and Merge are elapsed
// wall time of their pipeline stages; the rest are summed worker activity
// and therefore may exceed wall time on multi-worker runs. Phases overlap
// by design — the total is not the query latency.
type Phases struct {
	// Intake is the wall time of the first pass over the input.
	Intake time.Duration
	// Scatter is worker time spent in the PARTITIONING routine.
	Scatter time.Duration
	// TableBuild is worker time spent filling hash tables (HASHING).
	TableBuild time.Duration
	// Split is worker time spent splitting full tables into runs and
	// sealing or emitting their buckets.
	Split time.Duration
	// Spill is worker time spent encoding and writing spill blocks.
	Spill time.Duration
	// Merge is the wall time of the out-of-core merge phase: recursion
	// over level-0 buckets that spilled (zero unless the run spilled
	// before it).
	Merge time.Duration
}

func phasesOf(p [trace.NumPhases]int64) Phases {
	return Phases{
		Intake:     time.Duration(p[trace.PhaseIntake]),
		Scatter:    time.Duration(p[trace.PhaseScatter]),
		TableBuild: time.Duration(p[trace.PhaseTableBuild]),
		Split:      time.Duration(p[trace.PhaseSplit]),
		Spill:      time.Duration(p[trace.PhaseSpill]),
		Merge:      time.Duration(p[trace.PhaseMerge]),
	}
}

// TraceSnapshot is a point-in-time aggregate view of a Tracer: exact
// event counts and value sums per kind, and accumulated phase times.
type TraceSnapshot struct {
	// Emitted is the total number of events emitted so far.
	Emitted uint64 `json:"emitted"`
	// Counts maps event kind to the number of events of that kind.
	Counts map[string]int64 `json:"counts"`
	// Sums maps event kind to the sum of its events' Value fields.
	Sums map[string]float64 `json:"sums"`
	// PhaseNanos maps phase name to accumulated nanoseconds.
	PhaseNanos map[string]int64 `json:"phase_nanos"`
}

func snapshotOf(s trace.Snapshot) TraceSnapshot {
	out := TraceSnapshot{
		Emitted:    s.Emitted,
		Counts:     make(map[string]int64),
		Sums:       make(map[string]float64),
		PhaseNanos: make(map[string]int64),
	}
	for k := 0; k < trace.NumKinds; k++ {
		if c := s.Counts[k]; c != 0 {
			out.Counts[trace.Kind(k).String()] = c
			out.Sums[trace.Kind(k).String()] = s.Sums[k]
		}
	}
	for p := 0; p < trace.NumPhases; p++ {
		if n := s.Phases[p]; n != 0 {
			out.PhaseNanos[trace.Phase(p).String()] = n
		}
	}
	return out
}

// Snapshot returns the tracer's current aggregate state. Cheap enough to
// poll; the counters are exact even when the event ring has wrapped.
func (t *Tracer) Snapshot() TraceSnapshot {
	return snapshotOf(t.rec.Snapshot())
}

// String renders the snapshot as JSON, making a Tracer directly usable as
// an expvar.Var:
//
//	expvar.Publish("cacheagg", tracer)
func (t *Tracer) String() string {
	b, err := json.Marshal(t.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Events returns the retained event log, oldest first. When more events
// were emitted than the ring holds, only the newest are retained (the
// counters in Snapshot still cover everything).
func (t *Tracer) Events() []TraceEvent {
	evs := t.rec.Events()
	out := make([]TraceEvent, len(evs))
	for i, e := range evs {
		out[i] = TraceEvent{
			Seq:    e.Seq,
			Nanos:  e.Nanos,
			Kind:   e.Kind.String(),
			Worker: e.Worker,
			Level:  e.Level,
			Part:   e.Part,
			Value:  e.Value,
		}
	}
	return out
}

// WriteJSONL writes the retained event log to w, one JSON object per
// line, in emission order — the same format aggrun -trace produces.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return trace.WriteJSONL(w, t.rec.Events())
}

// phasesSince converts the phase time accrued since pre into the public
// breakdown.
func (t *Tracer) phasesSince(pre trace.Snapshot) Phases {
	return phasesOf(t.rec.Snapshot().Sub(pre).Phases)
}
