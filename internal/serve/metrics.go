package serve

// Serve-layer metrics: lock-free counters for the admission/spill/cache
// taxonomy plus a log-bucketed latency histogram good enough for
// p50/p99 under concurrent writers. The /metrics endpoint merges a
// Snapshot of these with the operator tracer's expvar snapshot.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latBuckets is the histogram resolution: bucket i holds latencies in
// [2^i, 2^(i+1)) nanoseconds, so 48 buckets span 1 ns to ~78 h.
const latBuckets = 48

// Metrics is the serve layer's counter set. All fields are updated with
// atomics; read them through Snapshot.
type Metrics struct {
	// Admission outcomes.
	Admitted        atomic.Int64 // granted its floor
	QueuedAdmitted  atomic.Int64 // admitted after waiting in the queue
	RejectedQueue   atomic.Int64 // ErrAdmissionQueueFull
	RejectedBudget  atomic.Int64 // ErrBudgetUnavailable
	Shed            atomic.Int64 // ErrShed (evicted from the queue)
	RejectedBad     atomic.Int64 // 4xx request rejections
	RejectedDrain   atomic.Int64 // ErrDraining
	DeadlineExpired atomic.Int64 // ErrDeadline (queued or running)
	Cancelled       atomic.Int64 // client disconnects
	Panics          atomic.Int64 // contained session panics
	InternalErrors  atomic.Int64 // other operator failures

	// Spilled counts queries whose run spilled to disk.
	Spilled atomic.Int64

	// Result cache.
	CacheHits    atomic.Int64
	CacheMisses  atomic.Int64
	CacheShared  atomic.Int64 // singleflight followers served by a leader
	CacheEntries atomic.Int64
	CacheBytes   atomic.Int64

	// Liveness.
	Inflight  atomic.Int64 // sessions between decode and response
	Running   atomic.Int64 // sessions running the operator
	Succeeded atomic.Int64

	// Streaming ingest (/v1/ingest).
	IngestSessions     atomic.Int64 // live sessions (gauge)
	IngestResumed      atomic.Int64 // sessions resumed from disk at boot
	IngestBlocks       atomic.Int64 // blocks accepted by push
	IngestRows         atomic.Int64 // rows accepted by push
	IngestSeals        atomic.Int64 // explicit seal ops
	IngestQueries      atomic.Int64 // snapshot queries served
	IngestBackpressure atomic.Int64 // pushes refused with 429 backpressure

	lat [latBuckets]atomic.Int64
}

// ObserveLatency records one completed session's total latency.
func (m *Metrics) ObserveLatency(d time.Duration) {
	n := d.Nanoseconds()
	if n < 1 {
		n = 1
	}
	b := bits.Len64(uint64(n)) - 1
	if b >= latBuckets {
		b = latBuckets - 1
	}
	m.lat[b].Add(1)
}

// Quantile returns the approximate q-quantile (0 < q < 1) of observed
// latencies: the upper bound of the bucket holding the q-th observation.
// Zero when nothing was observed.
func (m *Metrics) Quantile(q float64) time.Duration {
	var total int64
	var counts [latBuckets]int64
	for i := range counts {
		counts[i] = m.lat[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > rank {
			return time.Duration(uint64(1) << uint(i+1)) // bucket upper bound
		}
	}
	return time.Duration(uint64(1) << latBuckets)
}

// MetricsSnapshot is the JSON shape of /metrics' serve section.
type MetricsSnapshot struct {
	Admitted        int64 `json:"admitted"`
	QueuedAdmitted  int64 `json:"queued_admitted"`
	RejectedQueue   int64 `json:"rejected_queue_full"`
	RejectedBudget  int64 `json:"rejected_budget"`
	Shed            int64 `json:"shed"`
	RejectedBad     int64 `json:"rejected_bad_request"`
	RejectedDrain   int64 `json:"rejected_draining"`
	DeadlineExpired int64 `json:"deadline_exceeded"`
	Cancelled       int64 `json:"cancelled"`
	Panics          int64 `json:"panics"`
	InternalErrors  int64 `json:"internal_errors"`

	Spilled int64 `json:"spilled"`

	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheShared  int64 `json:"cache_shared"`
	CacheEntries int64 `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`

	Inflight  int64 `json:"inflight"`
	Running   int64 `json:"running"`
	Succeeded int64 `json:"succeeded"`

	IngestSessions     int64 `json:"ingest_sessions"`
	IngestResumed      int64 `json:"ingest_resumed"`
	IngestBlocks       int64 `json:"ingest_blocks"`
	IngestRows         int64 `json:"ingest_rows"`
	IngestSeals        int64 `json:"ingest_seals"`
	IngestQueries      int64 `json:"ingest_queries"`
	IngestBackpressure int64 `json:"ingest_backpressure"`

	QueueLength    int   `json:"queue_length"`
	LedgerReserved int64 `json:"ledger_reserved"`
	LedgerWaiting  int   `json:"ledger_waiting"`

	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
}

// snapshot captures the counters; queue/ledger gauges are stamped by the
// server, which owns the admission controller.
func (m *Metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Admitted:        m.Admitted.Load(),
		QueuedAdmitted:  m.QueuedAdmitted.Load(),
		RejectedQueue:   m.RejectedQueue.Load(),
		RejectedBudget:  m.RejectedBudget.Load(),
		Shed:            m.Shed.Load(),
		RejectedBad:     m.RejectedBad.Load(),
		RejectedDrain:   m.RejectedDrain.Load(),
		DeadlineExpired: m.DeadlineExpired.Load(),
		Cancelled:       m.Cancelled.Load(),
		Panics:          m.Panics.Load(),
		InternalErrors:  m.InternalErrors.Load(),

		Spilled: m.Spilled.Load(),

		CacheHits:    m.CacheHits.Load(),
		CacheMisses:  m.CacheMisses.Load(),
		CacheShared:  m.CacheShared.Load(),
		CacheEntries: m.CacheEntries.Load(),
		CacheBytes:   m.CacheBytes.Load(),

		Inflight:  m.Inflight.Load(),
		Running:   m.Running.Load(),
		Succeeded: m.Succeeded.Load(),

		IngestSessions:     m.IngestSessions.Load(),
		IngestResumed:      m.IngestResumed.Load(),
		IngestBlocks:       m.IngestBlocks.Load(),
		IngestRows:         m.IngestRows.Load(),
		IngestSeals:        m.IngestSeals.Load(),
		IngestQueries:      m.IngestQueries.Load(),
		IngestBackpressure: m.IngestBackpressure.Load(),

		P50Millis: float64(m.Quantile(0.50)) / float64(time.Millisecond),
		P99Millis: float64(m.Quantile(0.99)) / float64(time.Millisecond),
	}
}
