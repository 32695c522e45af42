package serve

// Admission control: one global memgov ledger arbitrates memory between
// concurrent queries. Every query reserves its estimated footprint up
// front; a query that cannot reserve waits in a bounded FIFO queue with
// per-class fairness, and instead of waiting forever it walks a
// degradation ladder — full grant, shrunken grant, forced-external grant —
// before giving up with a typed, Retry-After-stamped rejection.
//
// The state machine of one query (docs/SERVING.md has the diagram):
//
//	arrive ── queue full, outranks nothing ──▶ rejected (queue_full)
//	  │  ▲ queue full, outranks queued low-priority work: that work
//	  │  └─ is evicted instead (shed)
//	  ▼
//	queued ── context cancelled/expired ──▶ cancelled | deadline
//	  │ (FIFO with per-class fairness; head of line goes on)
//	  ▼
//	reserving ── full estimate within ShrinkAfter ──▶ admitted (full)
//	  │ ├─ shrunken estimate within ExternalAfter ─▶ admitted (shrunk)
//	  │ ├─ external floor within MaxWait ──────────▶ admitted (external)
//	  │ └─ context cancelled/expired ──────────────▶ cancelled | deadline
//	  ▼
//	rejected (budget_unavailable, Retry-After hinted)
//
// The admission ledger is a *planning* ledger: it tracks grants, not live
// bytes. Each admitted query enforces its own grant byte-accurately via
// Options.MemoryBudgetBytes (its private governor), so the sum of grants
// never exceeds the global budget and the ledger provably drains to zero
// when the last query releases.

import (
	"container/list"
	"context"
	"sync"
	"time"

	"cacheagg/internal/core"
	"cacheagg/internal/memgov"
)

// GrantMode says which rung of the degradation ladder admitted the query.
type GrantMode int

const (
	// GrantFull is the full cost estimate: the query should run in
	// memory.
	GrantFull GrantMode = iota
	// GrantShrunk is a reduced reservation: the query may degrade to the
	// out-of-core path for part of its work.
	GrantShrunk
	// GrantExternal is the floor reservation: the query is forced
	// through the out-of-core path (spilling to disk) so it completes
	// under pressure instead of being rejected.
	GrantExternal
)

// String names the mode for response headers and logs.
func (m GrantMode) String() string {
	switch m {
	case GrantShrunk:
		return "shrunk"
	case GrantExternal:
		return "external"
	default:
		return "full"
	}
}

// Grant is an admitted query's budget reservation. Release must be called
// exactly once when the query finishes (success or failure); it is
// idempotent to make error paths easy.
type Grant struct {
	// Bytes is the reserved budget, to be enforced by the query's own
	// governor (Options.MemoryBudgetBytes).
	Bytes int64
	// Mode is the ladder rung that admitted the query.
	Mode GrantMode
	// Queued reports that the query waited in the admission queue.
	Queued bool
	// WaitedFor is the time spent between Admit and the grant.
	WaitedFor time.Duration

	ctrl     *Controller
	released bool
	mu       sync.Mutex
}

// Release returns the reservation to the global ledger and hands the
// admission slot to the next queued query.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	done := g.released
	g.released = true
	g.mu.Unlock()
	if done {
		return
	}
	g.ctrl.gov.Release(g.Bytes)
}

// AdmitConfig tunes the controller. The zero value selects the defaults.
type AdmitConfig struct {
	// BudgetBytes is the global memory budget shared by all concurrent
	// queries. <= 0 means unlimited (admission always grants instantly;
	// queueing and degradation never engage).
	BudgetBytes int64
	// MaxQueue bounds the admission wait queue (default 64).
	MaxQueue int
	// ShrinkAfter is how long the head-of-line query waits for its full
	// estimate before the ladder shrinks it (default 100 ms).
	ShrinkAfter time.Duration
	// ExternalAfter is how long it waits for the shrunken estimate
	// before being forced external (default 250 ms).
	ExternalAfter time.Duration
	// MaxWait bounds the total budget wait of one query (default 5 s).
	// A request deadline shorter than MaxWait wins.
	MaxWait time.Duration
	// MinGrantBytes is the forced-external floor reservation — enough
	// for the out-of-core path's fixed machinery (default 8 MiB).
	MinGrantBytes int64
	// RetryHint is the Retry-After stamped on typed rejections
	// (default 1 s).
	RetryHint time.Duration
}

func (c AdmitConfig) withDefaults() AdmitConfig {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.ShrinkAfter <= 0 {
		c.ShrinkAfter = 100 * time.Millisecond
	}
	if c.ExternalAfter <= 0 {
		c.ExternalAfter = 250 * time.Millisecond
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 5 * time.Second
	}
	if c.MinGrantBytes <= 0 {
		c.MinGrantBytes = 8 << 20
	}
	if c.RetryHint <= 0 {
		c.RetryHint = time.Second
	}
	return c
}

// admWaiter is one query parked in the admission queue. ch carries its
// verdict: nil = proceed to the reserving state, a typed error = evicted.
type admWaiter struct {
	class  Priority
	seq    uint64
	ch     chan error
	elem   *list.Element
	queued bool // still in a queue (guarded by Controller.mu)
}

// Controller is the admission gate. One per server.
type Controller struct {
	cfg AdmitConfig
	gov *memgov.Governor

	mu       sync.Mutex
	queues   [3]*list.List // index = Priority; front = oldest
	queued   int
	active   bool   // a query currently owns the reserving state
	seq      uint64 // arrival stamper
	dispatch uint64 // fairness counter
	draining bool

	metrics *Metrics
}

// NewController builds an admission controller over a fresh ledger.
func NewController(cfg AdmitConfig, m *Metrics) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, gov: memgov.New(cfg.BudgetBytes), metrics: m}
	for i := range c.queues {
		c.queues[i] = list.New()
	}
	return c
}

// Ledger exposes the global reservation ledger (metrics, tests).
func (c *Controller) Ledger() *memgov.Governor { return c.gov }

// QueueLen returns the number of queries waiting for admission.
func (c *Controller) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued
}

// SetDraining stops admission: subsequent Admit calls fail with
// ErrDraining. Already-queued queries are allowed to proceed (they were
// accepted) and in-flight grants are unaffected.
func (c *Controller) SetDraining() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Admit reserves need bytes for a query of the given class, blocking in
// the bounded FIFO queue and walking the degradation ladder as required.
// It returns a Grant, or a typed *Error (queue full / shed / budget
// unavailable / draining), or ctx's error when the caller's context ends
// first.
func (c *Controller) Admit(ctx context.Context, class Priority, need int64) (*Grant, error) {
	start := time.Now()
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return nil, errf(ErrDraining, nil, "server is draining")
	}
	if !c.active && c.queued == 0 {
		c.active = true
		c.mu.Unlock()
		return c.reserve(ctx, need, false, start)
	}
	// Queue, shedding lower-priority work if full and outranked.
	if c.queued >= c.cfg.MaxQueue {
		if !c.shedLocked(class) {
			c.mu.Unlock()
			if c.metrics != nil {
				c.metrics.RejectedQueue.Add(1)
			}
			return nil, withRetry(errf(ErrAdmissionQueueFull, nil,
				"admission queue at capacity %d", c.cfg.MaxQueue), c.cfg.RetryHint)
		}
	}
	c.seq++
	w := &admWaiter{class: class, seq: c.seq, ch: make(chan error, 1), queued: true}
	w.elem = c.queues[class].PushBack(w)
	c.queued++
	c.mu.Unlock()

	select {
	case <-ctx.Done():
		c.mu.Lock()
		if w.queued {
			c.queues[class].Remove(w.elem)
			w.queued = false
			c.queued--
			c.mu.Unlock()
			return nil, ctx.Err()
		}
		c.mu.Unlock()
		// Already dispatched or evicted: consume the verdict so the
		// admission slot is not lost.
		verdict := <-w.ch
		if verdict == nil {
			c.dispatchNext()
		}
		return nil, ctx.Err()
	case verdict := <-w.ch:
		if verdict != nil {
			return nil, verdict
		}
		return c.reserve(ctx, need, true, start)
	}
}

// shedLocked evicts the youngest waiter of the lowest class strictly
// below the arriving class, making room under overload. Reports whether a
// victim was evicted. Caller holds c.mu.
func (c *Controller) shedLocked(arriving Priority) bool {
	for class := PriorityLow; class < arriving; class++ {
		q := c.queues[class]
		if q.Len() == 0 {
			continue
		}
		victim := q.Back().Value.(*admWaiter)
		q.Remove(victim.elem)
		victim.queued = false
		c.queued--
		// Count the shed before waking the victim, so whoever reads its
		// error already sees it in the metrics.
		if c.metrics != nil {
			c.metrics.Shed.Add(1)
		}
		victim.ch <- withRetry(errf(ErrShed, nil,
			"%s-priority work shed for higher-priority arrival", class), c.cfg.RetryHint)
		return true
	}
	return false
}

// dispatchNext transfers the reserving state to the next queued waiter,
// or clears it when the queue is empty. Fairness: normally the oldest
// waiter of the highest non-empty class wins, but every fourth dispatch
// picks the globally oldest waiter regardless of class, so low-priority
// work cannot starve under a steady high-priority stream.
func (c *Controller) dispatchNext() {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.pickLocked()
	if w == nil {
		c.active = false
		return
	}
	c.queues[w.class].Remove(w.elem)
	w.queued = false
	c.queued--
	w.ch <- nil
}

func (c *Controller) pickLocked() *admWaiter {
	c.dispatch++
	if c.dispatch%4 == 0 {
		var oldest *admWaiter
		for _, q := range c.queues {
			if front := q.Front(); front != nil {
				w := front.Value.(*admWaiter)
				if oldest == nil || w.seq < oldest.seq {
					oldest = w
				}
			}
		}
		if oldest != nil {
			return oldest
		}
	}
	for class := PriorityHigh; class >= PriorityLow; class-- {
		if front := c.queues[class].Front(); front != nil {
			return front.Value.(*admWaiter)
		}
	}
	return nil
}

// reserve walks the degradation ladder while holding the reserving state;
// the state transfers to the next waiter on every exit path.
func (c *Controller) reserve(ctx context.Context, need int64, queued bool, start time.Time) (*Grant, error) {
	defer c.dispatchNext()
	if need < c.cfg.MinGrantBytes {
		need = c.cfg.MinGrantBytes
	}
	if b := c.gov.Budget(); b > 0 && need > b {
		need = b // a query bigger than the machine still gets the machine
	}
	grant := func(bytes int64, mode GrantMode) (*Grant, error) {
		g := &Grant{Bytes: bytes, Mode: mode, Queued: queued,
			WaitedFor: time.Since(start), ctrl: c}
		if c.metrics != nil {
			c.metrics.Admitted.Add(1)
			if queued {
				c.metrics.QueuedAdmitted.Add(1)
			}
			switch mode {
			case GrantShrunk:
				c.metrics.DegradedShrunk.Add(1)
			case GrantExternal:
				c.metrics.DegradedExternal.Add(1)
			}
		}
		return g, nil
	}
	// Rung 0: the estimate fits right now.
	if c.gov.TryReserve(need) {
		return grant(need, GrantFull)
	}
	// Rung 1: wait briefly for the full estimate.
	switch err := c.waitReserve(ctx, need, c.cfg.ShrinkAfter); {
	case err == nil:
		return grant(need, GrantFull)
	case ctx.Err() != nil:
		return nil, ctx.Err()
	}
	// Rung 2: shrink the grant — the query trades memory for spill I/O.
	shrunk := max(need/2, c.cfg.MinGrantBytes)
	if shrunk < need {
		switch err := c.waitReserve(ctx, shrunk, c.cfg.ExternalAfter); {
		case err == nil:
			return grant(shrunk, GrantShrunk)
		case ctx.Err() != nil:
			return nil, ctx.Err()
		}
	}
	// Rung 3: the external floor — forced out-of-core execution.
	if c.cfg.MinGrantBytes < need {
		switch err := c.waitReserve(ctx, c.cfg.MinGrantBytes, c.cfg.MaxWait); {
		case err == nil:
			return grant(c.cfg.MinGrantBytes, GrantExternal)
		case ctx.Err() != nil:
			return nil, ctx.Err()
		}
	} else {
		// Already at the floor; give it the rest of the wait budget.
		switch err := c.waitReserve(ctx, need, c.cfg.MaxWait); {
		case err == nil:
			return grant(need, GrantExternal)
		case ctx.Err() != nil:
			return nil, ctx.Err()
		}
	}
	if c.metrics != nil {
		c.metrics.RejectedBudget.Add(1)
	}
	return nil, withRetry(errf(ErrBudgetUnavailable, nil,
		"no budget for %d bytes within %v (%d of %d reserved)",
		c.cfg.MinGrantBytes, c.cfg.MaxWait, c.gov.Reserved(), c.gov.Budget()),
		c.cfg.RetryHint)
}

// waitReserve blocks on the ledger for up to bound (the caller's context
// still wins). A nil return means the reservation was granted.
func (c *Controller) waitReserve(ctx context.Context, n int64, bound time.Duration) error {
	wctx, cancel := context.WithTimeout(ctx, bound)
	defer cancel()
	return c.gov.TryReserveOrWait(wctx, n)
}

// EstimateCost sizes a query's up-front reservation from its input: the
// per-worker fixed machinery of the operator plus one output row per input
// row, both from core.Footprint at aggWidth+1 state words (room for an AVG
// decomposed into SUM and COUNT), and 1 MiB of slack. Deliberately a
// planning number — the query's own byte-accurate governor enforces the
// grant; the estimate only has to be the right order of magnitude for
// admission to slot queries sensibly.
func EstimateCost(rows, aggWidth, workers, cacheBytes int) int64 {
	if workers <= 0 {
		workers = 1
	}
	fixed, perRow := core.Footprint(core.Config{CacheBytes: cacheBytes}, aggWidth+1)
	return int64(workers)*fixed + int64(rows)*perRow + 1<<20
}
