package serve

// Admission control: one memgov ledger per server is the budget every
// running query reserves on. A query waits only for its floor — the fixed
// machinery of the pool the operator will build (core.Floor) — in a
// bounded FIFO queue with per-class fairness, and gives up after MaxWait
// with a typed, Retry-After-stamped rejection. No estimate of its output
// is made: the grant hands the floor to the run, which reserves its
// machinery, tables and runs on the same ledger as they grow and, when
// the ledger is over budget, spills its largest buckets instead.
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
//	reserving ── floor above the budget ────▶ rejected (budget_unavailable)
//	  │ ├─ floor not free within MaxWait ───▶ rejected (budget_unavailable,
//	  │ │                                       Retry-After hinted)
//	  │ └─ context cancelled/expired ───────▶ cancelled | deadline
//	  ▼
//	admitted ── the floor is handed to the run on the same ledger
//	  ▼
//	running ── ledger over budget ──▶ spills its largest buckets (mode spill)
//
// The ledger drains to zero when the last query returns: a grant is
// released as its run starts, and the run releases everything it reserved.

import (
	"container/list"
	"context"
	"sync"
	"time"

	"cacheagg/internal/core"
	"cacheagg/internal/memgov"
)

// Grant is an admitted query's floor, reserved on the ledger. Release
// hands it back: the server releases it as the query's run starts, and the
// run reserves its own machinery on the same ledger. Release is
// idempotent to make error paths easy.
type Grant struct {
	// Bytes is the reserved floor.
	Bytes int64
	// Queued reports that the query waited in the admission queue.
	Queued bool
	// WaitedFor is the time spent between Admit and the grant.
	WaitedFor time.Duration

	ctrl     *Controller
	released bool
	mu       sync.Mutex
}

// Release returns the floor to the ledger.
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
	// queries. <= 0 means unlimited (admission always grants instantly,
	// and queries run without a governor or a spill target).
	BudgetBytes int64
	// MaxQueue bounds the admission wait queue (default 64).
	MaxQueue int
	// MaxWait bounds how long the head-of-line query waits for its floor
	// (default 5 s). A request deadline shorter than MaxWait wins.
	MaxWait time.Duration
	// RetryHint is the Retry-After stamped on typed rejections
	// (default 1 s).
	RetryHint time.Duration
}

func (c AdmitConfig) withDefaults() AdmitConfig {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 5 * time.Second
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

// Ledger is the server's ledger: grants and the queries' runs reserve on it.
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

// Admit reserves a query's floor of need bytes for the given class,
// blocking in the bounded FIFO queue and then, at the head of the line,
// on the ledger for at most MaxWait. It returns a Grant, or a typed *Error
// (queue full / shed / budget unavailable / draining), or ctx's error when
// the caller's context ends first.
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

// reserve waits for the floor while holding the reserving state; the
// state transfers to the next waiter on every exit path.
func (c *Controller) reserve(ctx context.Context, need int64, queued bool, start time.Time) (*Grant, error) {
	defer c.dispatchNext()
	if b := c.gov.Budget(); b > 0 && need > b {
		// No release can make room: refuse now, without a retry hint.
		if c.metrics != nil {
			c.metrics.RejectedBudget.Add(1)
		}
		return nil, errf(ErrBudgetUnavailable, nil,
			"floor of %d bytes exceeds the %d-byte budget", need, b)
	}
	wctx, cancel := context.WithTimeout(ctx, c.cfg.MaxWait)
	err := c.gov.TryReserveOrWait(wctx, need)
	cancel()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if c.metrics != nil {
			c.metrics.RejectedBudget.Add(1)
		}
		return nil, withRetry(errf(ErrBudgetUnavailable, nil,
			"no room for a floor of %d bytes within %v (%d of %d reserved)",
			need, c.cfg.MaxWait, c.gov.Reserved(), c.gov.Budget()),
			c.cfg.RetryHint)
	}
	if c.metrics != nil {
		c.metrics.Admitted.Add(1)
		if queued {
			c.metrics.QueuedAdmitted.Add(1)
		}
	}
	return &Grant{Bytes: need, Queued: queued, WaitedFor: time.Since(start), ctrl: c}, nil
}

// EstimateCost is the floor of a query over rows input rows with aggWidth
// aggregates, run by workers workers (0 = GOMAXPROCS) at cacheBytes per
// worker (0 = the operator default): core.Floor at aggWidth+1 state words,
// room for one AVG, which is two. The server computes its queries' floors
// from their exact layout.
func EstimateCost(rows, aggWidth, workers, cacheBytes int) int64 {
	return core.Floor(core.Config{Workers: workers, CacheBytes: cacheBytes}, rows, aggWidth+1)
}
