// Package memgov implements the central memory governor of the engine: a
// byte-accurate accountant that the big memory consumers — worker hash
// tables, partition/run buffers, and spilled blocks being read back —
// register their allocations with.
//
// The governor does not allocate anything itself and it cannot stop an
// allocation that has already happened; it is the bookkeeping that lets the
// operator make *decisions* from real footprint instead of row-count
// proxies:
//
//   - the operator polls OverBudget at morsel and task boundaries and, over
//     budget, spills the largest bucket the worker owns — the
//     dynamic-hybrid degradation of Jahangiri et al. — or, without a spill
//     target, aborts with a typed error instead of blowing past the budget;
//   - serve admission waits with TryReserveOrWait for a query's floor, and
//     the query's run then reserves on the same ledger as it grows.
//
// Accounting precision: reservations go through per-worker Caches that
// batch small deltas into one shared atomic, so the hot path costs one
// add on a worker-local int. The shared counter therefore trails the true
// sum by at most workers×grain bytes, and budget checks performed once
// per morsel can overshoot by at most one morsel of production per
// worker — the documented slack of the budget contract.
package memgov

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrBudget is the sentinel wrapped by every budget-exceeded failure.
var ErrBudget = errors.New("memory budget exceeded")

// DefaultCacheGrain is the default flush threshold of a per-worker Cache:
// small enough that the shared counter stays honest, large enough that the
// shared atomic is touched ~once per few hundred rows.
const DefaultCacheGrain = 32 << 10

// Governor is a byte budget shared by all memory consumers of one
// execution. The zero value is not usable; create Governors with New. All
// methods are safe for concurrent use.
type Governor struct {
	budget   int64 // 0 = unlimited (pure accounting, never over budget)
	reserved atomic.Int64
	high     atomic.Int64

	// High-water sampling hook (see SetHighWaterHook), swapped as one
	// value. hookNext is the next high-water value at which it fires;
	// advancing it by CAS makes each grain crossing fire exactly once
	// across workers.
	hook     atomic.Pointer[highWaterHook]
	hookNext atomic.Int64

	// Blocking-reservation waiters (see TryReserveOrWait). nWaiters
	// mirrors the queue length so the release hot path can skip the lock
	// with one atomic load when nobody is waiting.
	waitMu   sync.Mutex
	waiters  list.List // of *waiter, FIFO
	nWaiters atomic.Int32
}

// highWaterHook is an installed high-water sampler and its grain.
type highWaterHook struct {
	f     func(highWater int64)
	grain int64
}

// waiter is one goroutine parked in TryReserveOrWait. kick has capacity 1:
// a release signals it to re-attempt its reservation.
type waiter struct {
	need int64
	kick chan struct{}
}

// New creates a governor enforcing the given budget in bytes. budget <= 0
// means unlimited: the governor still accounts and tracks the high-water
// mark, but TryReserve never fails and OverBudget is always false.
func New(budget int64) *Governor {
	if budget < 0 {
		budget = 0
	}
	return &Governor{budget: budget}
}

// Budget returns the configured budget (0 = unlimited).
func (g *Governor) Budget() int64 { return g.budget }

// Reserved returns the bytes currently reserved (flushed caches only).
func (g *Governor) Reserved() int64 { return g.reserved.Load() }

// HighWater returns the maximum value Reserved has reached.
func (g *Governor) HighWater() int64 { return g.high.Load() }

// Remaining returns budget − reserved, floored at zero. Unlimited
// governors report a practically infinite remainder.
func (g *Governor) Remaining() int64 {
	if g.budget == 0 {
		return 1 << 62
	}
	r := g.budget - g.reserved.Load()
	if r < 0 {
		return 0
	}
	return r
}

// OverBudget reports whether reservations exceed the budget.
func (g *Governor) OverBudget() bool {
	return g.budget > 0 && g.reserved.Load() > g.budget
}

// Reserve unconditionally accounts n bytes (n may be negative to release).
// It never fails: consumers that cannot un-allocate (a morsel of rows
// already materialized) record the truth and let the boundary check decide.
func (g *Governor) Reserve(n int64) {
	now := g.reserved.Add(n)
	g.bumpHigh(now)
	if n < 0 {
		g.wake()
	}
}

// TryReserve accounts n bytes only if the total stays within budget; it
// reports whether the reservation was granted. n must be non-negative.
func (g *Governor) TryReserve(n int64) bool {
	for {
		cur := g.reserved.Load()
		next := cur + n
		if g.budget > 0 && next > g.budget {
			return false
		}
		if g.reserved.CompareAndSwap(cur, next) {
			g.bumpHigh(next)
			return true
		}
	}
}

// Release returns n bytes to the budget and wakes the longest-waiting
// TryReserveOrWait caller, if any, to re-attempt its reservation.
func (g *Governor) Release(n int64) {
	g.reserved.Add(-n)
	g.wake()
}

// TryReserveOrWait accounts n bytes, blocking until the budget has room or
// ctx is cancelled. Blocked callers form a FIFO queue: releases wake the
// longest waiter first, and a reservation that cannot be satisfied does
// not let later, smaller requests overtake it (no starvation of large
// requests). Cancellation removes the caller from the queue immediately —
// a departed waiter holds no budget and blocks nobody — and returns
// ctx.Err(). On an unlimited governor it never blocks. n must be
// non-negative.
func (g *Governor) TryReserveOrWait(ctx context.Context, n int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// Fast path: nobody queued ahead of us and the budget has room.
	if g.nWaiters.Load() == 0 && g.TryReserve(n) {
		return nil
	}
	w := &waiter{need: n, kick: make(chan struct{}, 1)}
	g.waitMu.Lock()
	// Re-check under the lock: a release may have drained the queue
	// between the fast path and here.
	if g.waiters.Len() == 0 && g.TryReserve(n) {
		g.waitMu.Unlock()
		return nil
	}
	elem := g.waiters.PushBack(w)
	g.nWaiters.Store(int32(g.waiters.Len()))
	g.waitMu.Unlock()

	for {
		select {
		case <-ctx.Done():
			g.waitMu.Lock()
			g.waiters.Remove(elem)
			g.nWaiters.Store(int32(g.waiters.Len()))
			g.waitMu.Unlock()
			// Our departure may promote a waiter that now fits (we might
			// have been head-of-line with a too-large request, or hold an
			// unconsumed kick); wake the new head unconditionally so no
			// wakeup is lost.
			g.wake()
			return ctx.Err()
		case <-w.kick:
			g.waitMu.Lock()
			if g.waiters.Front() != elem {
				// Not our turn yet (a later-queued waiter was kicked by a
				// stale signal); wait for the next release.
				g.waitMu.Unlock()
				continue
			}
			if !g.TryReserve(n) {
				g.waitMu.Unlock()
				continue
			}
			g.waiters.Remove(elem)
			g.nWaiters.Store(int32(g.waiters.Len()))
			g.waitMu.Unlock()
			// Budget may still have room for the next waiter in line.
			g.wake()
			return nil
		}
	}
}

// Waiting returns the number of goroutines parked in TryReserveOrWait.
func (g *Governor) Waiting() int { return int(g.nWaiters.Load()) }

// wake signals the head waiter to re-attempt its reservation. One atomic
// load on the no-waiter path keeps releases cheap.
func (g *Governor) wake() {
	if g.nWaiters.Load() == 0 {
		return
	}
	g.waitMu.Lock()
	if e := g.waiters.Front(); e != nil {
		w := e.Value.(*waiter)
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	g.waitMu.Unlock()
}

// SetHighWaterHook installs f to be called (at most once per grain bytes
// of high-water growth) whenever the reservation high-water mark rises
// past the next sampling threshold. grain <= 0 selects 1 MiB. It may be
// called while the governor is in use: the hook and its grain are swapped
// as one value, and the latest call wins. f must be cheap and safe for
// concurrent calls, and must not call back into the governor.
func (g *Governor) SetHighWaterHook(grain int64, f func(highWater int64)) {
	if grain <= 0 {
		grain = 1 << 20
	}
	g.hook.Store(&highWaterHook{f: f, grain: grain})
	g.hookNext.Store(0)
}

// InitHighWaterHook installs f as SetHighWaterHook does, unless a hook is
// installed already, and reports whether it installed f. Runs that share
// one governor call it at every start: the first installs the hook and
// the others leave its threshold alone, so samples stay at grain
// crossings instead of firing at each run's first reservation.
func (g *Governor) InitHighWaterHook(grain int64, f func(highWater int64)) bool {
	if grain <= 0 {
		grain = 1 << 20
	}
	// Without a hook the threshold never moved from 0: no Store is due.
	return g.hook.CompareAndSwap(nil, &highWaterHook{f: f, grain: grain})
}

func (g *Governor) bumpHigh(now int64) {
	for {
		h := g.high.Load()
		if now <= h {
			break
		}
		if g.high.CompareAndSwap(h, now) {
			break
		}
	}
	hook := g.hook.Load()
	if hook == nil {
		return
	}
	for {
		next := g.hookNext.Load()
		if now < next {
			return
		}
		// Jump the threshold past now so one burst fires one sample.
		step := ((now-next)/hook.grain + 1) * hook.grain
		if g.hookNext.CompareAndSwap(next, next+step) {
			hook.f(now)
			return
		}
	}
}

// BudgetError builds the typed error for a consumer that hit the budget,
// naming who needed what. It wraps ErrBudget for errors.Is.
func (g *Governor) BudgetError(who string, need int64) error {
	return fmt.Errorf("%w: %s needs %d bytes, %d of %d reserved",
		ErrBudget, who, need, g.reserved.Load(), g.budget)
}

// Cache is a per-worker reservation cache: deltas accumulate locally and
// are flushed to the shared governor once they exceed the grain, so the
// per-row hot path never touches the shared atomic. A Cache is owned by
// one worker and is NOT safe for concurrent use.
type Cache struct {
	gov   *Governor
	grain int64
	local int64
	net   int64
}

// NewCache returns a worker-local cache; grain <= 0 selects
// DefaultCacheGrain. A nil governor yields a no-op cache.
func (g *Governor) NewCache(grain int64) *Cache {
	if grain <= 0 {
		grain = DefaultCacheGrain
	}
	return &Cache{gov: g, grain: grain}
}

// Reserve accounts n bytes (negative releases), flushing to the governor
// when the local delta exceeds the grain.
func (c *Cache) Reserve(n int64) {
	if c == nil || c.gov == nil {
		return
	}
	c.net += n
	c.local += n
	if c.local >= c.grain || c.local <= -c.grain {
		c.gov.Reserve(c.local)
		c.local = 0
	}
}

// Net returns the cumulative bytes this cache has reserved minus released
// over its lifetime. A finished consumer releases its Net back to the
// governor so a shared governor's ledger survives sequential runs.
func (c *Cache) Net() int64 {
	if c == nil {
		return 0
	}
	return c.net
}

// Flush pushes any pending local delta to the governor. Call at natural
// boundaries (end of a morsel, end of a task) so budget checks see the
// truth.
func (c *Cache) Flush() {
	if c == nil || c.gov == nil || c.local == 0 {
		return
	}
	c.gov.Reserve(c.local)
	c.local = 0
}
