// Package sched implements the user-level scheduling of the framework
// (paper Section 3.2): task parallelism for the recursive bucket calls plus
// work stealing for the main loop over the input.
//
// Each worker owns a deque of tasks: it pushes and pops at the tail (LIFO,
// good locality for the recursion) while idle workers steal from the head
// (FIFO, stealing the largest pending subtrees). The paper's two axes of
// parallelism map onto this directly: recursive calls are Spawned as
// independent tasks, and the loop over the input is split into morsels
// handed out through an atomic counter (Morsels), which is the
// work-stealing parallelization of the main loop — a thread that finished
// its own bucket helps processing the input of a large bucket instead of
// idling.
//
// Synchronization happens only at task boundaries; inside a task the
// framework's workers touch no shared state, matching the paper's
// "wait-free parallelization" goal.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cacheagg/internal/xrand"
)

// Task is a unit of work. It receives the executing worker's context so it
// can use per-worker state and spawn subtasks.
type Task func(ctx *Ctx)

// Ctx identifies the executing worker within its pool.
type Ctx struct {
	// Worker is the executing worker's index in [0, Workers).
	Worker int
	pool   *Pool
}

// Spawn schedules a subtask. It may only be called while the pool is
// running (i.e. from inside a task).
func (c *Ctx) Spawn(t Task) { c.pool.push(c.Worker, t) }

// Workers returns the pool size.
func (c *Ctx) Workers() int { return c.pool.workers }

// Aborted reports whether the current run is being torn down — because a
// task panicked, failed via Fail, or the run's context was cancelled.
// Long-running tasks should poll it at natural boundaries (per morsel, per
// run) and return early; their partial output is discarded by the caller
// anyway.
func (c *Ctx) Aborted() bool { return c.pool.aborted.Load() }

// Fail aborts the current run cooperatively: the given error is recorded
// (first failure wins, like panics), remaining tasks are drained without
// being executed, and RunContext returns the error. Use it for typed
// give-up conditions a task detects itself — a memory budget exceeded, an
// invariant violated — where a panic would lose the error's type.
func (c *Ctx) Fail(err error) {
	if err == nil {
		return
	}
	c.pool.fail(err)
}

// deque is a per-worker double-ended task queue. The owner pushes and pops
// at the tail; thieves steal from the head. A plain mutex keeps it simple
// and correct; contention is negligible because steals are rare and tasks
// are coarse (whole buckets / morsels).
type deque struct {
	mu    sync.Mutex
	tasks []Task
}

func (d *deque) push(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) pop() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return nil, false
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	return t, true
}

func (d *deque) steal() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return nil, false
	}
	t := d.tasks[0]
	d.tasks[0] = nil
	d.tasks = d.tasks[1:]
	return t, true
}

// Pool is a fixed-size worker pool executing a dynamic task graph to
// quiescence.
//
// A run is hardened against misbehaving tasks: a panic inside a task is
// recovered, converted into an error carrying the panic value and stack,
// and aborts the run — remaining tasks are drained without being executed,
// every worker exits, and Run returns the error instead of crashing the
// process or deadlocking on the pending-task counter.
type Pool struct {
	workers int
	deques  []deque
	pending atomic.Int64

	// Per-run teardown state, reset at the start of every Run.
	aborted atomic.Bool
	errMu   sync.Mutex
	err     error
}

// NewPool creates a pool of p workers; p <= 0 selects GOMAXPROCS.
func NewPool(p int) *Pool {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: p, deques: make([]deque, p)}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) push(worker int, t Task) {
	p.pending.Add(1)
	p.deques[worker].push(t)
}

// Run executes root and everything it transitively spawns, returning when
// all tasks have completed. It blocks the caller. A one-worker pool runs
// the tasks on the caller's goroutine; a wider pool runs them on one
// goroutine per worker, and the caller's goroutine only waits. The returned
// error is the first task panic, converted, or nil.
func (p *Pool) Run(root Task) error { return p.RunContext(context.Background(), root) }

// RunContext is Run with cancellation: when ctx is cancelled the run is
// aborted — workers finish their current task, drain the remaining task
// graph without executing it, and RunContext returns ctx.Err(). An already
// cancelled context returns immediately without running any task. A task
// panic takes precedence over a concurrent cancellation in the returned
// error.
func (p *Pool) RunContext(ctx context.Context, root Task) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.aborted.Store(false)
	p.errMu.Lock()
	p.err = nil
	p.errMu.Unlock()

	// Watch for cancellation without polling ctx on the hot path: the
	// watcher flips the aborted flag that workers already check per task.
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		var watch sync.WaitGroup
		watch.Add(1)
		go func() {
			defer watch.Done()
			select {
			case <-done:
				p.aborted.Store(true)
			case <-stop:
			}
		}()
		defer func() {
			close(stop)
			watch.Wait()
		}()
	}

	p.push(0, root)
	if p.workers == 1 {
		// Nothing to steal from or for: the caller is the worker.
		p.work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(p.workers)
		for w := 0; w < p.workers; w++ {
			go func(w int) {
				defer wg.Done()
				p.work(w)
			}(w)
		}
		wg.Wait()
	}

	p.errMu.Lock()
	err := p.err
	p.errMu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// fail records the first task failure and aborts the run.
func (p *Pool) fail(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
	p.aborted.Store(true)
}

// runTask executes one task, containing panics: a panicking task marks the
// run failed but still counts as completed, so the pending counter reaches
// zero and every worker exits cleanly.
func (p *Pool) runTask(ctx *Ctx, t Task) {
	defer func() {
		if r := recover(); r != nil {
			p.fail(fmt.Errorf("sched: task panicked on worker %d: %v\n%s",
				ctx.Worker, r, debug.Stack()))
		}
		p.pending.Add(-1)
	}()
	t(ctx)
}

func (p *Pool) work(w int) {
	ctx := &Ctx{Worker: w, pool: p}
	var rng *xrand.Xoshiro256 // victim picker, made on first steal attempt
	idleSpins := 0
	for {
		t, ok := p.deques[w].pop()
		if !ok && p.workers > 1 {
			if rng == nil {
				rng = xrand.NewXoshiro256(uint64(w) + 12345)
			}
			// Try to steal from a random victim, then scan all.
			victim := rng.Intn(p.workers)
			for i := 0; i < p.workers && !ok; i++ {
				v := (victim + i) % p.workers
				if v == w {
					continue
				}
				t, ok = p.deques[v].steal()
			}
		}
		if ok {
			idleSpins = 0
			if p.aborted.Load() {
				// Teardown: drain without executing. Running tasks may
				// still spawn; their children land here too, so the
				// counter always reaches zero.
				p.pending.Add(-1)
				continue
			}
			p.runTask(ctx, t)
			continue
		}
		if p.pending.Load() == 0 {
			return
		}
		// Tasks are in flight on other workers and may spawn more;
		// back off briefly before retrying.
		idleSpins++
		if idleSpins < 16 {
			runtime.Gosched()
		} else {
			// Cheap bounded backoff without time dependencies.
			for i := 0; i < 1<<8; i++ {
				runtime.Gosched()
			}
		}
	}
}

// Morsels hands out disjoint index ranges of [0, n) in grain-sized chunks
// through a single atomic counter. It implements the work-stealing
// parallelization of the framework's main input loop: any worker — at any
// time — can grab the next unprocessed chunk of the input.
type Morsels struct {
	next  atomic.Int64
	n     int64
	grain int64
}

// DefaultGrain is the default morsel size in rows. Large enough that the
// atomic increment amortizes to nothing, small enough to balance skewed
// per-row costs.
const DefaultGrain = 16384

// NewMorsels creates a morsel dispenser over [0, n); grain <= 0 selects
// DefaultGrain.
func NewMorsels(n, grain int) *Morsels {
	if n < 0 {
		panic("sched: negative range")
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	return &Morsels{n: int64(n), grain: int64(grain)}
}

// Next returns the next unclaimed range [lo, hi). ok is false when the
// range is exhausted.
func (m *Morsels) Next() (lo, hi int, ok bool) {
	for {
		cur := m.next.Load()
		if cur >= m.n {
			return 0, 0, false
		}
		end := cur + m.grain
		if end > m.n {
			end = m.n
		}
		if m.next.CompareAndSwap(cur, end) {
			return int(cur), int(end), true
		}
	}
}
