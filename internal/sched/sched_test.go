package sched

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cacheagg/internal/testutil"
)

func TestPoolRunsSingleTask(t *testing.T) {
	p := NewPool(4)
	var ran atomic.Int32
	p.Run(func(ctx *Ctx) { ran.Add(1) })
	if ran.Load() != 1 {
		t.Fatalf("task ran %d times", ran.Load())
	}
}

func TestPoolRunsAllSpawnedTasks(t *testing.T) {
	p := NewPool(4)
	const n = 1000
	var ran atomic.Int32
	p.Run(func(ctx *Ctx) {
		for i := 0; i < n; i++ {
			ctx.Spawn(func(*Ctx) { ran.Add(1) })
		}
	})
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
}

func TestPoolNestedSpawns(t *testing.T) {
	// Recursive task tree: every node spawns children down to depth 0.
	// Node count for branching 3, depth 6: (3^7-1)/2 = 1093.
	p := NewPool(8)
	var ran atomic.Int32
	var spawn func(depth int) Task
	spawn = func(depth int) Task {
		return func(ctx *Ctx) {
			ran.Add(1)
			if depth == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				ctx.Spawn(spawn(depth - 1))
			}
		}
	}
	p.Run(spawn(6))
	if ran.Load() != 1093 {
		t.Fatalf("ran %d nodes, want 1093", ran.Load())
	}
}

func TestPoolWorkerIDsInRange(t *testing.T) {
	p := NewPool(3)
	var mu sync.Mutex
	seen := map[int]bool{}
	p.Run(func(ctx *Ctx) {
		for i := 0; i < 200; i++ {
			ctx.Spawn(func(c *Ctx) {
				if c.Worker < 0 || c.Worker >= 3 {
					t.Errorf("worker id %d out of range", c.Worker)
				}
				if c.Workers() != 3 {
					t.Errorf("Workers() = %d", c.Workers())
				}
				mu.Lock()
				seen[c.Worker] = true
				mu.Unlock()
			})
		}
	})
	if len(seen) == 0 {
		t.Fatal("no tasks ran")
	}
}

func TestPoolStealingSpreadsWork(t *testing.T) {
	// All tasks are spawned from one worker's deque; with more than one
	// worker and enough blocking-free tasks, at least one task should be
	// stolen. We detect execution by a non-spawning worker.
	if NewPool(0).Workers() < 1 {
		t.Fatal("NewPool(0) must have at least one worker")
	}
	p := NewPool(4)
	var byWorker [4]atomic.Int64
	p.Run(func(ctx *Ctx) {
		for i := 0; i < 10000; i++ {
			ctx.Spawn(func(c *Ctx) {
				byWorker[c.Worker].Add(1)
				// A little work so others have time to steal.
				s := 0
				for j := 0; j < 100; j++ {
					s += j
				}
				_ = s
			})
		}
	})
	total := int64(0)
	for i := range byWorker {
		total += byWorker[i].Load()
	}
	if total != 10000 {
		t.Fatalf("executed %d, want 10000", total)
	}
}

func TestPoolSequentialReuse(t *testing.T) {
	p := NewPool(2)
	for round := 0; round < 3; round++ {
		var ran atomic.Int32
		p.Run(func(ctx *Ctx) {
			for i := 0; i < 50; i++ {
				ctx.Spawn(func(*Ctx) { ran.Add(1) })
			}
		})
		if ran.Load() != 50 {
			t.Fatalf("round %d: ran %d", round, ran.Load())
		}
	}
}

func TestMorselsCoverRangeExactlyOnce(t *testing.T) {
	const n = 100000
	m := NewMorsels(n, 7)
	covered := make([]int32, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo, hi, ok := m.Next()
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			}
		}()
	}
	wg.Wait()
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestMorselsEmptyRange(t *testing.T) {
	m := NewMorsels(0, 10)
	if _, _, ok := m.Next(); ok {
		t.Fatal("empty range should yield nothing")
	}
}

func TestMorselsDefaultGrain(t *testing.T) {
	m := NewMorsels(DefaultGrain*2+1, 0)
	lo, hi, ok := m.Next()
	if !ok || lo != 0 || hi != DefaultGrain {
		t.Fatalf("first morsel [%d,%d) ok=%v", lo, hi, ok)
	}
	// Last morsel is the remainder.
	m.Next()
	lo, hi, ok = m.Next()
	if !ok || hi-lo != 1 {
		t.Fatalf("tail morsel [%d,%d) ok=%v", lo, hi, ok)
	}
	if _, _, ok := m.Next(); ok {
		t.Fatal("range should be exhausted")
	}
}

func TestMorselsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMorsels(-1, 1)
}

func TestPoolSingleWorker(t *testing.T) {
	p := NewPool(1)
	var order []int
	p.Run(func(ctx *Ctx) {
		order = append(order, 0)
		ctx.Spawn(func(*Ctx) { order = append(order, 1) })
		ctx.Spawn(func(*Ctx) { order = append(order, 2) })
	})
	if len(order) != 3 {
		t.Fatalf("ran %d tasks", len(order))
	}
	// Single worker pops LIFO: 0 then 2 then 1.
	if order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("unexpected order %v (LIFO expected)", order)
	}
}

func BenchmarkSpawnAndRun(b *testing.B) {
	p := NewPool(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(func(ctx *Ctx) {
			for j := 0; j < 100; j++ {
				ctx.Spawn(func(*Ctx) {})
			}
		})
	}
}

func BenchmarkMorsels(b *testing.B) {
	m := NewMorsels(1<<30, 1024)
	for i := 0; i < b.N; i++ {
		if _, _, ok := m.Next(); !ok {
			// b.N can exceed the morsel count; start a fresh range.
			m = NewMorsels(1<<30, 1024)
		}
	}
}

func TestPoolTaskPanicBecomesError(t *testing.T) {
	p := NewPool(4)
	err := p.Run(func(ctx *Ctx) { panic("boom") })
	if err == nil {
		t.Fatal("panicking task must surface as an error")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error should carry the panic value and context, got: %v", err)
	}
}

func TestPoolPanicDrainsWithoutDeadlock(t *testing.T) {
	// A panic in the middle of a large task graph must not strand the
	// pending counter: every worker exits and Run returns.
	p := NewPool(4)
	var ran atomic.Int32
	err := p.Run(func(ctx *Ctx) {
		for i := 0; i < 500; i++ {
			i := i
			ctx.Spawn(func(*Ctx) {
				if i == 250 {
					panic("mid-graph")
				}
				ran.Add(1)
			})
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// Not all tasks may have run (teardown drains), but the pool must be
	// reusable afterwards with a clean slate.
	var again atomic.Int32
	if err := p.Run(func(ctx *Ctx) { again.Add(1) }); err != nil {
		t.Fatalf("pool not reusable after panic: %v", err)
	}
	if again.Load() != 1 {
		t.Fatalf("reuse ran %d tasks", again.Load())
	}
}

func TestPoolFirstPanicWins(t *testing.T) {
	p := NewPool(4)
	err := p.Run(func(ctx *Ctx) {
		for i := 0; i < 8; i++ {
			ctx.Spawn(func(*Ctx) { panic("multi") })
		}
	})
	if err == nil || !strings.Contains(err.Error(), "multi") {
		t.Fatalf("err = %v", err)
	}
}

func TestCtxFailAbortsRunWithTypedError(t *testing.T) {
	p := NewPool(4)
	sentinel := errors.New("budget exceeded")
	var ranAfter atomic.Int32
	err := p.Run(func(c *Ctx) {
		c.Fail(sentinel)
		// Children spawned after a Fail are drained, not executed.
		for !c.Aborted() {
			runtime.Gosched()
		}
		for i := 0; i < 64; i++ {
			c.Spawn(func(*Ctx) { ranAfter.Add(1) })
		}
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the failed task's typed error", err)
	}
	if ranAfter.Load() != 0 {
		t.Fatalf("%d tasks ran after Fail", ranAfter.Load())
	}
	// First failure wins; nil Fail is a no-op; pool is reusable.
	if err := p.Run(func(c *Ctx) { c.Fail(nil) }); err != nil {
		t.Fatalf("pool not reusable after Fail, or nil Fail recorded: %v", err)
	}
}

func TestCtxFailFirstErrorWins(t *testing.T) {
	p := NewPool(4)
	first := errors.New("first")
	err := p.Run(func(c *Ctx) {
		c.Fail(first)
		c.Fail(errors.New("second"))
	})
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want the first failure", err)
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	p := NewPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := p.RunContext(ctx, func(*Ctx) { ran.Add(1) })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("cancelled run must not execute any task")
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	p := NewPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := p.RunContext(ctx, func(c *Ctx) {
		cancel()
		// Wait until every worker can observe the abort flag, then spawn:
		// none of these children may execute.
		for !c.Aborted() {
			runtime.Gosched()
		}
		for i := 0; i < 100; i++ {
			c.Spawn(func(*Ctx) { ran.Add(1) })
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran after cancellation", ran.Load())
	}
}

func TestRunContextNoGoroutineLeak(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := NewPool(4)
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		p.RunContext(ctx, func(c *Ctx) {
			for j := 0; j < 50; j++ {
				c.Spawn(func(*Ctx) {})
			}
		})
		cancel()
	}
}
