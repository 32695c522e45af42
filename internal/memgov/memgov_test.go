package memgov

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestReserveReleaseHighWater(t *testing.T) {
	g := New(1000)
	g.Reserve(400)
	g.Reserve(300)
	if got := g.Reserved(); got != 700 {
		t.Fatalf("Reserved = %d, want 700", got)
	}
	g.Release(500)
	if got := g.Reserved(); got != 200 {
		t.Fatalf("Reserved after release = %d, want 200", got)
	}
	if got := g.HighWater(); got != 700 {
		t.Fatalf("HighWater = %d, want 700", got)
	}
	if got := g.Remaining(); got != 800 {
		t.Fatalf("Remaining = %d, want 800", got)
	}
}

func TestTryReserveEnforcesBudget(t *testing.T) {
	g := New(100)
	if !g.TryReserve(60) {
		t.Fatal("60/100 must be granted")
	}
	if g.TryReserve(50) {
		t.Fatal("60+50 > 100 must be refused")
	}
	if g.Reserved() != 60 {
		t.Fatalf("refused reservation changed the count: %d", g.Reserved())
	}
	if !g.TryReserve(40) {
		t.Fatal("60+40 = 100 must be granted (budget is inclusive)")
	}
	if g.OverBudget() {
		t.Fatal("exactly at budget is not over budget")
	}
	g.Reserve(1)
	if !g.OverBudget() {
		t.Fatal("forced reservation past budget must report OverBudget")
	}
}

func TestUnlimitedGovernor(t *testing.T) {
	g := New(0)
	if !g.TryReserve(1 << 40) {
		t.Fatal("unlimited governor refused a reservation")
	}
	if g.OverBudget() {
		t.Fatal("unlimited governor can never be over budget")
	}
	if g.HighWater() != 1<<40 {
		t.Fatalf("HighWater = %d", g.HighWater())
	}
}

func TestBudgetErrorWrapsSentinel(t *testing.T) {
	g := New(10)
	err := g.BudgetError("worker table", 64)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("BudgetError does not wrap ErrBudget: %v", err)
	}
}

func TestCacheBatchesAndFlushes(t *testing.T) {
	g := New(0)
	c := g.NewCache(100)
	c.Reserve(40)
	if g.Reserved() != 0 {
		t.Fatalf("small delta flushed early: %d", g.Reserved())
	}
	c.Reserve(70) // 110 >= grain: flush
	if g.Reserved() != 110 {
		t.Fatalf("Reserved = %d, want 110", g.Reserved())
	}
	c.Reserve(-5)
	c.Flush()
	if g.Reserved() != 105 {
		t.Fatalf("Reserved after flush = %d, want 105", g.Reserved())
	}
	c.Flush() // idempotent with nothing pending
	if g.Reserved() != 105 {
		t.Fatalf("empty flush changed the count: %d", g.Reserved())
	}
}

func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	c.Reserve(10)
	c.Flush()
}

func TestConcurrentAccounting(t *testing.T) {
	g := New(0)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := g.NewCache(256)
			for i := 0; i < per; i++ {
				c.Reserve(3)
			}
			c.Flush()
		}()
	}
	wg.Wait()
	if want := int64(workers * per * 3); g.Reserved() != want {
		t.Fatalf("Reserved = %d, want %d", g.Reserved(), want)
	}
	if g.HighWater() < g.Reserved() {
		t.Fatalf("HighWater %d below final Reserved %d", g.HighWater(), g.Reserved())
	}
}

func TestHighWaterHookSamplesPerGrain(t *testing.T) {
	g := New(0)
	var mu sync.Mutex
	var samples []int64
	g.SetHighWaterHook(100, func(hw int64) {
		mu.Lock()
		samples = append(samples, hw)
		mu.Unlock()
	})
	g.Reserve(10)  // high water 10 crosses the initial 0 threshold → sample
	g.Reserve(10)  // high water 20: below the next threshold (110), silent
	g.Reserve(200) // high water 220 crosses 110 → sample, threshold jumps past 220
	g.Release(200) // high water unchanged, silent
	g.Reserve(50)  // reserved 70 < high water, silent
	g.Reserve(300) // high water 370 crosses 310 → sample
	want := []int64{10, 220, 370}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
}

func TestTryReserveOrWaitFastPath(t *testing.T) {
	g := New(100)
	if err := g.TryReserveOrWait(context.Background(), 60); err != nil {
		t.Fatalf("60/100 must be granted without blocking: %v", err)
	}
	if g.Reserved() != 60 {
		t.Fatalf("Reserved = %d, want 60", g.Reserved())
	}
	// Unlimited governors never block.
	u := New(0)
	if err := u.TryReserveOrWait(context.Background(), 1<<40); err != nil {
		t.Fatalf("unlimited governor blocked: %v", err)
	}
}

func TestTryReserveOrWaitBlocksUntilRelease(t *testing.T) {
	g := New(100)
	g.Reserve(80)
	done := make(chan error, 1)
	go func() { done <- g.TryReserveOrWait(context.Background(), 50) }()
	select {
	case err := <-done:
		t.Fatalf("50 over an 80/100 ledger must block, returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.Release(40) // 40/100 reserved → 50 fits
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("TryReserveOrWait after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by Release")
	}
	if g.Reserved() != 90 {
		t.Fatalf("Reserved = %d, want 90", g.Reserved())
	}
}

func TestTryReserveOrWaitCancellation(t *testing.T) {
	g := New(100)
	g.Reserve(100)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.TryReserveOrWait(ctx, 10) }()
	for g.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	if g.Waiting() != 0 {
		t.Fatalf("cancelled waiter still queued: Waiting = %d", g.Waiting())
	}
	if g.Reserved() != 100 {
		t.Fatalf("cancelled waiter changed the ledger: %d", g.Reserved())
	}
	// An already-cancelled context returns before touching the queue.
	if err := g.TryReserveOrWait(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: %v", err)
	}
}

func TestTryReserveOrWaitFIFO(t *testing.T) {
	g := New(100)
	g.Reserve(100)
	order := make(chan int, 2)
	ready := make(chan struct{})
	go func() {
		close(ready)
		if err := g.TryReserveOrWait(context.Background(), 90); err != nil {
			t.Error(err)
		}
		order <- 1
		g.Release(90)
	}()
	<-ready
	for g.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		if err := g.TryReserveOrWait(context.Background(), 10); err != nil {
			t.Error(err)
		}
		order <- 2
	}()
	for g.Waiting() < 2 {
		time.Sleep(time.Millisecond)
	}
	// Freeing 100 could satisfy the later, smaller request first; FIFO
	// demands the 90-byte head waiter wins before the 10-byte one runs.
	g.Release(100)
	if first := <-order; first != 1 {
		t.Fatalf("waiter %d granted first, want the head waiter (1)", first)
	}
	if second := <-order; second != 2 {
		t.Fatalf("second grant went to %d, want 2", second)
	}
}

func TestTryReserveOrWaitChurn(t *testing.T) {
	g := New(1 << 10)
	var wg sync.WaitGroup
	var granted, cancelled atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := int64(64 + (w*37+i*13)%512)
				ctx := context.Background()
				var cancel context.CancelFunc
				if (w+i)%3 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*time.Millisecond)
				}
				err := g.TryReserveOrWait(ctx, n)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					cancelled.Add(1)
					continue
				}
				granted.Add(1)
				g.Release(n)
			}
		}(w)
	}
	wg.Wait()
	if g.Reserved() != 0 {
		t.Fatalf("ledger not drained after churn: %d", g.Reserved())
	}
	if g.Waiting() != 0 {
		t.Fatalf("waiters leaked after churn: %d", g.Waiting())
	}
	if granted.Load() == 0 {
		t.Fatal("no reservation ever granted under churn")
	}
}

// TestHighWaterHookConcurrent checks the hook fires a bounded number of
// times under concurrent growth (at most once per grain of final high
// water, plus one for the initial crossing) and never with a stale value
// below its firing threshold sequence length.
func TestHighWaterHookConcurrent(t *testing.T) {
	g := New(0)
	var calls, bad int64
	var mu sync.Mutex
	g.SetHighWaterHook(1000, func(hw int64) {
		mu.Lock()
		calls++
		if hw < 0 {
			bad++
		}
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Reserve(7)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if bad != 0 {
		t.Fatalf("%d hook calls with invalid high water", bad)
	}
	if calls == 0 {
		t.Fatal("hook never fired")
	}
	if max := g.HighWater()/1000 + 1; calls > max {
		t.Fatalf("hook fired %d times for high water %d with grain 1000 (max %d)",
			calls, g.HighWater(), max)
	}
}

// TestCancelRacesGrant pins the nastiest waiter window: the context is
// cancelled at the same instant the head waiter's grant lands (Release
// kicks it while ctx.Done is already readable). Whichever way the select
// goes, exactly one of two worlds must result — the waiter owns the
// reservation (err == nil) or it does not (ctx error) — and in both the
// ledger reconciles to zero with no waiter left behind. A miscount here
// is a permanent budget leak, so the test hammers the window and then
// audits the ledger.
func TestCancelRacesGrant(t *testing.T) {
	const budget = 100
	g := New(budget)
	for i := 0; i < 5000; i++ {
		g.Reserve(budget) // the waiter must actually wait
		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan error, 1)
		entered := make(chan struct{})
		go func() {
			close(entered)
			got <- g.TryReserveOrWait(ctx, budget)
		}()
		<-entered
		for g.Waiting() == 0 { // the goroutine is on the waiter list
			if err := ctx.Err(); err != nil {
				t.Fatalf("context died before the waiter parked: %v", err)
			}
		}
		// Fire the grant and the cancellation together.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); g.Release(budget) }()
		go func() { defer wg.Done(); cancel() }()
		wg.Wait()
		err := <-got
		switch {
		case err == nil:
			// The grant won: the waiter owns budget bytes.
			if r := g.Reserved(); r != budget {
				t.Fatalf("iter %d: granted waiter owns %d, want %d", i, r, budget)
			}
			g.Release(budget)
		case errors.Is(err, context.Canceled):
			// The cancel won: the reservation must be back in the ledger.
		default:
			t.Fatalf("iter %d: unexpected error %v", i, err)
		}
		if r := g.Reserved(); r != 0 {
			t.Fatalf("iter %d: ledger holds %d after reconciliation", i, r)
		}
		if w := g.Waiting(); w != 0 {
			t.Fatalf("iter %d: %d waiters leaked", i, w)
		}
	}
}

// TestSetHighWaterHookWhileShared installs hooks from 8 goroutines while
// the same goroutines reserve and release on one governor, as traced runs
// on a shared ledger do. Every hook that was installed sees the growth
// after it, and under -race the detector reports nothing.
func TestSetHighWaterHookWhileShared(t *testing.T) {
	g := New(0)
	const workers = 8
	var fired [workers]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%50 == 0 {
					g.SetHighWaterHook(64, func(int64) { fired[w].Add(1) })
				}
				g.Reserve(16)
				if i%2 == 1 {
					g.Release(16)
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for w := range fired {
		total += fired[w].Load()
	}
	if total == 0 {
		t.Fatal("no installed hook was ever called")
	}
	if got, want := g.Reserved(), int64(workers*100*16); got != want {
		t.Fatalf("Reserved = %d, want %d", got, want)
	}
	// The last hook installed sees growth after it: one more reservation
	// past the high water crosses its threshold.
	var last atomic.Int64
	g.SetHighWaterHook(64, func(hw int64) { last.Store(hw) })
	g.Reserve(g.HighWater() - g.Reserved() + 1)
	if last.Load() != g.HighWater() {
		t.Fatalf("last hook saw %d, want the high water %d", last.Load(), g.HighWater())
	}
}

// TestInitHighWaterHookInstallsOnce: the first InitHighWaterHook installs
// its hook; later calls leave it and its threshold alone, so a reservation
// below the reached high water fires nothing.
func TestInitHighWaterHookInstallsOnce(t *testing.T) {
	g := New(0)
	var first, second atomic.Int64
	if !g.InitHighWaterHook(100, func(int64) { first.Add(1) }) {
		t.Fatal("first InitHighWaterHook did not install")
	}
	g.Reserve(250)
	g.Release(250)
	if g.InitHighWaterHook(100, func(int64) { second.Add(1) }) {
		t.Fatal("second InitHighWaterHook replaced the hook")
	}
	g.Reserve(200)
	if first.Load() != 1 || second.Load() != 0 {
		t.Fatalf("samples: first hook %d, second %d; want 1, 0", first.Load(), second.Load())
	}
	g.Reserve(100) // high water 300 crosses the threshold at 300
	if first.Load() != 2 {
		t.Fatalf("first hook fired %d times after a crossing, want 2", first.Load())
	}
}
