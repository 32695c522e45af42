package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cacheagg/internal/core"
	"cacheagg/internal/sched"
	"cacheagg/internal/testutil"
)

func TestAdmitFastPathAndRelease(t *testing.T) {
	c := NewController(AdmitConfig{BudgetBytes: 100 << 20}, nil)
	g, err := c.Admit(context.Background(), PriorityNormal, 10<<20)
	if err != nil {
		t.Fatal(err)
	}
	if g.Queued {
		t.Fatalf("grant = %+v, want unqueued", g)
	}
	if got := c.Ledger().Reserved(); got != 10<<20 {
		t.Fatalf("ledger = %d, want %d", got, 10<<20)
	}
	g.Release()
	g.Release() // idempotent
	if got := c.Ledger().Reserved(); got != 0 {
		t.Fatalf("ledger after release = %d, want 0", got)
	}
}

// TestAdmitRefusesFloorAboveBudget: a floor no release can make room for
// is refused at once, with no retry hint, instead of waiting out an hour
// of MaxWait; nothing is reserved or left waiting.
func TestAdmitRefusesFloorAboveBudget(t *testing.T) {
	m := &Metrics{}
	c := NewController(AdmitConfig{BudgetBytes: 8 << 20, MaxWait: time.Hour}, m)
	g, err := c.Admit(context.Background(), PriorityNormal, 8<<20+1)
	if err == nil {
		g.Release()
		t.Fatal("a floor above the budget must be refused")
	}
	var serr *Error
	if !errors.As(err, &serr) || serr.Code != ErrBudgetUnavailable.Code || serr.RetryAfter != 0 {
		t.Fatalf("err = %v, want budget_unavailable without a retry hint", err)
	}
	if m.RejectedBudget.Load() != 1 {
		t.Fatalf("RejectedBudget = %d, want 1", m.RejectedBudget.Load())
	}
	if r, w := c.Ledger().Reserved(), c.Ledger().Waiting(); r != 0 || w != 0 {
		t.Fatalf("ledger reserved %d with %d waiting, want 0 and 0", r, w)
	}
	// The reserving state was handed on: a floor that fits is admitted.
	g, err = c.Admit(context.Background(), PriorityNormal, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
}

func TestBudgetUnavailableTyped(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	c := NewController(AdmitConfig{
		BudgetBytes: 4 << 20,
		MaxWait:     30 * time.Millisecond,
	}, nil)
	g1, err := c.Admit(context.Background(), PriorityNormal, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer g1.Release()
	_, err = c.Admit(context.Background(), PriorityNormal, 4<<20)
	if !errors.Is(err, ErrBudgetUnavailable) {
		t.Fatalf("err = %v, want ErrBudgetUnavailable", err)
	}
	var serr *Error
	if !errors.As(err, &serr) || serr.RetryAfter <= 0 {
		t.Fatalf("budget rejection carries no Retry-After hint: %v", err)
	}
}

func TestQueueFullAndShed(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m := &Metrics{}
	c := NewController(AdmitConfig{
		BudgetBytes: 4 << 20,
		MaxQueue:    2,
		MaxWait:     5 * time.Second,
	}, m)
	// Saturate the budget so every following Admit parks.
	hold, err := c.Admit(context.Background(), PriorityNormal, 4<<20)
	if err != nil {
		t.Fatal(err)
	}

	// One query occupies the reserving state, two more fill the queue.
	results := make(chan error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := c.Admit(context.Background(), PriorityLow, 4<<20)
			if err == nil {
				g.Release()
			}
			results <- err
		}()
		// Deterministic arrival order: reserving, queued, queued.
		waitFor(t, func() bool { return c.QueueLen()+c.Ledger().Waiting() > i })
	}
	waitFor(t, func() bool { return c.QueueLen() == 2 })

	// A low-priority arrival outranks nothing → typed queue-full.
	_, err = c.Admit(context.Background(), PriorityLow, 4<<20)
	if !errors.Is(err, ErrAdmissionQueueFull) {
		t.Fatalf("err = %v, want ErrAdmissionQueueFull", err)
	}
	if m.RejectedQueue.Load() != 1 {
		t.Fatalf("RejectedQueue = %d, want 1", m.RejectedQueue.Load())
	}

	// A high-priority arrival sheds the youngest queued low-priority
	// waiter and takes its place.
	highDone := make(chan error, 1)
	go func() {
		g, err := c.Admit(context.Background(), PriorityHigh, 4<<20)
		if err == nil {
			g.Release()
		}
		highDone <- err
	}()
	shedErr := <-results
	if !errors.Is(shedErr, ErrShed) {
		t.Fatalf("victim got %v, want ErrShed", shedErr)
	}
	if m.Shed.Load() != 1 {
		t.Fatalf("Shed = %d, want 1", m.Shed.Load())
	}

	// Releasing the hold lets the remaining queue drain.
	hold.Release()
	if err := <-highDone; err != nil {
		t.Fatalf("high-priority waiter: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil && !errors.Is(err, ErrShed) {
			t.Fatalf("queued waiter: %v", err)
		}
	}
	wg.Wait()
	if got := c.Ledger().Reserved(); got != 0 {
		t.Fatalf("ledger = %d after drain", got)
	}
}

func TestQueuedWaiterHonorsCancellation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	c := NewController(AdmitConfig{
		BudgetBytes: 4 << 20,
		MaxWait:     10 * time.Second,
	}, nil)
	hold, err := c.Admit(context.Background(), PriorityNormal, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, PriorityNormal, 4<<20)
		done <- err
	}()
	// Wait until it is parked (either queued or in the reserving state).
	waitFor(t, func() bool { return c.QueueLen() > 0 || c.Ledger().Waiting() > 0 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter stuck — its queue slot did not free")
	}
	waitFor(t, func() bool { return c.QueueLen() == 0 && c.Ledger().Waiting() == 0 })
}

func TestDrainingRejectsAdmission(t *testing.T) {
	c := NewController(AdmitConfig{BudgetBytes: 1 << 20}, nil)
	c.SetDraining()
	_, err := c.Admit(context.Background(), PriorityHigh, 1<<20)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

func TestUnlimitedBudgetAdmitsInstantly(t *testing.T) {
	c := NewController(AdmitConfig{}, nil)
	for i := 0; i < 100; i++ {
		g, err := c.Admit(context.Background(), PriorityLow, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Release()
		if g.Queued {
			t.Fatal("unlimited budget queued a query")
		}
	}
}

// TestEstimateCostMonotone pins the floor's properties: one worker's
// fixed machinery per worker of the pool core builds — no more workers
// than the input has morsels — and no term that grows with the rows once
// the pool is full, since the output is never estimated.
func TestEstimateCostMonotone(t *testing.T) {
	fixed := func(words, cache int) int64 {
		f, _ := core.Footprint(core.Config{CacheBytes: cache}, words)
		return f
	}
	const cache = 64 << 10
	if got, want := EstimateCost(1000, 1, 1, cache), fixed(2, cache); got != want {
		t.Fatalf("one worker's floor = %d, want its fixed machinery %d", got, want)
	}
	if small, big := EstimateCost(1000, 1, 1, cache), EstimateCost(1<<22, 1, 1, cache); big != small {
		t.Fatalf("floor grows with the rows: %d at 1000 rows, %d at 2^22", small, big)
	}
	if got, want := EstimateCost(1000, 1, 4, cache), fixed(2, cache); got != want {
		t.Fatalf("one-morsel floor at 4 workers = %d, want one worker's %d", got, want)
	}
	if got, want := EstimateCost(4*sched.DefaultGrain, 1, 4, cache), 4*fixed(2, cache); got != want {
		t.Fatalf("four-morsel floor at 4 workers = %d, want %d", got, want)
	}
	if narrow, wide := EstimateCost(1000, 1, 1, cache), EstimateCost(1000, 8, 1, cache); wide <= narrow {
		t.Fatalf("floor not monotone in width: %d vs %d", wide, narrow)
	}
	if small, big := EstimateCost(1000, 1, 1, cache), EstimateCost(1000, 1, 1, 1<<20); big <= small {
		t.Fatalf("floor not monotone in cache: %d vs %d", big, small)
	}
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
