package serve

// The cancellation hammer: hundreds of queries against a budget-starved
// server, each client cancelling at a randomized point — while queued for
// admission, while the in-memory build runs, while the degraded run is
// spilling or merging. Whatever the timing, the service must come out
// clean: no leaked goroutines, no leaked spill files, a ledger at zero,
// and not a single untyped outcome or panic.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cacheagg"
	"cacheagg/internal/testutil"
)

func TestCancellationHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer is seconds-long; skipped in -short")
	}
	testutil.VerifyNoLeaks(t)

	// Corral spill files: every degraded run's spill directory lands under
	// this test-owned TMPDIR, so leftovers are provable leaks.
	spillRoot := t.TempDir()
	t.Setenv("TMPDIR", spillRoot)

	const rows = 1 << 16
	reg := testRegistry(t, rows)
	est := EstimateCost(rows, 2, 1, 64<<10)
	s, ts := newTestServer(t, Config{
		Registry: reg,
		Admission: AdmitConfig{
			// Two concurrent floors and a deep queue: most of the hammer
			// waits in the admission queue, and running queries spill
			// under pressure — so cancels land in every state: queued,
			// reserving, building, spilling, merging.
			BudgetBytes: 2 * est,
			MaxQueue:    64,
			MaxWait:     10 * time.Second,
		},
		QueryWorkers:    1,
		QueryCacheBytes: 64 << 10,
		// No result cache: cancellation must hit live executions, not
		// memoized bodies.
		ResultCacheBytes: 0,
	})

	httpc := &http.Client{Transport: &http.Transport{}}
	defer httpc.CloseIdleConnections()

	// Direct-call baselines for content checks on whatever completes.
	d, _ := reg.Lookup("events")
	baseline := make([]*cacheagg.Result, len(drillSpecs))
	for i, specs := range drillSpecs {
		res, err := cacheagg.Aggregate(cacheagg.Input{
			GroupBy: d.Keys, Columns: d.Cols, Aggregates: specs,
		}, cacheagg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = res
	}

	const queries = 300
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, queries)
	for i := range delays {
		// Log-uniform 50µs..1.6s: early cancels land while queued, late
		// ones mid-build or mid-spill, the latest after completion.
		delays[i] = time.Duration(float64(50*time.Microsecond) *
			math.Pow(2, rng.Float64()*15))
	}

	var wg sync.WaitGroup
	failures := make(chan error, queries)
	sem := make(chan struct{}, 48)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(delays[i], cancel)
			defer timer.Stop()
			defer cancel()

			shape := i % len(drillShapes)
			// Every fifth query also carries a tight server-side deadline,
			// so the deadline path is hammered alongside client cancels.
			deadline := ""
			if i%5 == 0 {
				deadline = fmt.Sprintf(`,"deadline_ms":%d`, 1+i%50)
			}
			body := fmt.Sprintf(`{"dataset":"events","aggregates":%s,"no_cache":true%s}`,
				drillShapes[shape], deadline)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v1/aggregate", strings.NewReader(body))
			if err != nil {
				failures <- err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := httpc.Do(req)
			if err != nil {
				// The only legitimate transport failure is our own cancel.
				if errors.Is(err, context.Canceled) {
					return
				}
				failures <- fmt.Errorf("query %d: transport: %w", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				wantFloats := strings.Contains(drillShapes[shape], "avg")
				if err := checkBitIdentical(resp.Body, baseline[shape], wantFloats); err != nil {
					// A cancel racing the response body read is fine; a
					// content mismatch is not.
					if ctx.Err() != nil {
						return
					}
					failures <- fmt.Errorf("query %d: %w", i, err)
				}
				return
			}
			code, err := decodeErrorCode(resp.Body)
			if err != nil {
				if ctx.Err() != nil {
					return // body read torn down by our cancel
				}
				failures <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			switch code {
			case ErrAdmissionQueueFull.Code, ErrBudgetUnavailable.Code,
				ErrShed.Code, ErrCancelled.Code, ErrDeadline.Code:
			default:
				failures <- fmt.Errorf("query %d: unexpected outcome %q", i, code)
			}
		}(i)
	}
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Error(err)
	}

	if err := s.Drain(contextWithTimeout(t, 30*time.Second)); err != nil {
		t.Fatalf("drain after hammer: %v", err)
	}
	t.Logf("hammer: admitted=%d queued=%d spilled=%d succeeded=%d cancelled=%d deadline=%d queue_full=%d shed=%d",
		s.metrics.Admitted.Load(), s.metrics.QueuedAdmitted.Load(),
		s.metrics.Spilled.Load(),
		s.metrics.Succeeded.Load(), s.metrics.Cancelled.Load(),
		s.metrics.DeadlineExpired.Load(), s.metrics.RejectedQueue.Load(),
		s.metrics.Shed.Load())
	if got := s.ctrl.Ledger().Reserved(); got != 0 {
		t.Errorf("ledger reserved = %d after drain, want 0", got)
	}
	if got := s.ctrl.Ledger().Waiting(); got != 0 {
		t.Errorf("ledger waiters = %d after drain, want 0", got)
	}
	if got := s.ctrl.QueueLen(); got != 0 {
		t.Errorf("admission queue = %d after drain, want 0", got)
	}
	if got := s.metrics.Panics.Load(); got != 0 {
		t.Errorf("panics = %d, want 0", got)
	}
	if got := s.metrics.InternalErrors.Load(); got != 0 {
		t.Errorf("internal errors = %d, want 0", got)
	}

	// Every spill directory must be gone: cancelled mid-spill or not,
	// the external layer removes its temp tree on every exit path.
	leftovers, err := filepath.Glob(filepath.Join(spillRoot, "cacheagg-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("leaked spill directories: %v", leftovers)
	}
	// And nothing else either — the root was created for this test.
	entries, err := os.ReadDir(spillRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("unexpected file in spill root: %s", e.Name())
	}
}
