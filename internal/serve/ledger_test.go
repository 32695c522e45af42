package serve

// Tests of the one shared ledger: a query waits only for its floor, runs
// on the server's ledger, and spills when the ledger is over budget.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cacheagg"
	"cacheagg/internal/agg"
	"cacheagg/internal/core"
	"cacheagg/internal/memgov"
	"cacheagg/internal/sched"
	"cacheagg/internal/testutil"
)

// queryFloor is the floor the server admits body's query with.
func queryFloor(t *testing.T, s *Server, body string) (int64, core.Input) {
	t.Helper()
	req, err := DecodeRequest(strings.NewReader(body), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := s.resolveInput(req)
	if err != nil {
		t.Fatal(err)
	}
	return core.Floor(s.runConfig(), len(in.Keys), agg.NewLayout(in.Specs).Words), in
}

// directResult is the library's answer to drill shape i over the dataset.
func directResult(t *testing.T, reg *Registry, shape int) *cacheagg.Result {
	t.Helper()
	d, _ := reg.Lookup("events")
	res, err := cacheagg.Aggregate(cacheagg.Input{
		GroupBy: d.Keys, Columns: d.Cols, Aggregates: drillSpecs[shape],
	}, cacheagg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// headerMode returns the mode of a success body's header line, "" when
// it has none.
func headerMode(t *testing.T, body []byte) string {
	t.Helper()
	line, _, _ := bytes.Cut(body, []byte("\n"))
	var hdr struct {
		Mode *string `json:"mode"`
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		t.Fatalf("header %q: %v", line, err)
	}
	if hdr.Mode == nil {
		return ""
	}
	if *hdr.Mode == "" {
		t.Fatalf("header %q carries an empty mode", line)
	}
	return *hdr.Mode
}

// TestSharedLedgerQuerySpills: another holder leaves a query its floor
// and 64 KiB. The query is admitted at once, runs on the server's ledger,
// spills when its tables and runs grow past the room left, and answers
// exactly what the library does, AVG bits included. The ledger returns to
// the holder's bytes, then to zero, and no spill directory is left.
func TestSharedLedgerQuerySpills(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	spillRoot := t.TempDir()
	t.Setenv("TMPDIR", spillRoot)
	const budget = 16 << 20
	reg := testRegistry(t, 1<<16)
	s, ts := newTestServer(t, Config{
		Registry:        reg,
		Admission:       AdmitConfig{BudgetBytes: budget, MaxWait: time.Minute},
		QueryWorkers:    1,
		QueryCacheBytes: 64 << 10,
	})
	const shape = 6 // sum and avg
	body := fmt.Sprintf(`{"dataset":"events","no_cache":true,"aggregates":%s}`, drillShapes[shape])
	floor, _ := queryFloor(t, s, body)
	gov := s.ctrl.Ledger()
	held := budget - floor - 64<<10
	if !gov.TryReserve(held) {
		t.Fatalf("holder could not reserve %d bytes", held)
	}

	resp := postQuery(t, ts.URL, body)
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if mode := headerMode(t, got); mode != "spill" {
		t.Fatalf("mode = %q, want spill", mode)
	}
	if err := checkBitIdentical(bytes.NewReader(got), directResult(t, reg, shape), true); err != nil {
		t.Fatal(err)
	}
	if n := s.metrics.Spilled.Load(); n != 1 {
		t.Fatalf("Spilled = %d, want 1", n)
	}
	if r := gov.Reserved(); r != held {
		t.Fatalf("ledger = %d after the query, want the holder's %d", r, held)
	}
	gov.Release(held)
	if r := gov.Reserved(); r != 0 {
		t.Fatalf("ledger = %d after the holder released, want 0", r)
	}
	leftovers, err := filepath.Glob(filepath.Join(spillRoot, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("spill files left behind: %v", leftovers)
	}

	// With the ledger free, the same query runs in memory: no mode.
	resp = postQuery(t, ts.URL, body)
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || headerMode(t, got) != "" {
		t.Fatalf("status %d, header %q: want 200 without a mode", resp.StatusCode, bytes.SplitN(got, []byte("\n"), 2)[0])
	}
	if n := s.metrics.Spilled.Load(); n != 1 {
		t.Fatalf("Spilled = %d after an in-memory run, want 1", n)
	}
}

// TestFloorAboveBudgetRefusedAtOnce: a query whose floor exceeds the
// whole budget gets budget_unavailable at once — the test would wait out
// an hour of MaxWait otherwise — with no Retry-After, since no release
// can make room.
func TestFloorAboveBudgetRefusedAtOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Admission:       AdmitConfig{BudgetBytes: 64 << 10, MaxWait: time.Hour},
		QueryWorkers:    1,
		QueryCacheBytes: 64 << 10,
	})
	body := `{"dataset":"events","aggregates":[{"func":"count"}]}`
	if floor, _ := queryFloor(t, s, body); floor <= 64<<10 {
		t.Fatalf("floor %d fits the 64 KiB budget; the test needs one above it", floor)
	}
	resp := postQuery(t, ts.URL, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if h := resp.Header.Get("Retry-After"); h != "" {
		t.Fatalf("Retry-After %q on a floor no release can fit", h)
	}
	if code := errorCode(t, resp); code != ErrBudgetUnavailable.Code {
		t.Fatalf("code %q, want %s", code, ErrBudgetUnavailable.Code)
	}
	if n := s.metrics.RejectedBudget.Load(); n != 1 {
		t.Fatalf("RejectedBudget = %d, want 1", n)
	}
}

// TestFloorNeverFreeGetsRetryAfter: a floor that never frees up within
// MaxWait gets budget_unavailable with Retry-After; once the holder
// releases, the same query succeeds and the ledger drains to zero.
func TestFloorNeverFreeGetsRetryAfter(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const budget = 16 << 20
	s, ts := newTestServer(t, Config{
		Admission:       AdmitConfig{BudgetBytes: budget, MaxWait: 20 * time.Millisecond},
		QueryWorkers:    1,
		QueryCacheBytes: 64 << 10,
	})
	gov := s.ctrl.Ledger()
	if !gov.TryReserve(budget) {
		t.Fatal("holder could not take the budget")
	}
	body := `{"dataset":"events","no_cache":true,"aggregates":[{"func":"count"}]}`
	resp := postQuery(t, ts.URL, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if h := resp.Header.Get("Retry-After"); h != "1" {
		t.Fatalf("Retry-After %q, want 1", h)
	}
	if code := errorCode(t, resp); code != ErrBudgetUnavailable.Code {
		t.Fatalf("code %q, want %s", code, ErrBudgetUnavailable.Code)
	}
	if w := gov.Waiting(); w != 0 {
		t.Fatalf("%d waiters left on the ledger", w)
	}
	gov.Release(budget)
	resp = postQuery(t, ts.URL, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after the release, want 200", resp.StatusCode)
	}
	if r := gov.Reserved(); r != 0 {
		t.Fatalf("ledger = %d, want 0", r)
	}
}

// TestFloorCountsTheWorkersCoreBuilds: with QueryWorkers 0 the floor
// counts GOMAXPROCS workers, capped by the input's morsels, exactly as
// the engine does: the floor equals the first reservation a run makes,
// two workers' machinery over two morsels and one worker's over one.
func TestFloorCountsTheWorkersCoreBuilds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const cache = 64 << 10
	fixed, _ := core.Footprint(core.Config{CacheBytes: cache}, 3)
	body := `{"dataset":"events","aggregates":[{"func":"count"},{"func":"avg","col":1}]}`
	for _, c := range []struct{ rows, workers int }{
		{2 * sched.DefaultGrain, 2},
		{sched.DefaultGrain, 1},
	} {
		s, err := NewServer(Config{
			Registry:        testRegistry(t, c.rows),
			Admission:       AdmitConfig{BudgetBytes: 64 << 20},
			QueryWorkers:    0,
			QueryCacheBytes: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		floor, in := queryFloor(t, s, body)
		if want := int64(c.workers) * fixed; floor != want {
			t.Fatalf("%d rows: floor %d, want %d workers' machinery %d", c.rows, floor, c.workers, want)
		}
		if est := EstimateCost(c.rows, 2, 0, cache); est != floor {
			t.Fatalf("%d rows: EstimateCost %d, floor %d", c.rows, est, floor)
		}
		// The engine's fixed reservation is the first a run makes.
		cfg := s.runConfig()
		cfg.Governor = memgov.New(cfg.Governor.Budget())
		var first atomic.Int64
		cfg.Governor.SetHighWaterHook(1, func(hw int64) { first.CompareAndSwap(0, hw) })
		if _, err := core.AggregateContext(context.Background(), cfg, &in); err != nil {
			t.Fatal(err)
		}
		if got := first.Load(); got != floor {
			t.Fatalf("%d rows: engine reserved %d up front, floor %d", c.rows, got, floor)
		}
	}
}

// TestTracedQueriesShareTheLedger runs traced queries concurrently on one
// budgeted server, so every run installs the tracer's high-water hook on
// the same ledger while the others reserve on it: under -race the
// detector reports nothing, every answer is the library's, the hook
// samples reach the trace, and the ledger drains to zero.
func TestTracedQueriesShareTheLedger(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	t.Setenv("TMPDIR", t.TempDir())
	const rows = 1 << 16
	reg := testRegistry(t, rows)
	tracer := cacheagg.NewTracer(0)
	s, ts := newTestServer(t, Config{
		Registry: reg,
		Admission: AdmitConfig{
			BudgetBytes: 3 * EstimateCost(rows, 3, 2, 64<<10),
			MaxWait:     time.Minute,
		},
		QueryWorkers:    2,
		QueryCacheBytes: 64 << 10,
		Tracer:          tracer,
	})
	baseline := make([]*cacheagg.Result, len(drillShapes))
	for i := range drillShapes {
		baseline[i] = directResult(t, reg, i)
	}
	const clients, each = 8, 4
	errs := make(chan error, clients*each)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				shape := (c + i) % len(drillShapes)
				body := fmt.Sprintf(`{"dataset":"events","no_cache":true,"aggregates":%s}`, drillShapes[shape])
				resp, err := http.Post(ts.URL+"/v1/aggregate", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
				} else {
					errs <- checkBitIdentical(resp.Body, baseline[shape],
						strings.Contains(drillShapes[shape], "avg"))
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := s.metrics.Succeeded.Load(); n != clients*each {
		t.Fatalf("Succeeded = %d, want %d", n, clients*each)
	}
	if n := tracer.Snapshot().Counts["gov-high-water"]; n == 0 {
		t.Fatal("no ledger high-water sample reached the trace")
	}
	if r, run := s.ctrl.Ledger().Reserved(), s.metrics.Running.Load(); r != 0 || run != 0 {
		t.Fatalf("ledger %d with %d running, want 0 and 0", r, run)
	}
}

// TestTracedQueriesSampleGrainCrossings runs traced queries one after the
// other on a budgeted server whose ledger stays far below its budget. The
// tracer's high-water hook is installed once per ledger, so the samples
// are the grain crossings of the ledger's high water — a few, however
// many queries start — and not one more at every query's first
// reservation.
func TestTracedQueriesSampleGrainCrossings(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	const budget, queries = 64 << 20, 24
	tracer := cacheagg.NewTracer(0)
	s, ts := newTestServer(t, Config{
		Registry:        testRegistry(t, 1<<14),
		Admission:       AdmitConfig{BudgetBytes: budget},
		QueryWorkers:    1,
		QueryCacheBytes: 64 << 10,
		Tracer:          tracer,
	})
	for i := 0; i < queries; i++ {
		resp := postQuery(t, ts.URL, `{"dataset":"events","no_cache":true,"aggregates":[{"func":"sum","col":0}]}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	const grain = budget / 64 // the traced run's sampling grain
	hw := s.ctrl.Ledger().HighWater()
	if hw > queries*grain/2 {
		t.Fatalf("ledger high water %d: the queries crossed too many grains to tell", hw)
	}
	n := tracer.Snapshot().Counts["gov-high-water"]
	if n == 0 || n > hw/grain+1 {
		t.Fatalf("%d queries recorded %d high-water samples; the high water %d crosses %d grains of %d",
			queries, n, hw, hw/grain+1, grain)
	}
}
