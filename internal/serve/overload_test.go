package serve

// The overload drill from the service's acceptance bar: a global budget
// sized for roughly four concurrent queries takes a 64-client burst.
// Every client must see exactly one of the documented outcomes — a
// successful result that is bit-identical to a direct library call, or a
// typed overload rejection — with zero panics, zero internal errors, a
// ledger drained to zero, and no leaked goroutines.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cacheagg"
	"cacheagg/internal/testutil"
)

// drillShapes are the distinct query shapes the burst mixes (distinct so
// the result cache, when enabled, cannot collapse the burst into one
// execution per shape colliding — the drill disables it anyway).
var drillShapes = []string{
	`[{"func":"count"}]`,
	`[{"func":"sum","col":0}]`,
	`[{"func":"min","col":1}]`,
	`[{"func":"max","col":0}]`,
	`[{"func":"avg","col":1}]`,
	`[{"func":"count"},{"func":"sum","col":1}]`,
	`[{"func":"sum","col":0},{"func":"avg","col":0}]`,
	`[{"func":"min","col":0},{"func":"max","col":1},{"func":"count"}]`,
}

// drillSpecs mirrors drillShapes as library AggSpec lists.
var drillSpecs = [][]cacheagg.AggSpec{
	{{Func: cacheagg.Count}},
	{{Func: cacheagg.Sum, Col: 0}},
	{{Func: cacheagg.Min, Col: 1}},
	{{Func: cacheagg.Max, Col: 0}},
	{{Func: cacheagg.Avg, Col: 1}},
	{{Func: cacheagg.Count}, {Func: cacheagg.Sum, Col: 1}},
	{{Func: cacheagg.Sum, Col: 0}, {Func: cacheagg.Avg, Col: 0}},
	{{Func: cacheagg.Min, Col: 0}, {Func: cacheagg.Max, Col: 1}, {Func: cacheagg.Count}},
}

func TestOverloadDrill(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const (
		rows    = 1 << 16
		clients = 64
	)
	reg := testRegistry(t, rows)

	// Size the global budget to fit the floors of ~4 concurrent queries
	// of the widest shape.
	est := EstimateCost(rows, 3, 1, 64<<10)
	s, ts := newTestServer(t, Config{
		Registry: reg,
		Admission: AdmitConfig{
			BudgetBytes: 4 * est,
			MaxQueue:    8,
			MaxWait:     800 * time.Millisecond,
		},
		QueryWorkers:    1,
		QueryCacheBytes: 64 << 10,
		// No result cache: every admitted query must truly execute under
		// its grant, so the burst exercises admission, not memoization.
		ResultCacheBytes: 0,
	})

	// Direct library results for each shape: the bit-identical baseline.
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

	type verdict struct {
		client int
		err    error  // harness failure (untyped outcome, mismatch)
		code   string // "" for success, else the typed rejection code
	}
	verdicts := make(chan verdict, clients)
	var wg sync.WaitGroup
	priorities := []string{"low", "normal", "high"}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			shape := c % len(drillShapes)
			body := fmt.Sprintf(`{"dataset":"events","priority":%q,"aggregates":%s}`,
				priorities[c%3], drillShapes[shape])
			resp, err := http.Post(ts.URL+"/v1/aggregate", "application/json",
				strings.NewReader(body))
			if err != nil {
				verdicts <- verdict{client: c, err: fmt.Errorf("transport: %w", err)}
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				wantFloats := strings.Contains(drillShapes[shape], "avg")
				verdicts <- verdict{client: c, err: checkBitIdentical(resp.Body, baseline[shape], wantFloats)}
				return
			}
			code, err := decodeErrorCode(resp.Body)
			if err != nil {
				verdicts <- verdict{client: c, err: err}
				return
			}
			switch code {
			case ErrAdmissionQueueFull.Code, ErrBudgetUnavailable.Code, ErrShed.Code:
				verdicts <- verdict{client: c, code: code}
			default:
				verdicts <- verdict{client: c,
					err: fmt.Errorf("unexpected outcome %q (status %d)", code, resp.StatusCode)}
			}
		}(c)
	}
	wg.Wait()
	close(verdicts)

	counts := map[string]int{}
	for v := range verdicts {
		if v.err != nil {
			t.Errorf("client %d: %v", v.client, v.err)
			continue
		}
		if v.code == "" {
			counts["ok"]++
		} else {
			counts[v.code]++
		}
	}
	t.Logf("drill outcomes: %v", counts)
	if counts["ok"] == 0 {
		t.Error("no client succeeded — the service starved its entire burst")
	}

	// The service must come out clean: nothing reserved, nothing queued,
	// nothing contained, and a drain that completes immediately.
	if err := s.Drain(contextWithTimeout(t, 10*time.Second)); err != nil {
		t.Fatalf("drain after burst: %v", err)
	}
	if got := s.ctrl.Ledger().Reserved(); got != 0 {
		t.Errorf("ledger reserved = %d after drain, want 0", got)
	}
	if got := s.ctrl.QueueLen(); got != 0 {
		t.Errorf("queue length = %d after drain, want 0", got)
	}
	if got := s.metrics.Panics.Load(); got != 0 {
		t.Errorf("panics = %d, want 0", got)
	}
	if got := s.metrics.InternalErrors.Load(); got != 0 {
		t.Errorf("internal errors = %d, want 0", got)
	}
}

// checkBitIdentical parses a success body and compares it to the direct
// library result: the same group set, and for every group the exact same
// aggregate bits (integer and, for AVG shapes, float). Row order is
// compared keyed by group — the operator's documented identity between
// in-memory (bucket-order) and spilled (total hash order) runs, which a
// service response that spilled inherits. Float columns ride along only
// for shapes containing an AVG (wantFloats).
func checkBitIdentical(body io.Reader, want *cacheagg.Result, wantFloats bool) error {
	idx := want.Index()
	seen := make(map[uint64]bool, len(idx))
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		return fmt.Errorf("empty success body")
	}
	var hdr struct {
		Groups int `json:"groups"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	if hdr.Groups != want.Len() {
		return fmt.Errorf("header claims %d groups, direct call has %d", hdr.Groups, want.Len())
	}
	i := 0
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"done"`)) {
			var trailer struct {
				Rows int `json:"rows"`
			}
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				return fmt.Errorf("trailer: %w", err)
			}
			if trailer.Rows != i {
				return fmt.Errorf("trailer says %d rows, saw %d", trailer.Rows, i)
			}
			if i != want.Len() {
				return fmt.Errorf("served %d rows, direct call has %d", i, want.Len())
			}
			return nil
		}
		var row wireRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if i >= want.Len() {
			return fmt.Errorf("more rows than the direct call's %d", want.Len())
		}
		w, ok := idx[row.G]
		if !ok {
			return fmt.Errorf("row %d: group %d not in the direct result", i, row.G)
		}
		if seen[row.G] {
			return fmt.Errorf("row %d: duplicate group %d", i, row.G)
		}
		seen[row.G] = true
		if len(row.A) != len(want.Aggs) {
			return fmt.Errorf("row %d: %d agg values, want %d", i, len(row.A), len(want.Aggs))
		}
		if wantFloats && len(row.F) != len(want.Aggs) {
			return fmt.Errorf("row %d: %d float values, want %d", i, len(row.F), len(want.Aggs))
		}
		for a := range want.Aggs {
			if row.A[a] != want.Aggs[a][w] {
				return fmt.Errorf("group %d agg %d: %d, want %d", row.G, a, row.A[a], want.Aggs[a][w])
			}
			if wantFloats && row.F[a] != want.Float(a, w) {
				return fmt.Errorf("group %d agg %d float: %v, want %v", row.G, a, row.F[a], want.Float(a, w))
			}
		}
		i++
	}
	return fmt.Errorf("no trailer after %d rows", i)
}

// decodeErrorCode extracts the typed code from an error envelope.
func decodeErrorCode(body io.Reader) (string, error) {
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		return "", fmt.Errorf("undecodable error envelope: %w", err)
	}
	if env.Error.Code == "" {
		return "", fmt.Errorf("error envelope without a code")
	}
	return env.Error.Code, nil
}
