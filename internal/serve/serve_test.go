package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cacheagg"
	"cacheagg/internal/testutil"
)

// testRegistry hosts a small deterministic dataset for the unit tests.
func testRegistry(t *testing.T, rows int) *Registry {
	t.Helper()
	d, err := ParseDatasetSpec(fmt.Sprintf("events=zipf:%d:4096:7", rows))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(d)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = testRegistry(t, 1<<15)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postQuery sends one query and returns the HTTP response.
func postQuery(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/aggregate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// parseResponse decodes a success response: header line, rows, trailer.
type wireRow struct {
	G uint64    `json:"g"`
	K []any     `json:"k"`
	A []int64   `json:"a"`
	F []float64 `json:"f"`
}

func parseResponse(t *testing.T, resp *http.Response) (header map[string]any, rows []wireRow) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		t.Fatalf("empty response body (status %d)", resp.StatusCode)
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		t.Fatalf("header line: %v (%q)", err, sc.Text())
	}
	sawTrailer := false
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"done"`)) {
			var trailer struct {
				Done bool `json:"done"`
				Rows int  `json:"rows"`
			}
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatalf("trailer: %v", err)
			}
			if trailer.Rows != len(rows) {
				t.Fatalf("trailer says %d rows, body has %d", trailer.Rows, len(rows))
			}
			sawTrailer = true
			break
		}
		var row wireRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row: %v (%q)", err, sc.Text())
		}
		rows = append(rows, row)
	}
	if !sawTrailer {
		t.Fatal("response has no trailer line")
	}
	return header, rows
}

// errorCode extracts the typed code of an error response.
func errorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error envelope: %v", err)
	}
	return env.Error.Code
}

func TestAggregateMatchesDirectCall(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := testRegistry(t, 1<<15)
	s, ts := newTestServer(t, Config{Registry: reg})
	defer func() {
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	resp := postQuery(t, ts.URL,
		`{"dataset":"events","aggregates":[{"func":"count"},{"func":"sum","col":0},{"func":"avg","col":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	header, rows := parseResponse(t, resp)
	if header["cache"] != "miss" {
		t.Fatalf("first query cache = %v, want miss", header["cache"])
	}

	d, _ := reg.Lookup("events")
	want, err := cacheagg.Aggregate(cacheagg.Input{
		GroupBy: d.Keys,
		Columns: d.Cols,
		Aggregates: []cacheagg.AggSpec{
			{Func: cacheagg.Count}, {Func: cacheagg.Sum, Col: 0}, {Func: cacheagg.Avg, Col: 1},
		},
	}, cacheagg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want.Len() {
		t.Fatalf("served %d groups, direct call has %d", len(rows), want.Len())
	}
	// Group order depends on worker scheduling, so compare per group key.
	wantRow := make(map[uint64]int, want.Len())
	for i, g := range want.Groups {
		wantRow[g] = i
	}
	for _, row := range rows {
		i, ok := wantRow[row.G]
		if !ok {
			t.Fatalf("group %d served twice or absent from the direct call", row.G)
		}
		delete(wantRow, row.G)
		for a := range want.Aggs {
			if row.A[a] != want.Aggs[a][i] {
				t.Fatalf("group %d agg %d: %d, want %d", row.G, a, row.A[a], want.Aggs[a][i])
			}
			if row.F[a] != want.Float(a, i) {
				t.Fatalf("group %d agg %d float: %v, want %v", row.G, a, row.F[a], want.Float(a, i))
			}
		}
	}
}

func TestInlineKeysAndDistinct(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postQuery(t, ts.URL, `{"keys":[5,7,5,9,7,5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	_, rows := parseResponse(t, resp)
	if len(rows) != 3 {
		t.Fatalf("%d distinct groups, want 3", len(rows))
	}
}

func TestTypedRequestRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Limits: Limits{MaxBodyBytes: 256, MaxInlineRows: 8, MaxAggregates: 2},
	})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed JSON", `{"dataset":`, 400, "bad_request"},
		{"unknown field", `{"dataset":"events","bogus":1}`, 400, "bad_request"},
		{"trailing garbage", `{"dataset":"events"} {"again":true}`, 400, "bad_request"},
		{"no input", `{}`, 400, "bad_request"},
		{"both inputs", `{"dataset":"events","keys":[1]}`, 400, "bad_request"},
		{"unknown dataset", `{"dataset":"nope"}`, 404, "unknown_dataset"},
		{"bad priority", `{"dataset":"events","priority":"urgent"}`, 400, "bad_request"},
		{"bad routine", `{"dataset":"events","routine":"hashed"}`, 400, "bad_request"},
		{"retired routine", `{"dataset":"events","routine":"global"}`, 400, "bad_request"},
		{"bad func", `{"dataset":"events","aggregates":[{"func":"median"}]}`, 400, "bad_request"},
		{"negative deadline", `{"dataset":"events","deadline_ms":-1}`, 400, "bad_request"},
		{"col out of range", `{"dataset":"events","aggregates":[{"func":"sum","col":9}]}`, 400, "bad_request"},
		{"too many rows", `{"keys":[1,2,3,4,5,6,7,8,9]}`, 400, "bad_request"},
		{"ragged column", `{"keys":[1,2],"columns":[[1]]}`, 400, "bad_request"},
		{"oversized body", `{"keys":[` + strings.Repeat("1,", 200) + `1]}`, 413, "request_too_large"},
		{"too many aggregates", `{"dataset":"events","aggregates":[{"func":"count"},{"func":"count"},{"func":"count"}]}`, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postQuery(t, ts.URL, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if code := errorCode(t, resp); code != tc.code {
				t.Fatalf("code %q, want %q", code, tc.code)
			}
		})
	}
}

// TestRoutineOverride: every routine override returns identical rows (the
// routines are bit-identical by contract), and a forced routine gets its
// own cache identity — pinning a routine to measure it must actually run
// it, not be served another routine's cached result.
func TestRoutineOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{ResultCacheBytes: 1 << 20})
	base := `{"dataset":"events","aggregates":[{"func":"sum","col":0}]}`
	h, autoRows := parseResponse(t, postQuery(t, ts.URL, base))
	if h["cache"] != "miss" {
		t.Fatalf("first auto query: cache = %v", h["cache"])
	}
	// Key-indexed identity: the routines promise the same group → aggregate
	// mapping, not the same intra-bucket emission order.
	want := map[uint64]int64{}
	for _, r := range autoRows {
		want[r.G] = r.A[0]
	}
	for _, rt := range []string{"partitioned", "sort-spill"} {
		q := `{"dataset":"events","routine":"` + rt + `","aggregates":[{"func":"sum","col":0}]}`
		h, rows := parseResponse(t, postQuery(t, ts.URL, q))
		if h["cache"] != "miss" {
			t.Fatalf("forced %s: cache = %v, want miss (own cache identity)", rt, h["cache"])
		}
		if len(rows) != len(want) {
			t.Fatalf("forced %s: %d rows, auto had %d", rt, len(rows), len(want))
		}
		for _, r := range rows {
			sum, ok := want[r.G]
			if !ok || r.A[0] != sum {
				t.Fatalf("forced %s: group %d = %d differs from auto result", rt, r.G, r.A[0])
			}
		}
	}
	// An explicit "auto" is the default identity: it must hit the cache.
	q := `{"dataset":"events","routine":"auto","aggregates":[{"func":"sum","col":0}]}`
	if h, _ := parseResponse(t, postQuery(t, ts.URL, q)); h["cache"] != "hit" {
		t.Fatalf("explicit auto: cache = %v, want hit", h["cache"])
	}
}

func TestResultCacheHitAndBypass(t *testing.T) {
	s, ts := newTestServer(t, Config{ResultCacheBytes: 1 << 20})
	q := `{"dataset":"events","aggregates":[{"func":"count"}]}`

	resp := postQuery(t, ts.URL, q)
	h1, rows1 := parseResponse(t, resp)
	if h1["cache"] != "miss" {
		t.Fatalf("first: cache = %v", h1["cache"])
	}
	resp = postQuery(t, ts.URL, q)
	h2, rows2 := parseResponse(t, resp)
	if h2["cache"] != "hit" {
		t.Fatalf("second: cache = %v, want hit", h2["cache"])
	}
	if len(rows1) != len(rows2) {
		t.Fatalf("cached response has %d rows, fresh had %d", len(rows2), len(rows1))
	}
	for i := range rows1 {
		if rows1[i].G != rows2[i].G || rows1[i].A[0] != rows2[i].A[0] {
			t.Fatalf("row %d differs between fresh and cached", i)
		}
	}
	if hits := s.Metrics().CacheHits.Load(); hits != 1 {
		t.Fatalf("CacheHits = %d, want 1", hits)
	}

	// no_cache bypasses both read and fill.
	resp = postQuery(t, ts.URL, `{"dataset":"events","aggregates":[{"func":"count"}],"no_cache":true}`)
	h3, _ := parseResponse(t, resp)
	if h3["cache"] != "miss" {
		t.Fatalf("no_cache: cache = %v, want miss", h3["cache"])
	}
}

func TestDeadlineExceededTyped(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, ts := newTestServer(t, Config{
		Registry: testRegistry(t, 1<<19),
	})
	// A microsecond-scale deadline cannot survive a 512Ki-row aggregation.
	resp := postQuery(t, ts.URL, `{"dataset":"events","deadline_ms":1,"no_cache":true,"aggregates":[{"func":"sum","col":0}]}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != "deadline_exceeded" {
		t.Fatalf("code %q, want deadline_exceeded", code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Tracer: cacheagg.NewTracer(0)})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status   string   `json:"status"`
		Datasets []string `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "serving" || len(health.Datasets) != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	postQuery(t, ts.URL, `{"dataset":"events"}`).Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Serve MetricsSnapshot `json:"serve"`
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.Serve.Admitted != 1 || metrics.Serve.Succeeded != 1 {
		t.Fatalf("metrics after one query: %+v", metrics.Serve)
	}
	if metrics.Serve.LedgerReserved != 0 {
		t.Fatalf("ledger not drained: %d", metrics.Serve.LedgerReserved)
	}
	if len(metrics.Trace) == 0 {
		t.Fatal("metrics response missing tracer snapshot")
	}

	// Draining flips healthz to 503.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp := postQuery(t, ts.URL, `{"dataset":"events"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != "draining" {
		t.Fatalf("code %q, want draining", code)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestPanicContainment(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, ts := newTestServer(t, Config{})
	testHookExecute = func() { panic("poisoned query") }
	defer func() { testHookExecute = nil }()
	resp := postQuery(t, ts.URL, `{"dataset":"events"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != "internal_panic" {
		t.Fatalf("code %q, want internal_panic", code)
	}
	if got := s.Ledger().Reserved(); got != 0 {
		t.Fatalf("panicked query leaked %d reserved bytes", got)
	}

	// The server survives: the next (healthy) query succeeds.
	testHookExecute = nil
	resp = postQuery(t, ts.URL, `{"dataset":"events"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET status %d, want 400", resp.StatusCode)
	}
}
