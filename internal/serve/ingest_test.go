package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"cacheagg/internal/testutil"
)

// postIngest sends one ingest operation and returns the HTTP response.
func postIngest(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// ingestJSON decodes a single-object ingest response (begin/push/seal/status).
func ingestJSON(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	return out
}

func wantStatus(t *testing.T, resp *http.Response, status int) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d", resp.StatusCode, status)
	}
}

// TestIngestLifecycle drives one session through its whole life — begin,
// push, seal, status, rolling-window query, finish — over the wire, and
// checks the final result against a hand-computed oracle.
func TestIngestLifecycle(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{IngestDir: dir, IngestNoSync: true})

	resp := postIngest(t, ts.URL, `{"session":"s1","op":"begin","aggregates":[{"func":"count"},{"func":"sum","col":0}]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)

	// A duplicate begin is a typed conflict.
	resp = postIngest(t, ts.URL, `{"session":"s1","op":"begin","aggregates":[{"func":"count"}]}`)
	wantStatus(t, resp, http.StatusConflict)
	if code := errorCode(t, resp); code != "session_exists" {
		t.Fatalf("duplicate begin code = %q", code)
	}

	// Push two blocks: keys 1,2 with values summing per group.
	resp = postIngest(t, ts.URL, `{"session":"s1","op":"push","keys":[1,2,1],"columns":[[10,20,30]]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)
	resp = postIngest(t, ts.URL, `{"session":"s1","op":"seal"}`)
	wantStatus(t, resp, http.StatusOK)
	if out := ingestJSON(t, resp); out["epoch"].(float64) != 1 {
		t.Fatalf("seal epoch = %v, want 1", out["epoch"])
	}
	resp = postIngest(t, ts.URL, `{"session":"s1","op":"push","keys":[2,3],"columns":[[5,7]]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)

	// A whole-stream query sees sealed and buffered rows alike.
	resp = postIngest(t, ts.URL, `{"session":"s1","op":"query"}`)
	wantStatus(t, resp, http.StatusOK)
	hdr, rows := parseResponse(t, resp)
	if hdr["groups"].(float64) != 3 || hdr["session"].(string) != "s1" {
		t.Fatalf("query header = %v", hdr)
	}
	want := map[uint64][2]int64{1: {2, 40}, 2: {2, 25}, 3: {1, 7}}
	for _, r := range rows {
		w, ok := want[r.G]
		if !ok || r.A[0] != w[0] || r.A[1] != w[1] {
			t.Fatalf("group %d = %v, want %v", r.G, r.A, w)
		}
	}

	// A push is acknowledged once queued and folded later on the stream's
	// consumer; the query above is ordered behind it, so status now reads
	// the folded counts.
	resp = postIngest(t, ts.URL, `{"session":"s1","op":"status"}`)
	out := ingestJSON(t, resp)
	if out["rows_durable"].(float64) != 3 || out["rows_ingested"].(float64) != 5 {
		t.Fatalf("status = %v", out)
	}

	resp = postIngest(t, ts.URL, `{"session":"s1","op":"finish"}`)
	wantStatus(t, resp, http.StatusOK)
	if _, rows := parseResponse(t, resp); len(rows) != 3 {
		t.Fatalf("finish returned %d groups, want 3", len(rows))
	}

	// The finished session is gone from the live set…
	resp = postIngest(t, ts.URL, `{"session":"s1","op":"status"}`)
	wantStatus(t, resp, http.StatusNotFound)
	if code := errorCode(t, resp); code != "unknown_session" {
		t.Fatalf("post-finish status code = %q", code)
	}
	// …and its durable directory refuses a fresh begin.
	resp = postIngest(t, ts.URL, `{"session":"s1","op":"begin","aggregates":[{"func":"count"}]}`)
	wantStatus(t, resp, http.StatusConflict)
	if code := errorCode(t, resp); code != "session_exists" {
		t.Fatalf("begin-over-finished code = %q", code)
	}
}

// TestIngestValidation pins the typed 4xx taxonomy of the ingest decoder
// and the disabled-endpoint refusal.
func TestIngestValidation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, ts := newTestServer(t, Config{IngestDir: t.TempDir(), IngestNoSync: true})

	for _, tc := range []struct {
		name, body, code string
	}{
		{"bad-json", `{`, "bad_request"},
		{"unknown-op", `{"session":"x","op":"zap"}`, "bad_request"},
		{"bad-session-name", `{"session":"../escape","op":"begin","aggregates":[{"func":"count"}]}`, "bad_request"},
		{"empty-session", `{"op":"status"}`, "bad_request"},
		{"begin-no-aggs", `{"session":"x","op":"begin"}`, "bad_request"},
		{"begin-bad-func", `{"session":"x","op":"begin","aggregates":[{"func":"median"}]}`, "bad_request"},
		{"push-empty", `{"session":"x","op":"push"}`, "bad_request"},
		{"push-ragged", `{"session":"x","op":"push","keys":[1,2],"columns":[[1]]}`, "bad_request"},
		{"query-negative-window", `{"session":"x","op":"query","window":-1}`, "bad_request"},
		{"trailing-garbage", `{"session":"x","op":"status"}{}`, "bad_request"},
		{"unknown-session", `{"session":"nope","op":"push","keys":[1]}`, "unknown_session"},
	} {
		resp := postIngest(t, ts.URL, tc.body)
		if code := errorCode(t, resp); code != tc.code {
			t.Fatalf("%s: code = %q, want %q", tc.name, code, tc.code)
		}
	}

	// A server without an ingest dir refuses with a typed 404.
	_, off := newTestServer(t, Config{})
	resp := postIngest(t, off.URL, `{"session":"x","op":"status"}`)
	wantStatus(t, resp, http.StatusNotFound)
	if code := errorCode(t, resp); code != "ingest_disabled" {
		t.Fatalf("disabled code = %q", code)
	}
}

// TestIngestBackpressure forces the session budget down until a push is
// refused, and checks the refusal is a 429 with code "backpressure" and a
// Retry-After header — the wire form of the library's typed error.
func TestIngestBackpressure(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, ts := newTestServer(t, Config{
		IngestDir:          t.TempDir(),
		IngestBudgetBytes:  1 << 10,
		IngestEpochMaxRows: 1 << 30, // never seal on rows; pressure does it
		IngestNoSync:       true,
	})
	resp := postIngest(t, ts.URL, `{"session":"bp","op":"begin","aggregates":[{"func":"count"}]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)

	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprint(i)
	}
	block := fmt.Sprintf(`{"session":"bp","op":"push","keys":[%s]}`, strings.Join(keys, ","))
	pushed := false
	for i := 0; i < 1<<16; i++ {
		resp := postIngest(t, ts.URL, block)
		if resp.StatusCode == http.StatusOK {
			ingestJSON(t, resp)
			continue
		}
		wantStatus(t, resp, http.StatusTooManyRequests)
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After header")
		}
		if code := errorCode(t, resp); code != "backpressure" {
			t.Fatalf("refusal code = %q, want backpressure", code)
		}
		pushed = true
		break
	}
	if !pushed {
		t.Fatal("budget never pushed back")
	}
	if s.Metrics().IngestBackpressure.Load() == 0 {
		t.Fatal("backpressure metric not counted")
	}
	resp = postIngest(t, ts.URL, `{"session":"bp","op":"finish"}`)
	wantStatus(t, resp, http.StatusOK)
	parseResponse(t, resp)
}

// TestIngestDrainSealsSessions is the serve half of the graceful-shutdown
// durability story (the SIGTERM handler calls Drain): buffered, never-
// sealed blocks must be checkpointed by Drain — not dropped — so a
// successor server resumes the session with every acknowledged row
// durable.
func TestIngestDrainSealsSessions(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	reg := testRegistry(t, 1<<12)
	s, ts := newTestServer(t, Config{Registry: reg, IngestDir: dir, IngestNoSync: true})

	resp := postIngest(t, ts.URL, `{"session":"dur","op":"begin","aggregates":[{"func":"sum","col":0}]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)
	// These blocks stay buffered: nothing seals them before Drain.
	resp = postIngest(t, ts.URL, `{"session":"dur","op":"push","keys":[1,2],"columns":[[10,20]]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)
	resp = postIngest(t, ts.URL, `{"session":"dur","op":"push","keys":[1],"columns":[[5]]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Post-drain ingest is refused like any other work.
	resp = postIngest(t, ts.URL, `{"session":"dur","op":"status"}`)
	if code := errorCode(t, resp); code != "draining" {
		t.Fatalf("post-drain code = %q", code)
	}

	// A successor server resumes the session with the buffered rows
	// already durable.
	s2, err := NewServer(Config{Registry: reg, IngestDir: dir, IngestNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Metrics().IngestResumed.Load(); got != 1 {
		t.Fatalf("resumed %d sessions, want 1", got)
	}
	sess, err := s2.lookupSession("dur")
	if err != nil {
		t.Fatal(err)
	}
	if p := sess.stream.Progress(); p.RowsDurable != 3 {
		t.Fatalf("rows durable after drain+resume = %d, want 3", p.RowsDurable)
	}
	res, err := sess.stream.Snapshot(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	idx := res.Index()
	if res.Aggs[0][idx[1]] != 15 || res.Aggs[0][idx[2]] != 20 {
		t.Fatalf("resumed sums = %v", res.Aggs[0])
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIngestResumeAtBoot reboots the server around a live session and
// checks ingest continues where the checkpoint left off, with the
// adopted aggregates.
func TestIngestResumeAtBoot(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	reg := testRegistry(t, 1<<12)
	s1, ts1 := newTestServer(t, Config{Registry: reg, IngestDir: dir, IngestNoSync: true})
	resp := postIngest(t, ts1.URL, `{"session":"boot","op":"begin","aggregates":[{"func":"count"},{"func":"avg","col":0}]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)
	resp = postIngest(t, ts1.URL, `{"session":"boot","op":"push","keys":[7,7,8],"columns":[[1,2,9]]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, Config{Registry: reg, IngestDir: dir, IngestNoSync: true})
	resp = postIngest(t, ts2.URL, `{"session":"boot","op":"push","keys":[8],"columns":[[3]]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)
	resp = postIngest(t, ts2.URL, `{"session":"boot","op":"finish"}`)
	wantStatus(t, resp, http.StatusOK)
	_, rows := parseResponse(t, resp)
	want := map[uint64]struct {
		count int64
		avg   float64
	}{7: {2, 1.5}, 8: {2, 6}}
	if len(rows) != 2 {
		t.Fatalf("finish groups = %d, want 2", len(rows))
	}
	for _, r := range rows {
		w := want[r.G]
		if r.A[0] != w.count || r.F[1] != w.avg {
			t.Fatalf("group %d = counts %v floats %v, want %+v", r.G, r.A, r.F, w)
		}
	}
}

// TestIngestQueryWindow checks the rolling window scopes a query to the
// last N sealed epochs plus live rows.
func TestIngestQueryWindow(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, ts := newTestServer(t, Config{IngestDir: t.TempDir(), IngestNoSync: true})
	resp := postIngest(t, ts.URL, `{"session":"w","op":"begin","aggregates":[{"func":"sum","col":0}]}`)
	wantStatus(t, resp, http.StatusOK)
	ingestJSON(t, resp)
	for i := 1; i <= 3; i++ {
		resp = postIngest(t, ts.URL, fmt.Sprintf(`{"session":"w","op":"push","keys":[%d],"columns":[[100]]}`, i))
		wantStatus(t, resp, http.StatusOK)
		ingestJSON(t, resp)
		resp = postIngest(t, ts.URL, `{"session":"w","op":"seal"}`)
		wantStatus(t, resp, http.StatusOK)
		ingestJSON(t, resp)
	}
	resp = postIngest(t, ts.URL, `{"session":"w","op":"query","window":2}`)
	hdr, rows := parseResponse(t, resp)
	if hdr["epochs"].(float64) != 2 || len(rows) != 2 {
		t.Fatalf("window query: header %v, %d rows", hdr, len(rows))
	}
	resp = postIngest(t, ts.URL, `{"session":"w","op":"query"}`)
	if _, rows := parseResponse(t, resp); len(rows) != 3 {
		t.Fatalf("full query rows = %d, want 3", len(rows))
	}
	resp = postIngest(t, ts.URL, `{"session":"w","op":"finish"}`)
	wantStatus(t, resp, http.StatusOK)
	parseResponse(t, resp)
}
