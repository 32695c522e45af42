// Command aggload is the load harness for aggserve: it drives many
// concurrent clients against a running server with a mixed profile of
// datasets, aggregate shapes, priorities and deadlines, and then audits
// the outcome taxonomy.
//
// Every response must be one of the two documented shapes — a well-formed
// JSONL result whose trailer row count matches the rows received, or a
// typed error envelope with a known code. Anything else (an unknown code,
// a malformed body, an internal/internal_panic response, a transport
// error) is a harness failure and a nonzero exit. Overload outcomes
// (admission_queue_full, budget_unavailable, shed, deadline_exceeded) are
// expected under pressure and merely counted.
//
// Examples:
//
//	aggload -url http://localhost:8080 -clients 64 -requests 20
//	aggload -url http://localhost:8080 -clients 256 -requests 50 \
//	  -tight-deadlines 0.2 -max-p99 2s
//	aggload -url http://localhost:8080 -stream 8 -stream-blocks 64
//
// With -stream N the harness additionally drives N concurrent streaming
// ingest sessions against /v1/ingest: each producer begins a session,
// pushes blocks (retrying typed 429 backpressure, which is counted, not
// failed), interleaves rolling-window queries and explicit seals, then
// finishes and checks the final aggregates against its own oracle of the
// rows it pushed. A wrong final aggregate is a harness failure, exactly
// like an untyped error.
//
// Exit codes: 0 = every outcome typed and bounds held, 1 = taxonomy or
// bound violation, 2 = usage error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run())
}

// expectedCodes are the typed outcomes a loaded-but-healthy server may
// legitimately produce. internal and internal_panic are deliberately
// absent: under any load, those are bugs.
var expectedCodes = map[string]bool{
	"admission_queue_full": true,
	"budget_unavailable":   true,
	"shed":                 true,
	"deadline_exceeded":    true,
	"draining":             true,
	"cancelled":            true,
	"backpressure":         true,
}

type outcome struct {
	kind    string // "ok", an error code, "transport", "malformed"
	latency time.Duration
	detail  string
}

func run() int {
	var (
		url      = flag.String("url", "", "base URL of the aggserve instance (required)")
		clients  = flag.Int("clients", 64, "concurrent client goroutines")
		requests = flag.Int("requests", 20, "requests per client")
		seed     = flag.Int64("seed", 1, "profile seed")
		tight    = flag.Float64("tight-deadlines", 0.1, "fraction of requests with a near-unmeetable deadline")
		noCache  = flag.Float64("no-cache", 0.2, "fraction of requests bypassing the result cache")
		maxP99   = flag.Duration("max-p99", 0, "fail if successful-request p99 exceeds this (0 = no bound)")
		minOK    = flag.Int("min-ok", 1, "fail unless at least this many requests succeed")

		stream       = flag.Int("stream", 0, "concurrent streaming ingest sessions (0 disables)")
		streamBlocks = flag.Int("stream-blocks", 32, "blocks pushed per streaming session")
		streamRows   = flag.Int("stream-rows", 256, "rows per pushed block")
	)
	flag.Parse()
	if *url == "" {
		fmt.Fprintln(os.Stderr, "aggload: -url is required")
		flag.Usage()
		return 2
	}
	if *clients < 1 || *requests < 1 {
		fmt.Fprintln(os.Stderr, "aggload: -clients and -requests must be positive")
		return 2
	}

	datasets, err := discoverDatasets(*url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aggload:", err)
		return 1
	}
	fmt.Printf("aggload: %d clients x %d requests against %s (datasets %v)\n",
		*clients, *requests, *url, datasets)

	httpc := &http.Client{Timeout: 2 * time.Minute}
	outcomes := make([]outcome, *clients**requests)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			for i := 0; i < *requests; i++ {
				req := buildRequest(rng, datasets, *tight, *noCache)
				outcomes[c**requests+i] = doRequest(httpc, *url, req)
			}
		}(c)
	}
	wg.Wait()

	if *stream > 0 {
		outcomes = append(outcomes, runStream(httpc, *url, *stream, *streamBlocks, *streamRows, *seed)...)
	}
	elapsed := time.Since(start)

	return audit(outcomes, elapsed, *maxP99, *minOK)
}

// runStream drives the streaming ingest sessions. Every HTTP exchange
// becomes one outcome; a finish whose aggregates disagree with the
// producer's oracle is reported as malformed.
func runStream(httpc *http.Client, url string, sessions, blocks, rowsPerBlock int, seed int64) []outcome {
	fmt.Printf("aggload: %d streaming sessions x %d blocks x %d rows\n",
		sessions, blocks, rowsPerBlock)
	var mu sync.Mutex
	var out []outcome
	collect := func(o outcome) {
		mu.Lock()
		out = append(out, o)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < sessions; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			streamSession(httpc, url, fmt.Sprintf("load-%d-%d", seed, c),
				rand.New(rand.NewSource(seed+int64(c))), blocks, rowsPerBlock, collect)
		}(c)
	}
	wg.Wait()
	return out
}

// streamSession runs one producer: begin, push (with backpressure
// retries), interleaved window queries and seals, finish, oracle check.
func streamSession(httpc *http.Client, url, name string, rng *rand.Rand, blocks, rowsPerBlock int, collect func(outcome)) {
	op := func(body string) (string, outcome) {
		start := time.Now()
		resp, err := httpc.Post(url+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			return "", outcome{kind: "transport", detail: err.Error()}
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/jsonl") {
				var buf strings.Builder
				if _, err := copyBody(&buf, resp); err != nil {
					return "", outcome{kind: "malformed", detail: err.Error()}
				}
				return buf.String(), outcome{kind: "ok", latency: time.Since(start)}
			}
			var ack map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				return "", outcome{kind: "malformed", detail: "undecodable ingest ack: " + err.Error()}
			}
			return "", outcome{kind: "ok", latency: time.Since(start)}
		}
		var env struct {
			Error struct {
				Code         string `json:"code"`
				Detail       string `json:"detail"`
				RetryAfterMS int64  `json:"retry_after_ms"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code == "" {
			return "", outcome{kind: "malformed",
				detail: fmt.Sprintf("status %d with undecodable error envelope", resp.StatusCode)}
		}
		return "", outcome{kind: env.Error.Code, latency: time.Since(start), detail: env.Error.Detail}
	}

	_, o := op(fmt.Sprintf(
		`{"session":%q,"op":"begin","aggregates":[{"func":"count"},{"func":"sum","col":0}]}`, name))
	collect(o)
	if o.kind != "ok" {
		return // a typed begin failure (draining, session_exists) ends the session
	}

	oracle := map[uint64][2]int64{}
	keys := make([]uint64, rowsPerBlock)
	col := make([]int64, rowsPerBlock)
	for b := 0; b < blocks; b++ {
		for i := range keys {
			keys[i] = uint64(rng.Intn(512))
			col[i] = int64(rng.Intn(2001) - 1000)
		}
		kb, _ := json.Marshal(keys)
		cb, _ := json.Marshal(col)
		body := fmt.Sprintf(`{"session":%q,"op":"push","keys":%s,"columns":[%s]}`, name, kb, cb)
		acked := false
		for attempt := 0; attempt < 1000; attempt++ {
			_, o := op(body)
			collect(o)
			if o.kind == "ok" {
				acked = true
				break
			}
			if o.kind != "backpressure" {
				return // any other failure is already recorded; stop pushing
			}
			time.Sleep(time.Millisecond)
		}
		if !acked {
			collect(outcome{kind: "malformed", detail: "push starved by backpressure for 1000 attempts"})
			return
		}
		// Only acknowledged blocks enter the oracle.
		for i := range keys {
			e := oracle[keys[i]]
			e[0]++
			e[1] += col[i]
			oracle[keys[i]] = e
		}
		switch rng.Intn(8) {
		case 0:
			_, o := op(fmt.Sprintf(`{"session":%q,"op":"seal"}`, name))
			collect(o)
		case 1:
			jsonl, o := op(fmt.Sprintf(`{"session":%q,"op":"query","window":%d}`, name, rng.Intn(4)))
			if o.kind == "ok" {
				if err := validateStreamBody(jsonl); err != nil {
					o = outcome{kind: "malformed", detail: "query: " + err.Error()}
				}
			}
			collect(o)
		}
	}

	jsonl, o := op(fmt.Sprintf(`{"session":%q,"op":"finish"}`, name))
	if o.kind == "ok" {
		if err := checkFinish(jsonl, oracle); err != nil {
			o = outcome{kind: "malformed", detail: "finish: " + err.Error()}
		}
	}
	collect(o)
}

// copyBody drains a response body into w.
func copyBody(w *strings.Builder, resp *http.Response) (int64, error) {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var n int64
	for sc.Scan() {
		w.Write(sc.Bytes())
		w.WriteByte('\n')
		n += int64(len(sc.Bytes())) + 1
	}
	return n, sc.Err()
}

// streamRow is one JSONL line of an ingest query/finish body.
type streamRow struct {
	G    *uint64 `json:"g"`
	A    []int64 `json:"a"`
	Done bool    `json:"done"`
	Rows int     `json:"rows"`
}

// parseStreamBody validates the header/rows/trailer shape and returns the
// rows.
func parseStreamBody(body string) ([]streamRow, error) {
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("body has %d lines, want header + trailer", len(lines))
	}
	var hdr struct {
		Groups *int `json:"groups"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Groups == nil {
		return nil, fmt.Errorf("bad header %q", lines[0])
	}
	var rows []streamRow
	done := false
	for _, line := range lines[1:] {
		if done {
			return nil, fmt.Errorf("data after the done trailer")
		}
		var row streamRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			return nil, fmt.Errorf("bad line %q", line)
		}
		if row.Done {
			done = true
			if row.Rows != len(rows) {
				return nil, fmt.Errorf("trailer says %d rows, saw %d", row.Rows, len(rows))
			}
			continue
		}
		if row.G == nil {
			return nil, fmt.Errorf("row without group key: %q", line)
		}
		rows = append(rows, row)
	}
	if !done {
		return nil, fmt.Errorf("truncated body: no done trailer after %d rows", len(rows))
	}
	if len(rows) != *hdr.Groups {
		return nil, fmt.Errorf("header says %d groups, saw %d rows", *hdr.Groups, len(rows))
	}
	return rows, nil
}

func validateStreamBody(body string) error {
	_, err := parseStreamBody(body)
	return err
}

// checkFinish compares a finish body against the producer's oracle of
// acknowledged rows: same groups, bit-identical count and sum.
func checkFinish(body string, oracle map[uint64][2]int64) error {
	rows, err := parseStreamBody(body)
	if err != nil {
		return err
	}
	if len(rows) != len(oracle) {
		return fmt.Errorf("result has %d groups, oracle %d", len(rows), len(oracle))
	}
	for _, r := range rows {
		want, ok := oracle[*r.G]
		if !ok {
			return fmt.Errorf("group %d not in oracle", *r.G)
		}
		if len(r.A) != 2 || r.A[0] != want[0] || r.A[1] != want[1] {
			return fmt.Errorf("group %d = %v, oracle wants %v", *r.G, r.A, want)
		}
	}
	return nil
}

// discoverDatasets asks /healthz which datasets the server hosts.
func discoverDatasets(url string) ([]string, error) {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status   string   `json:"status"`
		Datasets []string `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	if h.Status != "serving" {
		return nil, fmt.Errorf("server is %q, not serving", h.Status)
	}
	if len(h.Datasets) == 0 {
		return nil, fmt.Errorf("server hosts no datasets")
	}
	sort.Strings(h.Datasets)
	return h.Datasets, nil
}

// buildRequest draws one request from the mixed profile: random dataset,
// 1-3 aggregates over the two derived columns, a priority mix of roughly
// 20/60/20, and deadlines that are absent, generous, or (for the tight
// fraction) nearly unmeetable.
func buildRequest(rng *rand.Rand, datasets []string, tight, noCache float64) map[string]any {
	req := map[string]any{
		"dataset": datasets[rng.Intn(len(datasets))],
	}
	funcs := []string{"count", "sum", "min", "max", "avg"}
	nagg := 1 + rng.Intn(3)
	aggs := make([]map[string]any, nagg)
	for i := range aggs {
		f := funcs[rng.Intn(len(funcs))]
		a := map[string]any{"func": f}
		if f != "count" {
			a["col"] = rng.Intn(2)
		}
		aggs[i] = a
	}
	req["aggregates"] = aggs
	switch p := rng.Float64(); {
	case p < 0.2:
		req["priority"] = "low"
	case p > 0.8:
		req["priority"] = "high"
	}
	switch d := rng.Float64(); {
	case d < tight:
		req["deadline_ms"] = 1 + rng.Intn(3)
	case d < tight+0.5:
		req["deadline_ms"] = 10000 + rng.Intn(10000)
	}
	if rng.Float64() < noCache {
		req["no_cache"] = true
	}
	return req
}

// doRequest executes one request and classifies the response.
func doRequest(httpc *http.Client, url string, req map[string]any) outcome {
	body, _ := json.Marshal(req)
	start := time.Now()
	resp, err := httpc.Post(url+"/v1/aggregate", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{kind: "transport", detail: err.Error()}
	}
	defer resp.Body.Close()
	lat := func() time.Duration { return time.Since(start) }

	if resp.StatusCode == http.StatusOK {
		if err := validateResult(resp); err != nil {
			return outcome{kind: "malformed", detail: err.Error()}
		}
		return outcome{kind: "ok", latency: lat()}
	}
	var env struct {
		Error struct {
			Code         string `json:"code"`
			Detail       string `json:"detail"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code == "" {
		return outcome{kind: "malformed",
			detail: fmt.Sprintf("status %d with undecodable error envelope", resp.StatusCode)}
	}
	return outcome{kind: env.Error.Code, latency: lat(), detail: env.Error.Detail}
}

// validateResult checks the JSONL success shape: a header line with a
// group count and, when the run spilled, mode "spill" (no other mode
// exists), that many rows, and a done trailer agreeing on the count.
func validateResult(resp *http.Response) error {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return fmt.Errorf("empty body")
	}
	var hdr struct {
		Groups *int    `json:"groups"`
		Mode   *string `json:"mode"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Groups == nil {
		return fmt.Errorf("bad header %q", sc.Text())
	}
	if hdr.Mode != nil && *hdr.Mode != "spill" {
		return fmt.Errorf("header mode %q, want spill or none", *hdr.Mode)
	}
	rows, done := 0, false
	for sc.Scan() {
		if done {
			return fmt.Errorf("data after the done trailer")
		}
		var line struct {
			G    *uint64 `json:"g"`
			Done bool    `json:"done"`
			Rows int     `json:"rows"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("bad line %q", sc.Text())
		}
		if line.Done {
			done = true
			if line.Rows != rows {
				return fmt.Errorf("trailer says %d rows, saw %d", line.Rows, rows)
			}
			continue
		}
		if line.G == nil {
			return fmt.Errorf("row without group key: %q", sc.Text())
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("truncated body: no done trailer after %d rows", rows)
	}
	if rows != *hdr.Groups {
		return fmt.Errorf("header says %d groups, saw %d rows", *hdr.Groups, rows)
	}
	return nil
}

// audit prints the outcome census and decides the exit code.
func audit(outcomes []outcome, elapsed time.Duration, maxP99 time.Duration, minOK int) int {
	counts := map[string]int{}
	var okLats []time.Duration
	var failures []string
	for _, o := range outcomes {
		counts[o.kind]++
		switch {
		case o.kind == "ok":
			okLats = append(okLats, o.latency)
		case expectedCodes[o.kind]:
			// typed overload outcome: fine
		default:
			if len(failures) < 5 {
				failures = append(failures, fmt.Sprintf("%s: %s", o.kind, o.detail))
			}
		}
	}

	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("aggload: %d requests in %v\n", len(outcomes), elapsed.Round(time.Millisecond))
	for _, k := range kinds {
		fmt.Printf("  %-22s %d\n", k, counts[k])
	}

	code := 0
	if p99 := quantile(okLats, 0.99); len(okLats) > 0 {
		fmt.Printf("  p50 %v  p99 %v\n",
			quantile(okLats, 0.50).Round(time.Millisecond), p99.Round(time.Millisecond))
		if maxP99 > 0 && p99 > maxP99 {
			fmt.Printf("aggload: FAIL p99 %v exceeds bound %v\n", p99, maxP99)
			code = 1
		}
	}
	if counts["ok"] < minOK {
		fmt.Printf("aggload: FAIL only %d successes, need %d\n", counts["ok"], minOK)
		code = 1
	}
	if len(failures) > 0 {
		fmt.Printf("aggload: FAIL untyped or malformed outcomes:\n  %s\n",
			strings.Join(failures, "\n  "))
		code = 1
	}
	if code == 0 {
		fmt.Println("aggload: PASS — every outcome typed, bounds held")
	}
	return code
}

func quantile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	i := int(q * float64(len(lats)-1))
	return lats[i]
}
