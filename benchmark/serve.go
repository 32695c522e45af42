package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cacheagg"
	"cacheagg/internal/serve"
	"cacheagg/internal/xrand"
)

// serveDatasets are the hosted datasets as name, kind, rows, key domain.
// The generator seed of each is derived from the run's seed.
var serveDatasets = []struct {
	name, kind string
	rows, keys int
}{
	{"events", "zipf", 262144, 16384},
	{"clicks", "uniform", 131072, 4096},
	{"urls", "strings", 131072, 8192},
}

// serveShapes are the aggregate lists requests choose from.
var serveShapes = [][]cacheagg.AggSpec{
	{{Func: cacheagg.Count}},
	stdSpecs,
	{{Func: cacheagg.Sum, Col: 0}, {Func: cacheagg.Max, Col: 1}},
	{{Func: cacheagg.Count}, {Func: cacheagg.Avg, Col: 0}},
}

const (
	// serveRepeatable is how many (dataset, shape) pairs the cacheable
	// quarter of the requests is drawn from: each is a miss once and a
	// hit from then on.
	serveRepeatable = 8
	serveCacheBytes = 64 << 20
	// serveBlocks is the length of the request script in blocks of 16
	// requests (12 no_cache, 4 cacheable); clients walk the script in
	// order and wrap around.
	serveBlocks = 64
)

// serveQuery is one (dataset, shape) pair with its expected answer.
type serveQuery struct {
	ds    *serve.Dataset
	shape int
	orc   *oracle[uint64] // nil once firstOp has checked the pair
	want  checksums
	body  [2][]byte // request body, [0] cacheable, [1] no_cache
}

// scriptEntry is one scripted request.
type scriptEntry struct {
	query   int
	noCache bool
}

// serveInst is serve_mixed: the HTTP service on a loopback listener.
type serveInst struct {
	e       *env
	srv     *serve.Server
	httpSrv *http.Server
	ln      net.Listener
	served  chan struct{}
	url     string
	queries []*serveQuery
	script  []scriptEntry
	// urlOf maps a dense id of the urls dataset to its string key.
	urlOf   map[uint64]string
	clients []*http.Client
	// next is the script position of the next request; it runs on across
	// the slices of a timed region.
	next atomic.Int64
}

func funcName(f cacheagg.Func) string { return strings.ToLower(f.String()) }

func requestBody(ds string, specs []cacheagg.AggSpec, noCache bool) []byte {
	req := serve.Request{Dataset: ds, NoCache: noCache}
	for _, sp := range specs {
		req.Aggregates = append(req.Aggregates, serve.AggRef{Func: funcName(sp.Func), Col: sp.Col})
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

func newServeMixed(e *env) (instance, error) {
	s := &serveInst{e: e, urlOf: make(map[uint64]string)}
	var datasets []*serve.Dataset
	for i, d := range serveDatasets {
		spec := fmt.Sprintf("%s=%s:%d:%d:%d", d.name, d.kind,
			e.scaled(d.rows, 2048), e.scaled(d.keys, 256), e.seed*8+uint64(i))
		ds, err := serve.ParseDatasetSpec(spec)
		if err != nil {
			return nil, err
		}
		datasets = append(datasets, ds)
		for sh, specs := range serveShapes {
			q := &serveQuery{ds: ds, shape: sh, orc: u64Oracle(ds.Keys, ds.Cols, specs)}
			q.want = q.orc.checksums(digestU64)
			q.body[0] = requestBody(ds.Name, specs, false)
			q.body[1] = requestBody(ds.Name, specs, true)
			s.queries = append(s.queries, q)
		}
		if ds.GeneralKeys() {
			ids := s.queries[len(s.queries)-1].orc.keys
			cols, err := ds.Interner.DecodeGroups(ids, ds.KeyTypes)
			if err != nil {
				return nil, err
			}
			for j, id := range ids {
				s.urlOf[id] = cols[0].Strings[j]
			}
		}
	}
	// The script is built from blocks with the same mix whatever the seed:
	// every block holds each query once with no_cache and a third as many
	// cacheable requests, which walk the repeatable queries in turn. The
	// seed decides which queries are repeatable and the order inside a
	// block, so that two seeds differ in schedule but not in work.
	rng := xrand.NewXoshiro256(e.seed + 101)
	shuffle := func(xs []scriptEntry) {
		for i := len(xs) - 1; i > 0; i-- {
			j := int(rng.Uint64n(uint64(i + 1)))
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	repeatable := make([]scriptEntry, len(s.queries))
	for i := range repeatable {
		repeatable[i] = scriptEntry{query: i}
	}
	shuffle(repeatable)
	repeatable = repeatable[:serveRepeatable]
	cacheable := 0
	for b := 0; b < serveBlocks; b++ {
		var block []scriptEntry
		for q := range s.queries {
			block = append(block, scriptEntry{query: q, noCache: true})
		}
		for i := 0; i < len(s.queries)/3; i++ {
			block = append(block, repeatable[cacheable%serveRepeatable])
			cacheable++
		}
		shuffle(block)
		s.script = append(s.script, block...)
	}

	reg, err := serve.NewRegistry(datasets...)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{Registry: reg, QueryWorkers: 1, ResultCacheBytes: serveCacheBytes}
	if e.traced {
		cfg.Tracer = cacheagg.NewTracer(0)
	}
	s.srv, err = serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	s.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + s.ln.Addr().String() + "/v1/aggregate"
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.httpSrv.Serve(s.ln) // returns ErrServerClosed on shutdown
	}()
	for c := 0; c < e.p; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return s, nil
}

// close drains the service and waits for the listener goroutine.
func (s *serveInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Drain(ctx)
	s.httpSrv.Shutdown(ctx)
	<-s.served
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// response is one answered request.
type response struct {
	status int
	body   []byte
}

func (s *serveInst) post(c *http.Client, body []byte, buf *bytes.Buffer) (response, error) {
	resp, err := c.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, body: buf.Bytes()}, nil
}

// bodyDigest is what the fast scan of a response body yields.
type bodyDigest struct {
	cache   string // the header line's cache field: miss, hit or shared
	groups  int    // the header line's group count
	trailer int    // the trailer line's row count
	sums    checksums
	bytes   int
}

// scanBody validates a JSONL response without building a document: the
// header and trailer lines go through encoding/json, the row lines through
// a scanner that reads only "g" and the "a" array — the float and decoded
// key fields are compared in full on the first op of every query.
func scanBody(body []byte, nAggs int, cols []int64) (bodyDigest, error) {
	d := bodyDigest{bytes: len(body)}
	d.sums.cols = cols
	for i := range cols {
		cols[i] = 0
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return d, fmt.Errorf("response has no header line")
	}
	var hdr struct {
		Groups int    `json:"groups"`
		Cache  string `json:"cache"`
	}
	if err := json.Unmarshal(body[:nl], &hdr); err != nil {
		return d, fmt.Errorf("header line: %w", err)
	}
	d.cache, d.groups = hdr.Cache, hdr.Groups
	rest := body[nl+1:]
	sawTrailer := false
	for len(rest) > 0 {
		nl = bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return d, fmt.Errorf("response does not end in a newline")
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		if bytes.HasPrefix(line, []byte(`{"done"`)) {
			var tr struct {
				Done bool `json:"done"`
				Rows int  `json:"rows"`
			}
			if err := json.Unmarshal(line, &tr); err != nil || !tr.Done {
				return d, fmt.Errorf("trailer line %q", line)
			}
			d.trailer = tr.Rows
			sawTrailer = true
			if len(rest) != 0 {
				return d, fmt.Errorf("%d bytes after the trailer", len(rest))
			}
			break
		}
		g, err := scanRow(line, nAggs, cols)
		if err != nil {
			return d, err
		}
		d.sums.groups++
		d.sums.keySum += g
		d.sums.keyXor ^= g
	}
	if !sawTrailer {
		return d, fmt.Errorf("response has no trailer: torn body")
	}
	return d, nil
}

// scanRow reads `{"g":<uint>,...,"a":[<int>,...]...}` and adds the
// aggregates into cols.
func scanRow(line []byte, nAggs int, cols []int64) (g uint64, err error) {
	const gPrefix = `{"g":`
	if !bytes.HasPrefix(line, []byte(gPrefix)) {
		return 0, fmt.Errorf("row line %q does not start with %s", line, gPrefix)
	}
	i := len(gPrefix)
	start := i
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		g = g*10 + uint64(line[i]-'0')
		i++
	}
	if i == start {
		return 0, fmt.Errorf("row line %q has no group id", line)
	}
	a := bytes.Index(line[i:], []byte(`"a":[`))
	if a < 0 {
		return 0, fmt.Errorf("row line %q has no aggregates", line)
	}
	i += a + len(`"a":[`)
	n := 0
	for n < nAggs {
		neg := false
		if i < len(line) && line[i] == '-' {
			neg = true
			i++
		}
		start = i
		var v int64
		for i < len(line) && line[i] >= '0' && line[i] <= '9' {
			v = v*10 + int64(line[i]-'0')
			i++
		}
		if i == start {
			return 0, fmt.Errorf("row line %q: aggregate %d is not an integer", line, n)
		}
		if neg {
			v = -v
		}
		cols[n] += v
		n++
		if i < len(line) && line[i] == ',' {
			i++
			continue
		}
		break
	}
	if n != nAggs || i >= len(line) || line[i] != ']' {
		return 0, fmt.Errorf("row line %q: want %d aggregates", line, nAggs)
	}
	return g, nil
}

// checkBody verifies one response against its query's checksums.
func (s *serveInst) checkBody(q *serveQuery, r response, cols []int64) (bodyDigest, error) {
	if r.status != http.StatusOK {
		return bodyDigest{}, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	specs := serveShapes[q.shape]
	d, err := scanBody(r.body, len(specs), cols[:len(specs)])
	if err != nil {
		return d, err
	}
	if d.trailer != d.sums.groups || d.groups != d.sums.groups {
		return d, fmt.Errorf("header says %d groups, trailer %d, body has %d", d.groups, d.trailer, d.sums.groups)
	}
	for i, sp := range specs {
		if sp.Func == cacheagg.Count {
			d.sums.rows = cols[i]
			break
		}
	}
	if !d.sums.equal(q.want) {
		return d, fmt.Errorf("%s shape %d: checksums differ: got %v, want %v", q.ds.Name, q.shape, d.sums, q.want)
	}
	return d, nil
}

// fullRow is a response row as encoding/json sees it.
type fullRow struct {
	G uint64    `json:"g"`
	K []any     `json:"k"`
	A []int64   `json:"a"`
	F []float64 `json:"f"`
}

// firstOp sends every query once without the cache and compares every row,
// looked up by key, with exact averages and decoded string keys.
func (s *serveInst) firstOp() error {
	var buf bytes.Buffer
	for _, q := range s.queries {
		r, err := s.post(s.clients[0], q.body[1], &buf)
		if err != nil {
			return err
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("%s shape %d: status %d: %s", q.ds.Name, q.shape, r.status, r.body)
		}
		lines := bytes.Split(bytes.TrimRight(r.body, "\n"), []byte("\n"))
		if len(lines) < 2 {
			return fmt.Errorf("%s shape %d: response of %d lines", q.ds.Name, q.shape, len(lines))
		}
		rows := make([]fullRow, len(lines)-2)
		for i, line := range lines[1 : len(lines)-1] {
			if err := json.Unmarshal(line, &rows[i]); err != nil {
				return fmt.Errorf("%s shape %d row %d: %w", q.ds.Name, q.shape, i, err)
			}
			if q.ds.GeneralKeys() {
				want := s.urlOf[rows[i].G]
				if len(rows[i].K) != 1 || rows[i].K[0] != want {
					return fmt.Errorf("%s row %d: decoded key %v, want %q", q.ds.Name, i, rows[i].K, want)
				}
			}
		}
		v := view[uint64]{
			n:   len(rows),
			key: func(i int) uint64 { return rows[i].G },
			agg: func(s, i int) int64 { return rows[i].A[s] },
		}
		if len(rows) > 0 && rows[0].F != nil {
			v.float = func(s, i int) float64 { return rows[i].F[s] }
		}
		if err := q.orc.checkFull(v); err != nil {
			return fmt.Errorf("%s shape %d: %w", q.ds.Name, q.shape, err)
		}
		q.orc = nil
	}
	return nil
}

// closedSample is one closed-loop request as the traced run classifies it.
type closedSample struct {
	latMs   float64
	cache   string
	noCache bool
	ok      bool
	groups  int
	bytes   int
}

// closedLoop runs P clients, each sending its next scripted request only
// after the previous reply was read and verified, until the budget is spent
// and minOps requests were sent.
func (s *serveInst) closedLoop(budget time.Duration, minOps int, out *e2eSample, each func(closedSample)) {
	var sent atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			cols := make([]int64, 8)
			for {
				if n := int(sent.Add(1)); time.Since(start) >= budget && n > minOps {
					return
				}
				i := int(s.next.Add(1)) - 1
				ent := s.script[i%len(s.script)]
				q := s.queries[ent.query]
				body := q.body[0]
				if ent.noCache {
					body = q.body[1]
				}
				t := time.Now()
				r, err := s.post(c, body, &buf)
				var d bodyDigest
				if err == nil {
					d, err = s.checkBody(q, r, cols)
				}
				lat := float64(time.Since(t)) / float64(time.Millisecond)
				mu.Lock()
				out.attempted++
				out.latMs = append(out.latMs, lat)
				if err != nil {
					out.fail("request %d: %v", i, err)
				} else {
					out.rows += int64(q.ds.Rows())
				}
				if each != nil {
					each(closedSample{latMs: lat, cache: d.cache, noCache: ent.noCache,
						ok: err == nil, groups: d.sums.groups, bytes: d.bytes})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.wall += time.Since(start)
}

func (s *serveInst) run(e *env) (*e2eSample, error) {
	s.closedLoop(e.budget(warmShare), 0, &e2eSample{}, nil) // untimed warm-up
	out := &e2eSample{}
	_, out.allocBytes = allocDelta(func() {
		s.closedLoop(e.budget(1), e.minOps, out, nil)
	})
	return out, nil
}
