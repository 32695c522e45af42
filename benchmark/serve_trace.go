package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"cacheagg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/serve"
)

// serveOpenRate is the frozen request rate of the open-loop phase, set with
// -calibrate to about 60 % of the closed-loop rate first measured on the
// reference box (2 vCPU Xeon at 2.1 GHz).
const serveOpenRate = 140.0

// eachNoCache runs f for the script's no_cache entries on P goroutines for
// the budget and returns the per-call latencies in milliseconds.
func (s *serveInst) eachNoCache(budget time.Duration, f func(q *serveQuery, cols []int64) error) ([]float64, error) {
	var entries []scriptEntry
	for _, ent := range s.script {
		if ent.noCache {
			entries = append(entries, ent)
		}
	}
	var mu sync.Mutex
	var lat []float64
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < s.e.p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cols := make([]int64, 8)
			for i := g; time.Since(start) < budget || i < 2*s.e.p; i += s.e.p {
				q := s.queries[entries[i%len(entries)].query]
				t := time.Now()
				err := f(q, cols)
				ms := msOf(time.Since(t))
				mu.Lock()
				lat = append(lat, ms)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return lat, firstErr
}

func (s *serveInst) trace(e *env, rec *recorder) (map[string]float64, error) {
	m := make(map[string]float64)

	// Closed loop, as the untraced run, with every request classified.
	var hitUs, missMs, noCacheMs []float64
	var okBytes, okGroups int64
	out := &e2eSample{}
	loopStart := time.Now()
	s.closedLoop(e.budget(0.30), e.minOps, out, func(c closedSample) {
		d := time.Duration(c.latMs * float64(time.Millisecond))
		rec.add("op.request."+c.cache, 0, 0, time.Now().Add(-d), d, int64(c.groups))
		if !c.ok {
			return
		}
		okBytes += int64(c.bytes)
		okGroups += int64(c.groups)
		switch c.cache {
		case "hit":
			hitUs = append(hitUs, c.latMs*1000)
		case "miss":
			missMs = append(missMs, c.latMs)
		}
		if c.noCache {
			noCacheMs = append(noCacheMs, c.latMs)
		}
	})
	closedRate := float64(out.attempted) / time.Since(loopStart).Seconds()
	m["serve.cache_hit_p50_us"] = median(hitUs)
	m["serve.miss_p50_ms"] = median(missMs)
	m["serve.p99_ms"], _ = tailPercentile(out.latMs, 0.99)
	m["serve.shed_share"] = float64(out.failed) / float64(out.attempted)
	if okGroups > 0 {
		m["serve.jsonl_bytes_per_group"] = float64(okBytes) / float64(okGroups)
	}

	// The same queries as direct library calls: what is left of a request
	// when the service around the operator is taken away.
	directMs, err := s.eachNoCache(e.budget(0.12), func(q *serveQuery, cols []int64) error {
		res, err := cacheagg.Aggregate(cacheagg.Input{
			GroupBy: q.ds.Keys, Columns: q.ds.Cols, Aggregates: serveShapes[q.shape],
		}, cacheagg.Options{Workers: 1})
		if err != nil {
			return err
		}
		if res.Len() != q.want.groups {
			return fmt.Errorf("direct call: %d groups, want %d", res.Len(), q.want.groups)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["serve.handler_overhead_ms"] = median(noCacheMs) - median(directMs)

	// The same requests into the handler without a socket.
	handler := s.srv.Handler()
	recorderMs, err := s.eachNoCache(e.budget(0.12), func(q *serveQuery, cols []int64) error {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/aggregate", bytes.NewReader(q.body[1]))
		handler.ServeHTTP(w, req)
		_, err := s.checkBody(q, response{status: w.Code, body: w.Body.Bytes()}, cols)
		return err
	})
	if err != nil {
		return nil, err
	}
	if loop := median(noCacheMs); loop > 0 {
		m["serve.network_share"] = (loop - median(recorderMs)) / loop
	}

	// Request decode and admission alone.
	const small = 2000
	var decodeErr error
	decode := rec.measure("serve.DecodeRequest", 0, 0, func() int64 {
		for i := 0; i < small && decodeErr == nil; i++ {
			q := s.queries[s.script[i%len(s.script)].query]
			_, decodeErr = serve.DecodeRequest(bytes.NewReader(q.body[1]), serve.Limits{})
		}
		return small
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	m["serve.decode_request_us"] = float64(decode) / small / float64(time.Microsecond)
	ctrl := serve.NewController(serve.AdmitConfig{}, &serve.Metrics{})
	need := serve.EstimateCost(serveDatasets[0].rows, len(stdSpecs), 1, 0)
	var admitErr error
	admit := rec.measure("serve.Admit+Release", 0, 0, func() int64 {
		for i := 0; i < small && admitErr == nil; i++ {
			var g *serve.Grant
			if g, admitErr = ctrl.Admit(context.Background(), serve.PriorityNormal, need); admitErr == nil {
				g.Release()
			}
		}
		return small
	})
	if admitErr != nil {
		return nil, admitErr
	}
	m["serve.admit_us"] = float64(admit) / small / float64(time.Microsecond)

	// Open loop at the frozen rate: independent users, not waiting callers.
	rate := serveOpenRate
	if e.scale != 1 {
		rate = closedRate * 0.6 // smoke inputs are too small for the frozen rate to mean anything
	}
	n := max(int(rate*e.budget(0.2).Seconds()), 20)
	buf := make([]bytes.Buffer, e.p)
	cols := make([][8]int64, e.p)
	samples := runOpenLoop(n, rate, e.p, wallClock, func(c, i int) bool {
		ent := s.script[i%len(s.script)]
		q := s.queries[ent.query]
		body := q.body[0]
		if ent.noCache {
			body = q.body[1]
		}
		r, err := s.post(s.clients[c], body, &buf[c])
		if err == nil {
			_, err = s.checkBody(q, r, cols[c][:])
		}
		return err == nil
	})
	var openMs, lateMs []float64
	for _, sm := range samples {
		if !sm.ok {
			return nil, fmt.Errorf("an open-loop request failed")
		}
		openMs = append(openMs, msOf(sm.latency))
		lateMs = append(lateMs, msOf(sm.late))
	}
	m["serve.open_p50_ms"] = median(openMs)
	m["serve.open_p90_ms"], _ = tailPercentile(openMs, 0.90)
	m["serve.open_late_ms_p90"], _ = tailPercentile(lateMs, 0.90)

	// The interner's read path: the urls dataset's keys, already in its
	// dictionary, encoded again block by block.
	for i, d := range serveDatasets {
		if d.kind != "strings" {
			continue
		}
		ds := s.queries[i*len(serveShapes)].ds
		raw := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: ds.Rows(), K: uint64(e.scaled(d.keys, 256)), Seed: e.seed*8 + uint64(i)})
		strs := make([]string, len(raw))
		for j, k := range raw {
			strs[j] = datagen.StringKey(k)
		}
		before := ds.Interner.Len()
		var encErr error
		batches := 0
		mallocs, _ := allocDelta(func() {
			for lo := 0; lo < len(strs) && encErr == nil; lo += replayBlock {
				hi := min(lo+replayBlock, len(strs))
				rec.measure(spanEncodeWarm, 0, 0, func() int64 {
					_, encErr = ds.Interner.EncodeColumns([]cacheagg.KeyColumn{{Strings: strs[lo:hi]}})
					return int64(hi - lo)
				})
				batches++
			}
		})
		if encErr != nil {
			return nil, encErr
		}
		if ds.Interner.Len() != before {
			return nil, fmt.Errorf("warm encode grew the dictionary from %d to %d keys", before, ds.Interner.Len())
		}
		m["intern.encode_warm_ns_per_row"] = costPerUnit(rec.spans, spanEncodeWarm)
		m["intern.allocs_per_warm_batch"] = float64(mallocs) / float64(batches)
	}
	return m, nil
}
