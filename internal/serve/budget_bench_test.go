package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkServeUnderBudget prices serving under memory pressure, a
// regime the repository benchmark does not run: 8 concurrent clients send
// the drill shapes, uncached, over a 2^16-row zipf dataset to a server
// with a fixed 16 MiB budget, one worker and a 64 KiB cache per query.
// One op is one request; p99_ms is over every request and ok_share the
// share answered 200.
func BenchmarkServeUnderBudget(b *testing.B) {
	ds, err := ParseDatasetSpec("events=zipf:65536:4096:7")
	if err != nil {
		b.Fatal(err)
	}
	reg, err := NewRegistry(ds)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewServer(Config{
		Registry:        reg,
		Admission:       AdmitConfig{BudgetBytes: 16 << 20},
		QueryWorkers:    1,
		QueryCacheBytes: 64 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bodies := make([]string, len(drillShapes))
	for i, sh := range drillShapes {
		bodies[i] = fmt.Sprintf(`{"dataset":"events","no_cache":true,"aggregates":%s}`, sh)
	}
	const clients = 8
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer httpc.CloseIdleConnections()

	lat := make([]time.Duration, b.N)
	var next, ok atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= b.N {
					return
				}
				start := time.Now()
				resp, err := httpc.Post(ts.URL+"/v1/aggregate", "application/json",
					strings.NewReader(bodies[i%len(bodies)]))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat[i] = time.Since(start)
				if resp.StatusCode == http.StatusOK {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	slices.Sort(lat)
	p99 := lat[max(int(math.Ceil(0.99*float64(b.N)))-1, 0)]
	b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99_ms")
	b.ReportMetric(float64(ok.Load())/float64(b.N), "ok_share")
}
