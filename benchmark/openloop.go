package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock lets the open-loop test replace wall time.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// openSample is the timing of one open-loop request.
type openSample struct {
	// late is how long after its due time the request was sent: the
	// generator's own lag, caused by every sender being busy.
	late time.Duration
	// latency runs from the due time, not the send time, so the wait a
	// stall imposes on the requests behind it is counted.
	latency time.Duration
	ok      bool
}

// runOpenLoop sends n requests on a fixed schedule of ratePerS requests a
// second: request i is due at start + i/rate whether or not earlier ones
// have completed. At most `senders` requests are in flight; when all
// senders are busy the next request goes out late and the lateness is
// recorded rather than hidden. do is told which sender calls it, so that
// it can keep per-sender connections and buffers.
func runOpenLoop(n int, ratePerS float64, senders int, clk clock, do func(sender, i int) bool) []openSample {
	samples := make([]openSample, n)
	interval := time.Duration(float64(time.Second) / ratePerS)
	start := clk.now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := due.Sub(clk.now()); wait > 0 {
					clk.sleep(wait)
				}
				sent := clk.now()
				ok := do(sender, i)
				samples[i] = openSample{
					late:    max(sent.Sub(due), 0),
					latency: clk.now().Sub(due),
					ok:      ok,
				}
			}
		}(s)
	}
	wg.Wait()
	return samples
}
