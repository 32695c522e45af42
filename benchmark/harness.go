package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env is what one run of one workload is parameterised by.
type env struct {
	seed    uint64
	seconds float64
	// scale multiplies every input size; 1 for a real run, 1/50 for the
	// smoke scale the tests drive.
	scale float64
	// minOps is the least number of timed ops, so that p90 has ten
	// samples beyond it even on a slow machine.
	minOps int
	// p is the pinned GOMAXPROCS and the Workers of every op.
	p int
	// tmp is a directory of the run's own, inside the checkout.
	tmp string
	// traced is set for a traced run, for set-up that must differ (the
	// server is given a Tracer).
	traced bool
}

// scaled returns n scaled down for smoke runs, never below floor.
func (e *env) scaled(n, floor int) int {
	s := int(float64(n) * e.scale)
	if s < floor {
		return floor
	}
	return s
}

func (e *env) budget(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// firstOp runs one untimed op, verifies its whole output against the
	// map oracle key by key, and lets go of the map.
	firstOp() error
	// run executes the timed region.
	run(e *env) (*e2eSample, error)
	// trace executes the traced run and returns every per-layer metric
	// the workload exercises; the rest are reported as 0.
	trace(e *env, rec *recorder) (map[string]float64, error)
	close()
}

// e2eSample is what the timed region of an untraced run observed.
type e2eSample struct {
	latMs []float64     // one entry per timed op
	rows  int64         // input rows behind the successful ops
	wall  time.Duration // wall time the ops took
	// allocBytes is the TotalAlloc delta over the timed ops and the
	// verification between them (which allocates nothing).
	allocBytes uint64
	attempted  int
	failed     int
	failures   []string // first few failure messages
}

func (s *e2eSample) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// seqOp is one op of a workload whose ops run one after another, each using
// all P workers. It returns a check to run outside the op's timing.
type seqOp func() (check func() error, err error)

// warmShare is the part of -seconds spent on untimed ops before the timed
// region, so that caches, the allocator and the page tables are in the state
// a long-running host would have them in.
const warmShare = 0.1

// runSequential times ops back to back until the deadline has passed and
// minOps have run, after a warm-up of untimed ops. Verification happens
// between ops and is excluded from both the latencies and the wall time.
// The collector runs as it would in a host of the library, at the GOGC the
// result file records.
func runSequential(e *env, rowsPerOp int64, op seqOp) *e2eSample {
	s := &e2eSample{}
	for warm := time.Now(); time.Since(warm) < e.budget(warmShare); {
		if _, err := op(); err != nil {
			s.fail("warm-up op: %v", err)
			break
		}
	}
	deadline := e.budget(1)
	_, s.allocBytes = allocDelta(func() {
		for s.wall < deadline || s.attempted < e.minOps {
			start := time.Now()
			check, err := op()
			d := time.Since(start)
			s.attempted++
			s.wall += d
			s.latMs = append(s.latMs, float64(d)/float64(time.Millisecond))
			if err == nil {
				err = check()
			}
			if err != nil {
				s.fail("op %d: %v", s.attempted, err)
				continue
			}
			s.rows += rowsPerOp
		}
	})
	return s
}

// timeOps runs op until budget has passed (at least minOps times) and
// returns the per-op latencies in milliseconds.
func timeOps(budget time.Duration, minOps int, op func() error) ([]float64, error) {
	var lat []float64
	var total time.Duration
	for total < budget || len(lat) < minOps {
		start := time.Now()
		if err := op(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		total += d
		lat = append(lat, float64(d)/float64(time.Millisecond))
	}
	return lat, nil
}

// procStatusKB reads a "VmXXX:  123 kB" field of /proc/self/status.
func procStatusKB(field string) (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// rssSampler polls VmRSS while an op runs and keeps the maximum: the RSS
// growth memgov.ledger_coverage compares the ledger with.
type rssSampler struct {
	stop chan struct{}
	done chan int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan int64, 1)}
	go func() {
		var peak int64
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			if kb, err := procStatusKB("VmRSS"); err == nil && kb > peak {
				peak = kb
			}
			select {
			case <-s.stop:
				s.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// peakKB stops the sampler and returns the largest VmRSS it saw.
func (s *rssSampler) peakKB() int64 {
	close(s.stop)
	return <-s.done
}

// allocDelta measures heap allocation across f.
func allocDelta(f func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}
