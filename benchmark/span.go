package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark-owned span recorder of the traced run. Spans wrap calls
// into the library's layers from outside; nothing inside the library is
// instrumented. Spans stay in memory and are written out when the run ends.

// span is one timed call. Parent is the id of the span that caused it (0
// for a root); spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Rows is the count of rows (or groups, bytes: see the name) the call
	// handled, recorded at the same boundary as the time.
	Rows int64 `json:"rows,omitempty"`
}

type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(name string, parent, op int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int, rows int64) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.spans[id-1].Rows = rows
	r.mu.Unlock()
}

// add records a span that was timed by the caller.
func (r *recorder) add(name string, parent, op int, start time.Time, d time.Duration, rows int64) {
	at := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: at, End: at + d.Nanoseconds(), Rows: rows})
	r.mu.Unlock()
}

// measure runs f inside a span; f returns the rows (or groups, or bytes)
// it handled. The span's duration is returned.
func (r *recorder) measure(name string, parent, op int, f func() int64) time.Duration {
	start := time.Now()
	rows := f()
	d := time.Since(start)
	r.add(name, parent, op, start, d, rows)
	return d
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its direct children cover.
// Children of one parent that overlap each other (parallel calls) are
// merged first, so covered time is never subtracted twice.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered returns how much of [lo, hi] the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < a {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
