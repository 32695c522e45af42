package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cacheagg"
	"cacheagg/internal/datagen"
)

const (
	streamBlockRows = 4096
	streamKeys      = 1 << 16
	// streamPoolBlocks blocks are generated once and pushed in cycles; a
	// pool is exactly one default epoch (262144 rows).
	streamPoolBlocks = 64
	// A session pushes streamCycles pools, reads a whole-stream snapshot
	// every streamSnapCycles pools, then finishes. Sessions of a fixed
	// size repeat until the timed region is over, so the cost of a
	// snapshot (which grows with the epochs behind it) does not depend on
	// how long the region is.
	streamCycles     = 8
	streamSnapCycles = 4
)

// streamInst is stream_ingest: the durable streaming engine as a writer
// (fold, checkpoint seal) beside a reader (whole-stream snapshots).
type streamInst struct {
	e        *env
	pool     []cacheagg.Block
	poolRows int64
	cycles   int
	snapAt   int
	orc      *oracle[uint64] // oracle of one pool; kept: it is small
	want     map[int]checksums
	sums     []int64
	sessions int
}

func newStreamIngest(e *env) (instance, error) {
	rows := e.scaled(streamBlockRows, 128)
	n := rows * streamPoolBlocks
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Zipf, N: n, K: uint64(e.scaled(streamKeys, 1024)), Seed: e.seed})
	cols := valueColumns(n, e.seed)
	s := &streamInst{
		e:        e,
		poolRows: int64(n),
		cycles:   e.scaled(streamCycles, 2),
		orc:      u64Oracle(keys, cols, stdSpecs),
		want:     make(map[int]checksums),
		sums:     make([]int64, len(stdSpecs)),
	}
	s.snapAt = max(s.cycles*streamSnapCycles/streamCycles, 1)
	for b := 0; b < streamPoolBlocks; b++ {
		lo, hi := b*rows, (b+1)*rows
		s.pool = append(s.pool, cacheagg.Block{
			Keys:    keys[lo:hi],
			Columns: [][]int64{cols[0][lo:hi], cols[1][lo:hi]},
		})
	}
	if err := os.MkdirAll(filepath.Join(e.tmp, "stream"), 0o755); err != nil {
		return nil, err
	}
	return s, nil
}

// wantCycles returns the checksums of the stream after c whole pools.
func (s *streamInst) wantCycles(c int) checksums {
	if w, ok := s.want[c]; ok {
		return w
	}
	o := newOracle[uint64](stdSpecs)
	o.merge(s.orc, int64(c))
	w := o.checksums(digestU64)
	s.want[c] = w
	return w
}

func streamView(r *cacheagg.StreamResult) view[uint64] {
	return view[uint64]{
		n:     r.Len(),
		key:   func(i int) uint64 { return r.Groups[i] },
		agg:   func(s, i int) int64 { return r.Aggs[s][i] },
		float: r.Float,
	}
}

func (s *streamInst) close() {}

// newDir returns a fresh checkpoint directory.
func (s *streamInst) newDir() string {
	s.sessions++
	return filepath.Join(s.e.tmp, "stream", fmt.Sprintf("s%05d", s.sessions))
}

// options are the stream's options: checkpoints on the real disk, fsynced
// (the default) as a host that wants durability runs them.
func (s *streamInst) options(dir string, tr *cacheagg.Tracer) cacheagg.StreamOptions {
	return cacheagg.StreamOptions{Dir: dir, Aggregates: stdSpecs, Workers: s.e.p, Tracer: tr}
}

func (s *streamInst) checkResult(res *cacheagg.StreamResult, cycles int) error {
	want := s.wantCycles(cycles)
	if got := digestView(streamView(res), stdSpecs, digestU64, s.sums); !got.equal(want) {
		return fmt.Errorf("after %d pools: checksums differ: got %v, want %v", cycles, got, want)
	}
	return nil
}

// firstOp streams one pool, finishes, and compares key by key.
func (s *streamInst) firstOp() error {
	ctx := context.Background()
	dir := s.newDir()
	defer os.RemoveAll(dir)
	a, err := cacheagg.BeginStream(s.options(dir, nil))
	if err != nil {
		return err
	}
	for _, b := range s.pool {
		if err := a.Push(ctx, b); err != nil {
			a.Close()
			return err
		}
	}
	res, err := a.Finish(ctx)
	if err != nil {
		a.Close()
		return err
	}
	return s.orc.checkFull(streamView(res))
}

// sessionHooks lets the traced run observe a session's steps.
type sessionHooks struct {
	tracer   *cacheagg.Tracer
	push     func(start time.Time, d time.Duration)
	snapshot func(start time.Time, d time.Duration)
	finish   func(start time.Time, d time.Duration, st cacheagg.StreamStats)
	// seal, when set, makes the session call Checkpoint after every pool
	// and receives its duration.
	seal func(d time.Duration)
}

// session runs one whole stream: Begin, cycles pools of pushes with
// snapshot reads, Finish. Every Push is one op of out; verification of
// snapshot and final results happens here but outside the push timings.
func (s *streamInst) session(out *e2eSample, h sessionHooks) error {
	ctx := context.Background()
	dir := s.newDir()
	defer os.RemoveAll(dir)
	start := time.Now()
	a, err := cacheagg.BeginStream(s.options(dir, h.tracer))
	if err != nil {
		return err
	}
	defer a.Close()
	var verify time.Duration
	pushed := int64(0)
	for c := 1; c <= s.cycles; c++ {
		for _, b := range s.pool {
			t := time.Now()
			err := a.Push(ctx, b)
			d := time.Since(t)
			out.attempted++
			out.latMs = append(out.latMs, float64(d)/float64(time.Millisecond))
			if h.push != nil {
				h.push(t, d)
			}
			if err != nil {
				out.fail("push: %v", err)
				continue
			}
			pushed += int64(len(b.Keys))
		}
		if h.seal != nil {
			t := time.Now()
			if _, err := a.Checkpoint(ctx); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			h.seal(time.Since(t))
		}
		if c%s.snapAt == 0 && c < s.cycles {
			t := time.Now()
			res, err := a.Snapshot(ctx, 0)
			d := time.Since(t)
			if h.snapshot != nil {
				h.snapshot(t, d)
			}
			v := time.Now()
			if err == nil {
				err = s.checkResult(res, c)
			}
			if err != nil {
				out.fail("snapshot: %v", err)
			}
			verify += time.Since(v)
		}
	}
	t := time.Now()
	res, err := a.Finish(ctx)
	if h.finish != nil {
		h.finish(t, time.Since(t), a.Stats())
	}
	wall := time.Since(start) - verify
	if err == nil {
		err = s.checkResult(res, s.cycles)
	}
	if err != nil {
		out.fail("finish: %v", err)
		pushed = 0
	}
	out.rows += pushed
	out.wall += wall
	return nil
}

func (s *streamInst) run(e *env) (*e2eSample, error) {
	// One untimed session warms the page cache and the allocator.
	if err := s.session(&e2eSample{}, sessionHooks{}); err != nil {
		return nil, err
	}
	out := &e2eSample{}
	deadline := e.budget(1)
	var err error
	_, out.allocBytes = allocDelta(func() {
		for err == nil && (out.wall < deadline || out.attempted < e.minOps) {
			err = s.session(out, sessionHooks{})
		}
	})
	if err != nil {
		return nil, err
	}
	if _, err := s.resumeCheck(nil); err != nil {
		out.fail("resume check: %v", err)
	}
	return out, nil
}

// resumeCheck verifies durability: a session is closed without finishing,
// resumed, and must hold exactly the rows of its sealed epochs; the rest is
// pushed again and the finished stream must equal the oracle. It returns
// the time ResumeStream took.
func (s *streamInst) resumeCheck(tr *cacheagg.Tracer) (time.Duration, error) {
	ctx := context.Background()
	dir := s.newDir()
	defer os.RemoveAll(dir)
	a, err := cacheagg.BeginStream(s.options(dir, tr))
	if err != nil {
		return 0, err
	}
	// One sealed pool, then half a pool that the Close drops.
	for _, b := range s.pool {
		if err := a.Push(ctx, b); err != nil {
			a.Close()
			return 0, err
		}
	}
	if _, err := a.Checkpoint(ctx); err != nil {
		a.Close()
		return 0, err
	}
	for _, b := range s.pool[:streamPoolBlocks/2] {
		if err := a.Push(ctx, b); err != nil {
			a.Close()
			return 0, err
		}
	}
	if err := a.Close(); err != nil {
		return 0, err
	}
	t := time.Now()
	a, err = cacheagg.ResumeStream(s.options(dir, tr))
	resumeTook := time.Since(t)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	if got := a.Progress().RowsDurable; got != uint64(s.poolRows) {
		return 0, fmt.Errorf("resumed stream has %d durable rows, want %d", got, s.poolRows)
	}
	snap, err := a.Snapshot(ctx, 0)
	if err != nil {
		return 0, err
	}
	if err := s.checkResult(snap, 1); err != nil {
		return 0, fmt.Errorf("resumed state: %w", err)
	}
	for _, b := range s.pool {
		if err := a.Push(ctx, b); err != nil {
			return 0, err
		}
	}
	res, err := a.Finish(ctx)
	if err != nil {
		return 0, err
	}
	if err := s.checkResult(res, 2); err != nil {
		return 0, fmt.Errorf("finished after resume: %w", err)
	}
	if _, err := cacheagg.ResumeStream(s.options(dir, nil)); err == nil {
		return 0, fmt.Errorf("a finished stream could be resumed")
	}
	return resumeTook, nil
}
