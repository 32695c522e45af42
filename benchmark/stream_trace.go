package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"cacheagg"
)

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sealTimes measures the checkpoint seal alone: with automatic sealing out
// of the way, a pool is pushed, the consumer is given time to fold it, and
// only then is Checkpoint timed — the epoch file, its fsync, the manifest
// and its rename.
func (s *streamInst) sealTimes(budget time.Duration, rec *recorder) ([]float64, error) {
	ctx := context.Background()
	dir := s.newDir()
	defer os.RemoveAll(dir)
	opts := s.options(dir, nil)
	opts.EpochMaxRows = 1 << 40
	a, err := cacheagg.BeginStream(opts)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	var seals []float64
	start := time.Now()
	for time.Since(start) < budget || len(seals) < 3 {
		for _, b := range s.pool {
			if err := a.Push(ctx, b); err != nil {
				return nil, err
			}
		}
		for waited := time.Now(); a.Progress().RowsBuffered < s.poolRows; {
			if time.Since(waited) > 30*time.Second {
				return nil, fmt.Errorf("pushed rows were not folded within 30s")
			}
			time.Sleep(200 * time.Microsecond)
		}
		var err error
		d := rec.measure("stream.Checkpoint", 0, 0, func() int64 {
			_, err = a.Checkpoint(ctx)
			return s.poolRows
		})
		if err != nil {
			return nil, err
		}
		seals = append(seals, msOf(d))
	}
	return seals, nil
}

func (s *streamInst) trace(e *env, rec *recorder) (map[string]float64, error) {
	m := make(map[string]float64)
	tracer := cacheagg.NewTracer(0)
	var pushNs time.Duration
	var pushMs, snapMs, finishMs, ckptShare, backpressure []float64
	sessionRows := s.poolRows * int64(s.cycles)
	inputBytes := float64(sessionRows * 8 * 3)
	var session int
	hooks := sessionHooks{
		tracer: tracer,
		push: func(start time.Time, d time.Duration) {
			pushNs += d
			pushMs = append(pushMs, msOf(d))
			rec.add("stream.Push", session, session, start, d, int64(len(s.pool[0].Keys)))
		},
		snapshot: func(start time.Time, d time.Duration) {
			snapMs = append(snapMs, msOf(d))
			rec.add("stream.Snapshot", session, session, start, d, 0)
		},
		finish: func(start time.Time, d time.Duration, st cacheagg.StreamStats) {
			finishMs = append(finishMs, msOf(d))
			rec.add("stream.Finish", session, session, start, d, 0)
			ckptShare = append(ckptShare, float64(st.CheckpointBytes)/inputBytes)
			backpressure = append(backpressure, float64(st.Backpressure))
		},
	}
	out := &e2eSample{}
	start := time.Now()
	for time.Since(start) < e.budget(0.5) || len(finishMs) == 0 {
		session = rec.begin("op.StreamSession+Tracer", 0, len(rec.spans)+1)
		err := s.session(out, hooks)
		rec.end(session, sessionRows)
		if err != nil {
			return nil, err
		}
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("traced session failed verification: %v", out.failures)
	}
	m["stream.push_ns_per_row"] = float64(pushNs) / float64(out.rows)
	m["stream.push_p99_ms"], _ = tailPercentile(pushMs, 0.99)
	m["stream.snapshot_ms_p50"] = median(snapMs)
	m["stream.finish_ms"] = median(finishMs)
	m["stream.checkpoint_bytes_per_input_byte"] = median(ckptShare)
	m["stream.backpressure_events"] = median(backpressure)

	seals, err := s.sealTimes(e.budget(0.2), rec)
	if err != nil {
		return nil, err
	}
	m["stream.seal_ms_p50"] = median(seals)

	var resumes []float64
	for i := 0; i < 3; i++ {
		d, err := s.resumeCheck(tracer)
		if err != nil {
			return nil, fmt.Errorf("resume check: %w", err)
		}
		resumes = append(resumes, msOf(d))
	}
	m["stream.resume_ms"] = median(resumes)

	// Checkpoint epochs go through the same block codec as spill files.
	if err := codecLoop(e.budget(0.15), rec, m, s.e.tmp, "checkpoint", s.orc.keys); err != nil {
		return nil, err
	}
	return m, nil
}
