package stream

import (
	"context"
	"testing"
	"time"

	"cacheagg/internal/datagen"
)

// BenchmarkFold measures the stream's fold end to end inside one session:
// 2^20 rows pushed in 4096-row blocks at the default epoch size (so the
// figure includes four epoch seals), NoSync, all five aggregate kinds. The
// Checkpoint at the end waits for the queue to drain. ns/row is the
// session's wall time per pushed row.
//
//	go test -run '^$' -bench Fold -benchmem ./internal/stream
func BenchmarkFold(b *testing.B) {
	const rows, blockRows = 1 << 20, 4096
	for _, in := range []struct {
		name string
		spec datagen.Spec
	}{
		{"sorted", datagen.Spec{Dist: datagen.Sorted, K: 1 << 16}},
		{"zipf", datagen.Spec{Dist: datagen.Zipf, K: 1 << 16}},
		{"uniform_small", datagen.Spec{Dist: datagen.Uniform, K: 1 << 10}},
		{"uniform_big", datagen.Spec{Dist: datagen.Uniform, K: 1 << 18}},
	} {
		b.Run(in.name, func(b *testing.B) {
			in.spec.N, in.spec.Seed = rows, 1
			keys := datagen.Generate(in.spec)
			cols := [][]int64{make([]int64, rows), make([]int64, rows)}
			for i := range keys {
				cols[0][i] = int64(keys[i]%2001) - 1000
				cols[1][i] = int64(i % 977)
			}
			var blocks []Block
			for lo := 0; lo < rows; lo += blockRows {
				hi := lo + blockRows
				blocks = append(blocks, Block{Keys: keys[lo:hi], Cols: [][]int64{cols[0][lo:hi], cols[1][lo:hi]}})
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := Begin(Options{Dir: b.TempDir(), Specs: allSpecs, NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				for _, blk := range blocks {
					if err := a.Push(ctx, blk); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := a.Checkpoint(ctx); err != nil {
					b.Fatal(err)
				}
				if err := a.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkSnapshot measures the snapshot merge at stream_ingest's shape:
// 2^18-row zipf epochs over 2^16 keys pushed in 4096-row blocks, a
// whole-stream Snapshot after 4 sealed epochs and Finish after 8, NoSync,
// all five aggregate kinds. Only Snapshot and Finish are timed (and counted
// by -benchmem); each Checkpoint before them drains the queue, so neither
// includes a fold. snap_ms and finish_ms are per session.
//
//	go test -run '^$' -bench Snapshot -benchmem ./internal/stream
func BenchmarkSnapshot(b *testing.B) {
	const rows, blockRows = 1 << 18, 4096
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Zipf, N: rows, K: 1 << 16, Seed: 1})
	cols := [][]int64{make([]int64, rows), make([]int64, rows)}
	for i := range keys {
		cols[0][i] = int64(keys[i]%2001) - 1000
		cols[1][i] = int64(i % 977)
	}
	var blocks []Block
	for lo := 0; lo < rows; lo += blockRows {
		hi := lo + blockRows
		blocks = append(blocks, Block{Keys: keys[lo:hi], Cols: [][]int64{cols[0][lo:hi], cols[1][lo:hi]}})
	}
	ctx := context.Background()
	pushEpochs := func(a *Aggregator, n int) {
		for e := 0; e < n; e++ {
			for _, blk := range blocks {
				if err := a.Push(ctx, blk); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := a.Checkpoint(ctx); err != nil {
			b.Fatal(err)
		}
	}
	var snap, finish time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := Begin(Options{Dir: b.TempDir(), Specs: allSpecs, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		pushEpochs(a, 4)
		b.StartTimer()
		t := time.Now()
		if _, err := a.Snapshot(ctx, 0); err != nil {
			b.Fatal(err)
		}
		snap += time.Since(t)
		b.StopTimer()
		pushEpochs(a, 4)
		b.StartTimer()
		t = time.Now()
		if _, err := a.Finish(ctx); err != nil {
			b.Fatal(err)
		}
		finish += time.Since(t)
	}
	b.ReportMetric(float64(snap)/float64(time.Millisecond)/float64(b.N), "snap_ms")
	b.ReportMetric(float64(finish)/float64(time.Millisecond)/float64(b.N), "finish_ms")
}
