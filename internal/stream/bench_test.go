package stream

import (
	"context"
	"testing"

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
