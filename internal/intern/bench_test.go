package intern

import (
	"fmt"
	"testing"
)

// The steady-state benchmarks price the interning cost described in
// docs/PERFORMANCE.md: ns/row for already-interned keys (the hot path during a long
// aggregation) and for first-appearance inserts (dictionary build).

func benchColumns(n, distinct int) []Column {
	u := make([]uint64, n)
	s := make([]string, n)
	for i := range u {
		k := i % distinct
		u[i] = uint64(k)
		s[i] = fmt.Sprintf("https://bench.example/item/%d", k)
	}
	return []Column{{U64: u}, {Str: s}}
}

func BenchmarkEncodeColumnsSteadyState(b *testing.B) {
	const n = 8192
	cols := benchColumns(n, 4096)
	it := New()
	enc := it.NewEncoder()
	ids := make([]uint64, n)
	if err := enc.EncodeColumns(cols, ids); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeColumns(cols, ids); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

func BenchmarkEncodeColumnsStringOnly(b *testing.B) {
	const n = 8192
	cols := benchColumns(n, 4096)[1:2]
	it := New()
	enc := it.NewEncoder()
	ids := make([]uint64, n)
	if err := enc.EncodeColumns(cols, ids); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeColumns(cols, ids); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

func BenchmarkEncodeColumnsInsert(b *testing.B) {
	const n = 8192
	cols := benchColumns(n, n) // every key distinct within a batch
	ids := make([]uint64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := New()
		enc := it.NewEncoder()
		if err := enc.EncodeColumns(cols, ids); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

func BenchmarkDecodeColumns(b *testing.B) {
	const n = 4096
	cols := benchColumns(n, n)
	it := New()
	enc := it.NewEncoder()
	ids := make([]uint64, n)
	if err := enc.EncodeColumns(cols, ids); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeColumns(ids, []ColType{U64Col, StrCol}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}
