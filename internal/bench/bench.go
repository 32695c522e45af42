// Package bench holds the paper's "Element Time" metric (Section 6.1),
// shared by the figure benchmarks and the repository benchmark.
package bench

import "time"

// ElementTime computes the paper's normalized metric (Section 6.1):
//
//	Element Time = T · P / N / C
//
// "the time each core spends to process one element", in nanoseconds per
// element, comparable across thread counts and column counts and against
// machine constants such as the cost of a cache miss.
func ElementTime(total time.Duration, workers, n, cols int) float64 {
	if n <= 0 || cols <= 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	return float64(total.Nanoseconds()) * float64(workers) / float64(n) / float64(cols)
}
