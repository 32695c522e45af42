package bench

import (
	"testing"
	"time"
)

func TestElementTime(t *testing.T) {
	// 1 second, 2 workers, 1e6 elements, 2 columns → 1e9·2/1e6/2 = 1000 ns.
	got := ElementTime(time.Second, 2, 1_000_000, 2)
	if got != 1000 {
		t.Fatalf("ElementTime = %v, want 1000", got)
	}
	if ElementTime(time.Second, 2, 0, 1) != 0 {
		t.Fatal("zero rows should yield 0")
	}
	if ElementTime(time.Second, 0, 100, 1) != ElementTime(time.Second, 1, 100, 1) {
		t.Fatal("workers<1 should clamp to 1")
	}
}
