package hashfn

import (
	"testing"

	"cacheagg/internal/xrand"
)

// TestMurmur2InverseRoundTrip checks the inverse both ways, scalar and
// batched, on the edge keys and 2^20 seeded ones: Murmur2Inverse undoes
// Murmur2, Murmur2 undoes Murmur2Inverse, and InverseBatch agrees with the
// scalar inverse at every unroll boundary.
func TestMurmur2InverseRoundTrip(t *testing.T) {
	keys := []uint64{0, 1, 1 << 63, ^uint64(0)}
	rng := xrand.NewXoshiro256(11)
	for range 1 << 20 {
		keys = append(keys, rng.Next())
	}
	for _, k := range keys {
		if got := Murmur2Inverse(Murmur2(k)); got != k {
			t.Fatalf("Murmur2Inverse(Murmur2(%#x)) = %#x", k, got)
		}
		if got := Murmur2(Murmur2Inverse(k)); got != k {
			t.Fatalf("Murmur2(Murmur2Inverse(%#x)) = %#x", k, got)
		}
	}
	hashes := make([]uint64, len(keys))
	HashBatch(keys, hashes)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, len(keys)} {
		out := make([]uint64, n)
		InverseBatch(hashes[:n], out)
		for i := range out {
			if out[i] != keys[i] {
				t.Fatalf("n=%d: InverseBatch row %d = %#x, want %#x", n, i, out[i], keys[i])
			}
		}
	}
}

// TestInverseBatchAllocFree pins the kernel as allocation-free.
func TestInverseBatchAllocFree(t *testing.T) {
	hashes := make([]uint64, 4096)
	out := make([]uint64, 4096)
	if avg := testing.AllocsPerRun(10, func() { InverseBatch(hashes, out) }); avg != 0 {
		t.Fatalf("InverseBatch allocates %.1f objects per call, want 0", avg)
	}
}

func FuzzMurmur2Inverse(f *testing.F) {
	for _, k := range []uint64{0, 1, 1 << 63, ^uint64(0), Murmur2Seed} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, k uint64) {
		if got := Murmur2Inverse(Murmur2(k)); got != k {
			t.Fatalf("Murmur2Inverse(Murmur2(%#x)) = %#x", k, got)
		}
		if got := Murmur2(Murmur2Inverse(k)); got != k {
			t.Fatalf("Murmur2(Murmur2Inverse(%#x)) = %#x", k, got)
		}
		var in, out [5]uint64
		for i := range in {
			in[i] = Murmur2(k + uint64(i))
		}
		InverseBatch(in[:], out[:])
		for i, got := range out {
			if got != k+uint64(i) {
				t.Fatalf("InverseBatch row %d = %#x, want %#x", i, got, k+uint64(i))
			}
		}
	})
}

func BenchmarkMurmur2Inverse(b *testing.B) {
	hashes := make([]uint64, 4096)
	out := make([]uint64, 4096)
	HashBatch(hashes, hashes)
	b.SetBytes(8 * int64(len(hashes)))
	for i := 0; i < b.N; i++ {
		InverseBatch(hashes, out)
	}
}
