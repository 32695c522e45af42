package hashfn

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"cacheagg/internal/xrand"
)

// orderSizes straddle the insertion-sort limit, the switch from the small
// count array to the wide one (a 9-bit digit from 512 rows) and the
// digit widths around 2^11.
var orderSizes = []int{0, 1, 2, 31, 32, 33, 511, 512, 2047, 2048, 2049, 65536}

// distinctHashes returns n distinct hashes from next, or fewer when next
// cannot produce n distinct values within a few tries per row.
func distinctHashes(n int, next func() uint64) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for tries := 0; len(out) < n && tries < 4*n+16; tries++ {
		if h := next(); !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// orderFamilies builds the hash sets Order is checked on. Every family
// but the prefixed ones is n distinct hashes; a shared prefix of p bits
// leaves room for at most 2^(64-p).
func orderFamilies(n int, seed uint64) map[string][]uint64 {
	rng := xrand.NewXoshiro256(seed)
	fam := map[string][]uint64{
		"murmur2": distinctHashes(n, func() uint64 { return Murmur2(rng.Next()) }),
	}
	for _, p := range []int{8, 16, 56, 63} {
		prefix := rng.Next() >> (64 - p) << (64 - p)
		low := uint64(1)<<(64-p) - 1
		fam[fmt.Sprintf("prefix%d", p)] = distinctHashes(min(n, int(low)+1), func() uint64 { return prefix | rng.Next()&low })
	}
	sorted := distinctHashes(n, func() uint64 { return Murmur2(rng.Next()) })
	slices.Sort(sorted)
	fam["sorted"] = sorted
	fam["reversed"] = slices.Clone(sorted)
	slices.Reverse(fam["reversed"])
	fam["crowded"] = crowdedHashes(n, seed)
	return fam
}

// crowdedHashes returns n distinct hashes that split on their top bit and
// share the 16 bits after it, so each half of them lands in one digit of
// Order's counting pass. They are the hashes of keys found through
// Murmur2Inverse: an input can be crafted to produce them.
func crowdedHashes(n int, seed uint64) []uint64 {
	rng := xrand.NewXoshiro256(seed)
	const crowd = uint64(0xbeef) << 47
	hs := distinctHashes(n, func() uint64 { return crowd | rng.Next()&(1<<47-1) })
	for i := range hs {
		hs[i] |= uint64(i&1) << 63
		hs[i] = Murmur2(Murmur2Inverse(hs[i]))
	}
	return hs
}

// indexOrder is the comparison sort Order replaces: an index permutation
// sorted by hash.
func indexOrder(hashes []uint64) []int32 {
	perm := make([]int32, len(hashes))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(hashes[a], hashes[b]) })
	return perm
}

func TestOrderMatchesSort(t *testing.T) {
	for _, n := range orderSizes {
		for name, hs := range orderFamilies(n, uint64(n)+1) {
			// A perm longer than the hashes is allowed; its tail is left alone.
			perm := make([]int32, len(hs)+3)
			perm[len(hs)] = -7
			fallbacks := Order(hs, perm)
			if want := indexOrder(hs); !slices.Equal(perm[:len(hs)], want) {
				t.Fatalf("n=%d %s (%d hashes): Order differs from the index sort", n, name, len(hs))
			}
			sorted := make([]uint64, len(hs))
			Gather(sorted, hs, perm[:len(hs)])
			if !slices.IsSorted(sorted) {
				t.Fatalf("n=%d %s: Gather through Order's permutation is not sorted", n, name)
			}
			if perm[len(hs)] != -7 {
				t.Fatalf("n=%d %s: Order wrote past the hashes", n, name)
			}
			if name == "crowded" && n > 2*orderRunRows && fallbacks == 0 {
				t.Fatalf("n=%d: crowded digits did not take the comparison sort", n)
			}
		}
	}
}

func TestOrderAllocFree(t *testing.T) {
	for _, n := range []int{32, 2048, 65536} {
		for _, name := range []string{"murmur2", "crowded"} {
			hs := orderFamilies(n, 5)[name]
			perm := make([]int32, n)
			if avg := testing.AllocsPerRun(5, func() { Order(hs, perm) }); avg != 0 {
				t.Fatalf("n=%d %s: Order allocates %.1f objects per call, want 0", n, name, avg)
			}
		}
	}
}

func FuzzOrder(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(3))
	f.Add(make([]byte, 64*8), uint8(60))
	f.Fuzz(func(t *testing.T, raw []byte, shared uint8) {
		// Each 8 bytes are one hash; the top shared%64 bits of every hash
		// are those of the first, to reach the prefix skip and the narrow
		// digits. Duplicates are dropped: Order takes distinct hashes.
		p := uint(shared % 64)
		keep := ^uint64(0) >> p
		var hs []uint64
		seen := map[uint64]bool{}
		for i := 0; i+8 <= len(raw); i += 8 {
			h := uint64(raw[i]) | uint64(raw[i+1])<<8 | uint64(raw[i+2])<<16 | uint64(raw[i+3])<<24 |
				uint64(raw[i+4])<<32 | uint64(raw[i+5])<<40 | uint64(raw[i+6])<<48 | uint64(raw[i+7])<<56
			if len(hs) > 0 {
				h = hs[0]&^keep | h&keep
			}
			if !seen[h] {
				seen[h] = true
				hs = append(hs, h)
			}
		}
		perm := make([]int32, len(hs))
		Order(hs, perm)
		if want := indexOrder(hs); !slices.Equal(perm, want) {
			t.Fatalf("%d hashes sharing %d bits: Order differs from the index sort", len(hs), p)
		}
	})
}

// BenchmarkOrder prices Order against the index sort it replaced
// (sortfunc), on Murmur2 hashes and on the crowded hashes that force the
// comparison-sort fallback. At 128 rows, where Order counts on its small
// array, it also runs the counting pass on the wide array alone (wide):
//
//	go test -run '^$' -bench Order ./internal/hashfn
func BenchmarkOrder(b *testing.B) {
	for _, n := range []int{128, 1024, 4096, 65536} {
		hs := orderFamilies(n, 9)["murmur2"]
		crowded := crowdedHashes(n, 9)
		perm := make([]int32, n)
		run := func(name string, fn func()) {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
		run("order", func() { Order(hs, perm) })
		run("crowded", func() { Order(crowded, perm) })
		if n == 128 {
			run("wide", func() {
				k, shift := orderDigit(hs)
				orderWide(hs, perm, k, shift)
			})
		}
		run("sortfunc", func() {
			for i := range perm {
				perm[i] = int32(i)
			}
			slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(hs[a], hs[b]) })
		})
	}
}
