package hashfn

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
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

// orderAlphas are the copies of each hash in the repeated families: the
// rows of a bucket that no table has aggregated hold each group's hash
// about α times.
var orderAlphas = []int{2, 16, 64}

// orderFamilies builds the hash sets Order is checked on. Every family
// but the prefixed and the repeated ones is n distinct hashes; a shared
// prefix of p bits leaves room for at most 2^(64-p), and alphaA, equal
// and crowded3 are n hashes with about n/A distinct, one distinct and six
// distinct.
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
	for _, a := range orderAlphas {
		fam[fmt.Sprintf("alpha%d", a)] = repeatedHashes(n, a, seed)
	}
	fam["equal"] = repeatedHashes(n, max(n, 1), seed)
	// Copies of three crowded hashes on each side of the top bit: each
	// side's digit holds three hashes, the split's case.
	fam["crowded3"] = copiesOf(crowdedHashes(6, seed), n, (n+5)/6, seed)
	return fam
}

// repeatedHashes returns n hashes in random order, ⌈n/alpha⌉ distinct
// ones each repeated alpha times (the last fewer).
func repeatedHashes(n, alpha int, seed uint64) []uint64 {
	rng := xrand.NewXoshiro256(seed)
	return copiesOf(distinctHashes((n+alpha-1)/alpha, func() uint64 { return Murmur2(rng.Next()) }), n, alpha, seed)
}

// copiesOf returns n hashes in random order, alpha copies of each of
// distinct in turn.
func copiesOf(distinct []uint64, n, alpha int, seed uint64) []uint64 {
	rng := xrand.NewXoshiro256(seed)
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = distinct[i/alpha]
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.Next() % uint64(i+1))
		hs[i], hs[j] = hs[j], hs[i]
	}
	return hs
}

// checkOrder fails unless perm[:len(hashes)] is a permutation of the rows
// that puts their hashes in ascending order. The order among copies of
// one hash is unspecified, so for distinct hashes this is the index sort's
// permutation and no other.
func checkOrder(t testing.TB, hashes []uint64, perm []int32, what string) {
	t.Helper()
	n := len(hashes)
	seen := make([]bool, n)
	for _, r := range perm[:n] {
		if r < 0 || int(r) >= n || seen[r] {
			t.Fatalf("%s: row %d appears twice or is out of range in Order's permutation", what, r)
		}
		seen[r] = true
	}
	got := make([]uint64, n)
	Gather(got, hashes, perm[:n])
	want := slices.Clone(hashes)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Gather through Order's permutation is not the sorted hashes", what)
	}
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

func TestOrderMatchesSort(t *testing.T) {
	for _, n := range orderSizes {
		for name, hs := range orderFamilies(n, uint64(n)+1) {
			// A perm longer than the hashes is allowed; its tail is left alone.
			perm := make([]int32, len(hs)+3)
			perm[len(hs)] = -7
			fallbacks := Order(hs, perm)
			what := fmt.Sprintf("n=%d %s (%d hashes)", n, name, len(hs))
			checkOrder(t, hs, perm, what)
			if perm[len(hs)] != -7 {
				t.Fatalf("%s: Order wrote past the hashes", what)
			}
			if name == "crowded" && n > 2*orderRunRows && fallbacks == 0 {
				t.Fatalf("n=%d: crowded digits did not take the comparison sort", n)
			}
			// Copies of one hash share a digit, and a digit crowded by the
			// copies of a few hashes is split one hash at a time.
			if (name == "equal" || name == "crowded3" || strings.HasPrefix(name, "alpha")) && fallbacks != 0 {
				t.Fatalf("%s: %d comparison sorts, want none", what, fallbacks)
			}
		}
	}
}

// TestOrderCrowdedSplitsToShortRuns checks what keeps a crowded digit
// linear: its split leaves no row more than orderRunRows places before a
// row it must follow, so the insertion sort finishes it in a few moves a
// row, and a digit of at most orderPivots hashes takes no comparison
// sort.
func TestOrderCrowdedSplitsToShortRuns(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 5, 7, 64} {
		for _, n := range []int{33, 200, 4096} {
			for seed := uint64(1); seed <= 4; seed++ {
				hs := repeatedHashes(n, (n+d-1)/d, seed*uint64(n+d))
				perm := make([]int32, n)
				for i := range perm {
					perm[i] = int32(i)
				}
				fallbacks := orderCrowded(hs, perm, orderPivots)
				what := fmt.Sprintf("%d copies of %d hashes, seed %d", n, d, seed)
				if d <= orderPivots && fallbacks != 0 {
					t.Fatalf("%s: %d comparison sorts, want none", what, fallbacks)
				}
				var most uint64
				for i := 0; i+orderRunRows < n; i++ {
					most = max(most, hs[perm[i]])
					if most > hs[perm[i+orderRunRows]] {
						t.Fatalf("%s: row %d must follow a row more than %d places after it", what, i+orderRunRows, orderRunRows)
					}
				}
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
	// Repeated hashes: about n/alpha distinct ones at the insertion-sort
	// limit and the switch to the wide count array, and all-equal input.
	for _, n := range []int{32, 33, 511, 512} {
		for _, a := range append(slices.Clone(orderAlphas), n) {
			f.Add(hashBytes(repeatedHashes(n, a, uint64(n*a))), uint8(0))
		}
		f.Add(hashBytes(copiesOf(crowdedHashes(6, uint64(n)), n, (n+5)/6, uint64(n))), uint8(0))
	}
	f.Fuzz(func(t *testing.T, raw []byte, shared uint8) {
		// Each 8 bytes are one hash; the top shared%64 bits of every hash
		// are those of the first, to reach the prefix skip and the narrow
		// digits.
		p := uint(shared % 64)
		keep := ^uint64(0) >> p
		var hs []uint64
		for i := 0; i+8 <= len(raw); i += 8 {
			h := uint64(raw[i]) | uint64(raw[i+1])<<8 | uint64(raw[i+2])<<16 | uint64(raw[i+3])<<24 |
				uint64(raw[i+4])<<32 | uint64(raw[i+5])<<40 | uint64(raw[i+6])<<48 | uint64(raw[i+7])<<56
			if len(hs) > 0 {
				h = hs[0]&^keep | h&keep
			}
			hs = append(hs, h)
		}
		perm := make([]int32, len(hs))
		Order(hs, perm)
		checkOrder(t, hs, perm, fmt.Sprintf("%d hashes sharing %d bits", len(hs), p))
	})
}

// hashBytes encodes hashes as FuzzOrder reads them, 8 bytes each, little
// endian.
func hashBytes(hs []uint64) []byte {
	b := make([]byte, 0, 8*len(hs))
	for _, h := range hs {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(h>>s))
		}
	}
	return b
}

// BenchmarkOrder prices Order against the index sort it replaced
// (sortfunc), on Murmur2 hashes, on 16 copies of each (alpha16), and on
// the crowded hashes that force the comparison-sort fallback. At 128 rows, where Order counts on its small
// array, it also runs the counting pass on the wide array alone (wide):
//
//	go test -run '^$' -bench Order ./internal/hashfn
func BenchmarkOrder(b *testing.B) {
	for _, n := range []int{128, 1024, 4096, 65536} {
		hs := orderFamilies(n, 9)["murmur2"]
		crowded := crowdedHashes(n, 9)
		repeated := repeatedHashes(n, 16, 9)
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
		run("alpha16", func() { Order(repeated, perm) })
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
