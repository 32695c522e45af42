package hashfn

import (
	"cmp"
	"math/bits"
	"slices"
)

// Hash order is the output order of a partitioned run: the buckets are
// ordered by their top digits, so sorting the rows by hash is one more
// partitioning pass on the digits below. Order is that pass in miniature:
// it skips the bits every hash shares, makes one counting pass (count,
// then place) on the next k bits, with 2^k about the row count, and
// finishes each digit's few rows by insertion sort. Uniform hashes leave
// one or two rows per digit, so the expected cost is linear. The digit is
// at most orderMaxBits wide, so above about 2^19 rows the digits hold
// more than orderRunRows each and take the comparison sort: the cost
// grows as n log(n/2^orderMaxBits) there.

const (
	// orderRunRows is the most rows a digit may hold and still be
	// finished by insertion sort. A fuller digit, which uniform hashes
	// almost never produce but crafted ones can, takes a comparison
	// sort, so the worst case stays O(n log n).
	orderRunRows = 32
	// orderSmallBits and orderMaxBits bound the digit of the counting
	// pass. The count array lives on the stack: 1 KiB up to
	// orderSmallBits, else 64 KiB. Zeroing the wide array nearly doubles the
	// cost of a 128-row call (docs/PERFORMANCE.md, "Hash order by one
	// counting pass"), and a spilled run's chunks are about that size.
	orderSmallBits = 8
	orderMaxBits   = 14
)

// Order writes into perm the permutation that sorts hashes ascending:
// hashes[perm[0]] < hashes[perm[1]] < ... perm must be at least as long
// as hashes, and the hashes should be distinct, as the hashes of distinct
// groups are: equal hashes are sorted too, but more than orderRunRows of
// them crowd one digit and take the comparison sort. It returns the
// number of digits that took the comparison sort, and allocates nothing.
func Order(hashes []uint64, perm []int32) int {
	n := len(hashes)
	perm = perm[:n]
	if n <= orderRunRows {
		for i := range perm {
			perm[i] = int32(i)
		}
		insertionOrder(hashes, perm)
		return 0
	}
	k, shift := orderDigit(hashes)
	if k <= orderSmallBits {
		var counts [1<<orderSmallBits + 1]int32
		return orderPass(hashes, perm, counts[:1<<k+1], shift)
	}
	return orderWide(hashes, perm, k, shift)
}

// orderDigit returns the width k and the shift of the counting pass's
// digit: the k bits below those every hash shares, with 2^k about the
// row count.
func orderDigit(hashes []uint64) (k int, shift uint) {
	var diff uint64
	h0 := hashes[0]
	for _, h := range hashes {
		diff |= h ^ h0
	}
	// The top shared bits carry no order; the digit starts below them.
	free := 64 - bits.LeadingZeros64(diff)
	k = min(bits.Len(uint(len(hashes)))-1, free, orderMaxBits)
	return k, uint(free - k)
}

// orderWide is Order's counting pass over a digit wider than
// orderSmallBits, kept out of Order so only inputs that need the wide
// count array have it in their frame.
//
//go:noinline
func orderWide(hashes []uint64, perm []int32, k int, shift uint) int {
	var counts [1<<orderMaxBits + 1]int32
	return orderPass(hashes, perm, counts[:1<<k+1], shift)
}

// orderPass places every row by the digit hashes[i]>>shift, which takes
// len(counts)-1 values, then sorts each digit's rows. counts must be
// zero. It returns the number of digits that took the comparison sort.
func orderPass(hashes []uint64, perm []int32, counts []int32, shift uint) int {
	mask := uint64(len(counts) - 2)
	for _, h := range hashes {
		counts[h>>shift&mask+1]++
	}
	for d := 1; d < len(counts); d++ {
		counts[d] += counts[d-1]
	}
	// counts[d] is now where digit d starts; placing advances it to
	// where digit d ends, which is where digit d+1 starts.
	for i, h := range hashes {
		d := h >> shift & mask
		perm[counts[d]] = int32(i)
		counts[d]++
	}
	// Digits follow one another in order, so one insertion sort over
	// every row finishes each digit without crossing into the next; a
	// crowded digit is sorted first and costs it one compare a row.
	fallbacks := 0
	lo := int32(0)
	for _, hi := range counts[:len(counts)-1] {
		if hi-lo > orderRunRows {
			fallbacks++
			slices.SortFunc(perm[lo:hi], func(a, b int32) int { return cmp.Compare(hashes[a], hashes[b]) })
		}
		lo = hi
	}
	insertionOrder(hashes, perm)
	return fallbacks
}

// insertionOrder sorts the rows of perm by their hashes. last is the
// largest hash sorted so far, so a row already in place costs one load.
func insertionOrder(hashes []uint64, perm []int32) {
	if len(perm) == 0 {
		return
	}
	last := hashes[perm[0]]
	for i := 1; i < len(perm); i++ {
		r := perm[i]
		h := hashes[r]
		if h >= last {
			last = h
			continue
		}
		j := i
		for ; j > 0 && hashes[perm[j-1]] > h; j-- {
			perm[j] = perm[j-1]
		}
		perm[j] = r
	}
}

// Gather copies src[idx[i]] into dst[i] for every i: it applies a
// permutation such as Order's, or a list of slots, to one column. dst
// must be at least as long as idx.
func Gather(dst, src []uint64, idx []int32) {
	dst = dst[:len(idx)]
	for i, s := range idx {
		dst[i] = src[s]
	}
}
