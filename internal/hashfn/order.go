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
// one or two rows per digit, so the expected cost is linear. So do copies
// of them, as a bucket of unaggregated rows holds: the copies of one hash
// share a digit, and a digit crowded by the copies of a few hashes is
// split one hash at a time, a pass over its rows each. The digit is at
// most orderMaxBits wide, so above about 2^19 distinct hashes the digits
// hold more than orderRunRows each and take the comparison sort: the cost
// grows as n log(n/2^orderMaxBits) there.

const (
	// orderRunRows is the most rows a digit may hold and still be
	// finished by insertion sort.
	orderRunRows = 32
	// orderPivots bounds the three-way partitions that split a fuller
	// digit: one per hash, down to sides of orderRunRows rows. A digit
	// that still has a fuller side after orderPivots of them holds many
	// hashes, which uniform hashes almost never produce but crafted ones
	// can; that side takes a comparison sort, so the worst case stays
	// O(n log n).
	orderPivots = 4
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
// as hashes. Hashes may repeat: the copies of one hash end up adjacent, in
// an unspecified order among themselves. Repeats keep the cost linear in
// expectation: a digit they crowd costs a pass per hash it holds, and only
// one of more than orderPivots hashes takes the comparison sort. It
// returns the number of comparison sorts taken, and allocates nothing.
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
		var counts [1 << orderSmallBits]int32
		return orderPass(hashes, perm, counts[:1<<k], shift)
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
	var counts [1 << orderMaxBits]int32
	return orderPass(hashes, perm, counts[:1<<k], shift)
}

// orderPass places every row by the digit hashes[i]>>shift, which takes
// len(counts) values, then sorts each digit's rows. counts must be zero.
// It returns the number of comparison sorts taken.
func orderPass(hashes []uint64, perm []int32, counts []int32, shift uint) int {
	mask := uint64(len(counts) - 1)
	for _, h := range hashes {
		counts[h>>shift&mask]++
	}
	// counts[d] becomes where digit d starts; placing advances it to
	// where digit d ends, which is where digit d+1 starts.
	start := int32(0)
	for d, c := range counts {
		counts[d] = start
		start += c
	}
	for i, h := range hashes {
		d := h >> shift & mask
		perm[counts[d]] = int32(i)
		counts[d]++
	}
	// Digits follow one another in order, so one insertion sort over
	// every row finishes each digit without crossing into the next; a
	// crowded digit is split first and costs it one compare a row.
	fallbacks := 0
	lo := int32(0)
	for _, hi := range counts {
		if hi-lo > orderRunRows {
			fallbacks += orderCrowded(hashes, perm[lo:hi], orderPivots)
		}
		lo = hi
	}
	insertionOrder(hashes, perm)
	return fallbacks
}

// orderCrowded puts the rows of perm in order of their hashes up to sides
// of orderRunRows rows, which the insertion sort finishes. Each step
// splits the rows by the first row's hash into those below it, its
// copies, and those above it, so the copies of a hash cost one pass
// between them. A side still crowded after pivots splits takes the
// comparison sort. It returns the number of comparison sorts taken.
func orderCrowded(hashes []uint64, perm []int32, pivots int) int {
	fallbacks := 0
	for len(perm) > orderRunRows {
		if pivots == 0 {
			slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(hashes[a], hashes[b]) })
			return fallbacks + 1
		}
		pivots--
		below, above := splitByHash(hashes, perm, hashes[perm[0]])
		fallbacks += orderCrowded(hashes, perm[:below], pivots)
		perm = perm[above:]
	}
	return fallbacks
}

// splitByHash reorders the rows of perm into those whose hash is below
// pivot, then its copies, then those above it, and returns where the
// copies start and end.
func splitByHash(hashes []uint64, perm []int32, pivot uint64) (below, above int) {
	i, above := 0, len(perm)
	for i < above {
		r := perm[i]
		switch h := hashes[r]; {
		case h < pivot:
			perm[i], perm[below] = perm[below], r
			below++
			i++
		case h > pivot:
			above--
			perm[i], perm[above] = perm[above], r
		default:
			i++
		}
	}
	return below, above
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
