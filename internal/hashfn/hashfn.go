// Package hashfn implements the hash functions used by the aggregation
// framework and its baselines.
//
// The paper (Section 4.1) evaluates "many different hash functions that are
// popular among practitioners" and settles on MurmurHash2 for small elements;
// the prior-work baselines of Section 6.4 originally used multiplicative
// hashing, which the authors replace by MurmurHash2 for the comparison. Both
// are implemented here, along with the digit-extraction helpers that turn a
// 64-bit hash into the successive radix-256 digits consumed by the recursive
// partitioning passes.
package hashfn

// Murmur2Seed is the default seed for Murmur2. Any value works; the
// framework only needs all components to agree on one.
const Murmur2Seed uint64 = 0xc70f6907

// Murmur2 computes MurmurHash64A (Austin Appleby's 64-bit MurmurHash2) of a
// single 64-bit key. This is the specialization for 8-byte inputs of the
// general byte-slice algorithm and matches Murmur2Bytes on the key's
// little-endian encoding.
func Murmur2(key uint64) uint64 {
	const m uint64 = 0xc6a4a7935bd1e995
	const r = 47
	var klen uint64 = 8
	h := Murmur2Seed ^ (klen * m)
	k := key
	k *= m
	k ^= k >> r
	k *= m
	h ^= k
	h *= m
	h ^= h >> r
	h *= m
	h ^= h >> r
	return h
}

// HashBatch computes Murmur2 of every key into out, which must be at least
// as long as keys. This is the morsel-wide hashing kernel of the batched hot
// path: one tight monomorphic loop with the seed/length prefix hoisted out,
// so a whole block of hashes is materialized before any hash-table or
// scatter access touches memory. The loop body is branch-free and each
// iteration is independent, so the hardware can overlap several hashes in
// flight — per-hash cost drops well below the one-at-a-time Murmur2 call.
func HashBatch(keys []uint64, out []uint64) {
	const m uint64 = 0xc6a4a7935bd1e995
	const r = 47
	// Seed ^ (len * m) is loop-invariant for 8-byte keys.
	var klen uint64 = 8
	h0 := Murmur2Seed ^ (klen * m)
	_ = out[:len(keys)] // one bounds check for the whole batch
	i := 0
	for ; i+4 <= len(keys); i += 4 {
		k0, k1, k2, k3 := keys[i], keys[i+1], keys[i+2], keys[i+3]
		k0 *= m
		k1 *= m
		k2 *= m
		k3 *= m
		k0 ^= k0 >> r
		k1 ^= k1 >> r
		k2 ^= k2 >> r
		k3 ^= k3 >> r
		k0 *= m
		k1 *= m
		k2 *= m
		k3 *= m
		h0a := (h0 ^ k0) * m
		h1a := (h0 ^ k1) * m
		h2a := (h0 ^ k2) * m
		h3a := (h0 ^ k3) * m
		h0a ^= h0a >> r
		h1a ^= h1a >> r
		h2a ^= h2a >> r
		h3a ^= h3a >> r
		h0a *= m
		h1a *= m
		h2a *= m
		h3a *= m
		out[i] = h0a ^ h0a>>r
		out[i+1] = h1a ^ h1a>>r
		out[i+2] = h2a ^ h2a>>r
		out[i+3] = h3a ^ h3a>>r
	}
	for ; i < len(keys); i++ {
		k := keys[i] * m
		k ^= k >> r
		k *= m
		h := (h0 ^ k) * m
		h ^= h >> r
		h *= m
		out[i] = h ^ h>>r
	}
}

// murmur2Inv is the multiplicative inverse of Murmur2's constant m modulo
// 2^64: m·murmur2Inv = 1.
const murmur2Inv uint64 = 0x5f7a0ea7e59b19bd

// Murmur2Inverse returns the key whose Murmur2 is h. Murmur2 on one uint64
// is a bijection — every step is an odd multiply, which inverts by the
// inverse constant, an xor with the constant seed prefix, or a 47-bit
// xorshift, which is its own inverse because 2·47 ≥ 64 — so the hash
// carries exactly the information of the key, and the operator keeps the
// hash alone until it emits a group.
func Murmur2Inverse(h uint64) uint64 {
	const m uint64 = 0xc6a4a7935bd1e995
	const r = 47
	var klen uint64 = 8
	h ^= h >> r
	h *= murmur2Inv
	h ^= h >> r
	h *= murmur2Inv
	k := h ^ Murmur2Seed ^ (klen * m)
	k *= murmur2Inv
	k ^= k >> r
	return k * murmur2Inv
}

// InverseBatch computes Murmur2Inverse of every hash into out, which must
// be at least as long as hashes: the batched key recovery of the emit
// path, written like HashBatch (four independent lanes per iteration, the
// seed prefix hoisted out).
func InverseBatch(hashes []uint64, out []uint64) {
	const m uint64 = 0xc6a4a7935bd1e995
	const r = 47
	var klen uint64 = 8
	h0 := Murmur2Seed ^ (klen * m)
	_ = out[:len(hashes)] // one bounds check for the whole batch
	i := 0
	for ; i+4 <= len(hashes); i += 4 {
		x0, x1, x2, x3 := hashes[i], hashes[i+1], hashes[i+2], hashes[i+3]
		x0 ^= x0 >> r
		x1 ^= x1 >> r
		x2 ^= x2 >> r
		x3 ^= x3 >> r
		x0 *= murmur2Inv
		x1 *= murmur2Inv
		x2 *= murmur2Inv
		x3 *= murmur2Inv
		x0 ^= x0 >> r
		x1 ^= x1 >> r
		x2 ^= x2 >> r
		x3 ^= x3 >> r
		k0 := (x0*murmur2Inv ^ h0) * murmur2Inv
		k1 := (x1*murmur2Inv ^ h0) * murmur2Inv
		k2 := (x2*murmur2Inv ^ h0) * murmur2Inv
		k3 := (x3*murmur2Inv ^ h0) * murmur2Inv
		out[i] = (k0 ^ k0>>r) * murmur2Inv
		out[i+1] = (k1 ^ k1>>r) * murmur2Inv
		out[i+2] = (k2 ^ k2>>r) * murmur2Inv
		out[i+3] = (k3 ^ k3>>r) * murmur2Inv
	}
	for ; i < len(hashes); i++ {
		x := hashes[i]
		x ^= x >> r
		x *= murmur2Inv
		x ^= x >> r
		k := (x*murmur2Inv ^ h0) * murmur2Inv
		out[i] = (k ^ k>>r) * murmur2Inv
	}
}

// Murmur2WithSeed is Murmur2 with an explicit seed, used where independent
// hash functions are needed (e.g. tests of collision behaviour).
func Murmur2WithSeed(key, seed uint64) uint64 {
	const m uint64 = 0xc6a4a7935bd1e995
	const r = 47
	var klen uint64 = 8
	h := seed ^ (klen * m)
	k := key
	k *= m
	k ^= k >> r
	k *= m
	h ^= k
	h *= m
	h ^= h >> r
	h *= m
	h ^= h >> r
	return h
}

// Murmur2Bytes computes MurmurHash64A over an arbitrary byte slice with the
// default seed. It is provided for completeness (string grouping keys) and
// for cross-checking Murmur2 against the reference algorithm.
func Murmur2Bytes(data []byte) uint64 {
	const m uint64 = 0xc6a4a7935bd1e995
	const r = 47
	h := Murmur2Seed ^ (uint64(len(data)) * m)

	n := len(data) / 8 * 8
	for i := 0; i < n; i += 8 {
		k := uint64(data[i]) | uint64(data[i+1])<<8 | uint64(data[i+2])<<16 |
			uint64(data[i+3])<<24 | uint64(data[i+4])<<32 | uint64(data[i+5])<<40 |
			uint64(data[i+6])<<48 | uint64(data[i+7])<<56
		k *= m
		k ^= k >> r
		k *= m
		h ^= k
		h *= m
	}

	tail := data[n:]
	switch len(tail) {
	case 7:
		h ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		h ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		h ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		h ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		h ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		h ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		h ^= uint64(tail[0])
		h *= m
	}

	h ^= h >> r
	h *= m
	h ^= h >> r
	return h
}

// Murmur2String computes MurmurHash64A over the bytes of a string with the
// default seed, identical to Murmur2Bytes on the string's byte content but
// without the []byte conversion (and its allocation) — the form the key
// interning layer hashes string grouping keys with on its zero-alloc
// steady-state path.
func Murmur2String(s string) uint64 {
	const m uint64 = 0xc6a4a7935bd1e995
	const r = 47
	h := Murmur2Seed ^ (uint64(len(s)) * m)

	n := len(s) / 8 * 8
	for i := 0; i < n; i += 8 {
		k := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 |
			uint64(s[i+3])<<24 | uint64(s[i+4])<<32 | uint64(s[i+5])<<40 |
			uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		k *= m
		k ^= k >> r
		k *= m
		h ^= k
		h *= m
	}

	tail := s[n:]
	switch len(tail) {
	case 7:
		h ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		h ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		h ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		h ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		h ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		h ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		h ^= uint64(tail[0])
		h *= m
	}

	h ^= h >> r
	h *= m
	h ^= h >> r
	return h
}

// Multiplicative is Fibonacci (multiplicative) hashing: key times the 64-bit
// golden-ratio constant. This is the hash the prior-work implementations of
// Section 6.4 used before the authors switched them to MurmurHash2. It is
// cheaper than Murmur2 but offers no avalanche in the low bits, which is
// exactly why the paper replaced it.
func Multiplicative(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15
}

// Identity returns the key unchanged. Partitioning "by key" (the `key`
// variant of Figure 3) is partitioning by the digits of Identity.
func Identity(key uint64) uint64 { return key }

// Func is a 64-bit hash function over 64-bit keys.
type Func func(uint64) uint64

// DigitBits is the number of hash bits consumed per recursion level.
// 2^DigitBits = 256 is the partitioning fan-out the paper found optimal for
// software write-combining (Section 4.2).
const DigitBits = 8

// Fanout is the partitioning fan-out, i.e. the number of buckets produced
// per pass.
const Fanout = 1 << DigitBits

// MaxLevels is the number of radix-256 digits available in a 64-bit hash.
// Recursion deeper than this is impossible; the framework treats it as a
// hard error because it would mean the hash failed to separate groups.
const MaxLevels = 64 / DigitBits

// Digit extracts the radix-256 digit of h for recursion level d.
// Level 0 uses the most significant 8 bits so that the concatenation of
// buckets in bucket order is sorted by hash value — this is what makes the
// final output "a hash table built by a sorting algorithm" (Section 3.1).
func Digit(h uint64, level int) int {
	return int(h >> (64 - DigitBits*(level+1)) & (Fanout - 1))
}

// Prefix returns the bucket path of h down to (and including) level, i.e.
// the (level+1)*8 most significant bits. Two rows are in the same bucket at
// depth level iff their Prefixes are equal.
func Prefix(h uint64, level int) uint64 {
	return h >> (64 - DigitBits*(level+1))
}
