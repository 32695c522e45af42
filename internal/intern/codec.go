// Package intern reduces arbitrary grouping keys — strings, composite
// multi-column tuples, NULLs — to 64-bit integers, so any GROUP BY runs in
// the all-64-bit-integer setting the operator is built for (the paper's
// Section 6.1) and the batched kernels, spill codec, routine selection and
// merge stay untouched.
//
// Three layers:
//
//   - First occurrences (firstrows.go): the query path. Every row maps to
//     the smallest row holding an equal key: rows hash in parallel, and
//     one dedupe table compares column values directly. No
//     key is serialized and no dictionary is built; the caller gathers
//     the result's keys from its input at the groups' first rows.
//   - The varlen key codec (this file): a canonical, self-delimiting byte
//     encoding of one logical key — a sequence of tagged column values.
//     Canonical means encode∘decode and decode∘encode are both fixed
//     points, which is what lets the dictionary use plain byte equality
//     as key identity and what FuzzInternRoundTrip pins.
//   - The Interner (intern.go): a sharded concurrent dictionary from
//     encoded key bytes to dense ids, with lock-free reads on the hot
//     path and append-only slab storage for key bytes. It backs the
//     dictionaries that must outlive one query: a shared
//     Options.Interner, serve's general-key datasets and the durable
//     ingest dictionary.
package intern

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrMalformed is wrapped by every decode error: truncated payloads,
// unknown tags, non-minimal varints, trailing garbage. Malformed input is
// a caller bug or corrupted storage, never a panic.
var ErrMalformed = errors.New("intern: malformed key encoding")

// ValueKind tags one column value inside an encoded key.
type ValueKind uint8

const (
	// NullValue is SQL NULL. For grouping, NULL equals NULL (the GROUP BY
	// convention), so all-NULL rows collapse into one group.
	NullValue ValueKind = iota
	// U64Value is a 64-bit unsigned integer column value.
	U64Value
	// StrValue is a variable-length string (or raw bytes) column value.
	StrValue
)

// Wire tags. A key is the concatenation of one tagged value per column:
//
//	0x00                    NULL
//	0x01 <8 bytes LE>       uint64
//	0x02 <uvarint n> <n b>  string/bytes
//
// The uvarint length must be minimally encoded; decoders reject padded
// forms so every valid key has exactly one byte representation.
const (
	tagNull  = 0x00
	tagU64   = 0x01
	tagBytes = 0x02
)

// Value is one decoded (or to-be-encoded) column value.
type Value struct {
	// Kind selects which of the fields below is meaningful.
	Kind ValueKind
	// U64 is the value for U64Value.
	U64 uint64
	// Str is the value for StrValue. Using string (not []byte) keeps the
	// encode path free of conversions and allocations.
	Str string
}

// AppendValue appends the canonical encoding of v to dst.
func AppendValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case NullValue:
		return append(dst, tagNull)
	case U64Value:
		var b [9]byte
		b[0] = tagU64
		binary.LittleEndian.PutUint64(b[1:], v.U64)
		return append(dst, b[:]...)
	case StrValue:
		dst = append(dst, tagBytes)
		dst = appendUvarint(dst, uint64(len(v.Str)))
		return append(dst, v.Str...)
	default:
		panic(fmt.Sprintf("intern: invalid ValueKind %d", v.Kind))
	}
}

// appendUvarint appends the minimal unsigned LEB128 encoding of x.
func appendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// uvarint decodes a minimally-encoded unsigned LEB128 value, returning the
// value and the number of bytes consumed. Non-minimal encodings (a padded
// continuation ending in a redundant zero byte) and truncated or
// overflowing inputs are malformed — canonicality is what makes byte
// equality usable as key identity.
func uvarint(b []byte) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if i == 9 && c > 1 {
			return 0, 0, fmt.Errorf("%w: uvarint overflows 64 bits", ErrMalformed)
		}
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, 0, fmt.Errorf("%w: non-minimal uvarint", ErrMalformed)
			}
			return x | uint64(c)<<s, i + 1, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
		if i == 9 {
			return 0, 0, fmt.Errorf("%w: uvarint longer than 10 bytes", ErrMalformed)
		}
	}
	return 0, 0, fmt.Errorf("%w: truncated uvarint", ErrMalformed)
}

// splitValue decodes one tagged value from the front of b without
// copying: a string's payload comes back as str, a subslice of b. n is the
// number of bytes consumed.
func splitValue(b []byte) (kind ValueKind, u64 uint64, str []byte, n int, err error) {
	if len(b) == 0 {
		return 0, 0, nil, 0, fmt.Errorf("%w: empty value", ErrMalformed)
	}
	switch b[0] {
	case tagNull:
		return NullValue, 0, nil, 1, nil
	case tagU64:
		if len(b) < 9 {
			return 0, 0, nil, 0, fmt.Errorf("%w: truncated uint64 value", ErrMalformed)
		}
		return U64Value, binary.LittleEndian.Uint64(b[1:9]), nil, 9, nil
	case tagBytes:
		l, consumed, err := uvarint(b[1:])
		if err != nil {
			return 0, 0, nil, 0, err
		}
		start := 1 + consumed
		if uint64(len(b)-start) < l {
			return 0, 0, nil, 0, fmt.Errorf("%w: string value of %d bytes truncated", ErrMalformed, l)
		}
		end := start + int(l)
		return StrValue, 0, b[start:end], end, nil
	default:
		return 0, 0, nil, 0, fmt.Errorf("%w: unknown value tag %#02x", ErrMalformed, b[0])
	}
}

// decodeValue decodes one tagged value from the front of b, returning the
// bytes consumed. The Str field of a decoded StrValue is a copy, safe to
// retain after the backing storage changes.
func decodeValue(b []byte) (Value, int, error) {
	kind, u64, str, n, err := splitValue(b)
	if err != nil {
		return Value{}, 0, err
	}
	return Value{Kind: kind, U64: u64, Str: string(str)}, n, nil
}

// DecodeKey decodes a whole encoded key into its column values, appending
// to vals (pass vals[:0] to reuse a scratch slice). Trailing bytes after
// the last value are malformed: a valid key is consumed exactly, so
// decode∘encode is a fixed point.
func DecodeKey(b []byte, vals []Value) ([]Value, error) {
	for len(b) > 0 {
		v, n, err := decodeValue(b)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		b = b[n:]
	}
	return vals, nil
}

// AppendKey appends the canonical encoding of a whole key (one value per
// column) to dst.
func AppendKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = AppendValue(dst, v)
	}
	return dst
}

// EncodedLen returns the total size of the canonical encodings of every
// row of cols — what interning those rows would add to a dictionary that
// holds none of them.
func EncodedLen(cols []Column) int64 {
	var n int64
	for ci := range cols {
		c := &cols[ci]
		for r := 0; r < c.rows(); r++ {
			switch {
			case c.Nulls != nil && c.Nulls[r]:
				n++
			case c.U64 != nil:
				n += 9
			default:
				l := len(c.Str[r])
				n += int64(1 + uvarintLen(uint64(l)) + l)
			}
		}
	}
	return n
}

// uvarintLen is the length of appendUvarint's encoding of x.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}
