package serve

// The JSONL result writer. Every line of a successful result response —
// the /v1/aggregate header, rows and trailer, and the ingest query/finish
// stream — is appended here with strconv into a []byte, without
// reflection. The bytes are exactly what encoding/json prints for the
// same values (jsonl_test.go keeps an encoding/json row encoder as the
// oracle): the same key order, string escaping and float format.

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"cacheagg"
)

const (
	// jsonlChunk is how many bytes a streamed response buffers between
	// writes to the connection.
	jsonlChunk = 32 << 10
	// sizeSample is how many rows a body is written with before it is
	// grown, once, to the size those rows predict for the rest.
	sizeSample = 64
	// rowGuess sizes the buffer for the sample rows.
	rowGuess = 64
)

// jsonlRows is a result as the writer sees it: one row per group.
type jsonlRows struct {
	groups []uint64
	// keys, when non-empty, are the decoded general keys, one column per
	// key part: the row's "k".
	keys []cacheagg.KeyColumn
	aggs [][]int64
	// float, when non-nil, gives the float finalizations: the row's "f".
	float func(a, i int) float64
}

// appendRow appends row i as {"g":…,"k":[…],"a":[…],"f":[…]} and a
// newline. "k", "a" and "f" are left out when empty, as encoding/json's
// omitempty leaves them out. A NaN or infinite float is an error.
func (r *jsonlRows) appendRow(b []byte, i int) ([]byte, error) {
	b = append(b, `{"g":`...)
	b = strconv.AppendUint(b, r.groups[i], 10)
	if len(r.keys) > 0 {
		b = append(b, `,"k":[`...)
		for c := range r.keys {
			if c > 0 {
				b = append(b, ',')
			}
			col := &r.keys[c]
			switch {
			case col.IsNull(i):
				b = append(b, "null"...)
			case col.Uint64s != nil:
				b = strconv.AppendUint(b, col.Uint64s[i], 10)
			default:
				b = appendJSONString(b, col.Strings[i])
			}
		}
		b = append(b, ']')
	}
	if len(r.aggs) > 0 {
		b = append(b, `,"a":[`...)
		for a, col := range r.aggs {
			if a > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, col[i], 10)
		}
		b = append(b, ']')
		if r.float != nil {
			b = append(b, `,"f":[`...)
			for a := range r.aggs {
				if a > 0 {
					b = append(b, ',')
				}
				var err error
				if b, err = appendJSONFloat(b, r.float(a, i)); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
	}
	return append(b, "}\n"...), nil
}

// body renders every row and the trailer into one buffer. The buffer is
// grown once, after sizeSample rows, to what those rows predict plus an
// eighth, so a body costs about one allocation of its own size.
func (r *jsonlRows) body() ([]byte, error) {
	n := len(r.groups)
	b := make([]byte, 0, min(n, sizeSample)*rowGuess+32)
	for i := 0; i < n; i++ {
		if i == sizeSample {
			rest := len(b) * (n - i) / i
			b = slices.Grow(b, rest+rest/8+32)
		}
		var err error
		if b, err = r.appendRow(b, i); err != nil {
			return nil, err
		}
	}
	return appendTrailer(b, n), nil
}

// appendTrailer appends the {"done":true,"rows":N} line.
func appendTrailer(b []byte, rows int) []byte {
	b = append(b, `{"done":true,"rows":`...)
	b = strconv.AppendInt(b, int64(rows), 10)
	return append(b, "}\n"...)
}

// appendHeader appends the /v1/aggregate header line. Its keys are in
// the sorted order encoding/json gave the map it replaces.
func (m responseMeta) appendHeader(b []byte) []byte {
	b = append(b, `{"cache":`...)
	b = appendJSONString(b, m.cache)
	b = append(b, `,"groups":`...)
	b = strconv.AppendInt(b, int64(m.groups), 10)
	if m.mode != "" {
		b = append(b, `,"mode":`...)
		b = appendJSONString(b, m.mode)
	}
	if m.queued {
		b = append(b, `,"queued":true,"wait_ms":`...)
		// A rounded duration is always finite.
		ms := math.Round(float64(m.waited)/float64(time.Millisecond)*1000) / 1000
		b, _ = appendJSONFloat(b, ms)
	}
	return append(b, "}\n"...)
}

// appendStreamHeader appends the ingest query/finish header line, keys
// sorted as in appendHeader.
func appendStreamHeader(b []byte, groups, epochs int, session string) []byte {
	b = append(b, `{"epochs":`...)
	b = strconv.AppendInt(b, int64(epochs), 10)
	b = append(b, `,"groups":`...)
	b = strconv.AppendInt(b, int64(groups), 10)
	b = append(b, `,"session":`...)
	b = appendJSONString(b, session)
	return append(b, "}\n"...)
}

// appendJSONFloat appends f as encoding/json prints a float64: the
// shortest representation that parses back to f, in 'f' format, or in
// 'e' format below 1e-6 and from 1e21 up with a one-digit exponent kept
// short ("1e-07" becomes "1e-7"). Integers below 2^53 in magnitude are
// printed by AppendInt, which gives the same digits faster. NaN and ±Inf
// have no JSON form and are an error.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("unsupported float value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	if abs < 1<<53 {
		// -0 is the one integer whose digits differ: json prints "-0".
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, i, 10), nil
		}
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped: printable, and none of `"`, `\`, `<`, `>`, `&`.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendJSONString appends s quoted and escaped as encoding/json does
// with HTML escaping on: `"` and `\` backslash-escaped; \b \f \n \r \t by
// name; the other control bytes and `<`, `>`, `&` as \u00XX; U+2028 and
// U+2029 as \u2028 and \u2029; each invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
