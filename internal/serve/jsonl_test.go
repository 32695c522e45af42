package serve

// Differential tests of the JSONL writer. The row, header and trailer
// encoders it replaced are kept here, unchanged, as the oracle: every
// line the writer appends must equal encoding/json's byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"cacheagg"
	"cacheagg/internal/testutil"
)

// oracleBody encodes rows the way marshalBody and respondStream did
// before the writer: a reflected row struct per group, keys boxed into
// []any, then the trailer.
func oracleBody(r *jsonlRows) ([]byte, error) {
	var b bytes.Buffer
	row := struct {
		G uint64    `json:"g"`
		K []any     `json:"k,omitempty"`
		A []int64   `json:"a,omitempty"`
		F []float64 `json:"f,omitempty"`
	}{}
	enc := json.NewEncoder(&b)
	for i := range r.groups {
		row.G = r.groups[i]
		if r.keys != nil {
			row.K = row.K[:0]
			for ci := range r.keys {
				c := &r.keys[ci]
				switch {
				case c.IsNull(i):
					row.K = append(row.K, nil)
				case c.Uint64s != nil:
					row.K = append(row.K, c.Uint64s[i])
				default:
					row.K = append(row.K, c.Strings[i])
				}
			}
		}
		row.A = row.A[:0]
		for _, col := range r.aggs {
			row.A = append(row.A, col[i])
		}
		if r.float != nil {
			row.F = row.F[:0]
			for a := range r.aggs {
				row.F = append(row.F, r.float(a, i))
			}
		}
		if err := enc.Encode(&row); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(&b, "{\"done\":true,\"rows\":%d}\n", len(r.groups))
	return b.Bytes(), nil
}

// oracleHeader is the /v1/aggregate header line as respond built it.
func oracleHeader(meta responseMeta) []byte {
	hdr := map[string]any{"groups": meta.groups, "cache": meta.cache}
	if meta.mode != "" {
		hdr["mode"] = meta.mode
	}
	if meta.queued {
		hdr["queued"] = true
		hdr["wait_ms"] = math.Round(float64(meta.waited)/float64(time.Millisecond)*1000) / 1000
	}
	line, _ := json.Marshal(hdr)
	return append(line, '\n')
}

// oracleStreamHeader is the ingest header line as respondStream built it.
func oracleStreamHeader(groups, epochs int, session string) []byte {
	line, _ := json.Marshal(map[string]any{
		"groups": groups, "epochs": epochs, "session": session,
	})
	return append(line, '\n')
}

// sameBytes fails with the first differing line of got and want.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d differs\n got: %q\nwant: %q", what, i, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", what, len(g), len(w))
}

// jsonlStrings are the string keys that exercise every escaping rule.
func jsonlStrings() []string {
	s := []string{
		"", `<>&"\`, "a<b>c&d", "\u2028", "\u2029", "x\u2028y\u2029z",
		"\xff", "ok\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80", "h\xc3\xa9llo",
		"\u65e5\u672c", "\x7f", "\ufffd", "https://host-03.example.com/item/7b",
	}
	var ctl []byte
	for c := byte(0); c < 0x20; c++ {
		s = append(s, string([]byte{c}), "a"+string([]byte{c})+"b")
		ctl = append(ctl, c)
	}
	return append(s, string(ctl))
}

// jsonlFloats are the floats at every boundary of the float format.
func jsonlFloats() []float64 {
	return []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -2.5, 1.0 / 3, 2.0 / 3, 10.5,
		1e-7, -1e-7, 1e-6, 9.999e-7, 1e-5, 1e20, 1e21, -1e21, 1.5e21, 1e22,
		1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, -(1<<53 - 1), -(1 << 53),
		math.MaxInt64, math.MinInt64, 123456789.125, 1e-300,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
}

// randomRows builds a result of n groups with nAggs aggregates. kind 0
// has no keys, 1 a string key column, 2 a composite uint64+string key
// with NULLs in both parts.
func randomRows(rng *rand.Rand, n, nAggs, kind int, withFloats bool) *jsonlRows {
	strs, floats := jsonlStrings(), jsonlFloats()
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 53, -(1 << 53)}
	r := &jsonlRows{groups: make([]uint64, n)}
	for i := range r.groups {
		switch rng.Intn(3) {
		case 0:
			r.groups[i] = math.MaxUint64 - uint64(rng.Intn(3))
		default:
			r.groups[i] = rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	str := func() string {
		if rng.Intn(2) == 0 {
			return strs[rng.Intn(len(strs))]
		}
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	switch kind {
	case 1:
		col := cacheagg.KeyColumn{Strings: make([]string, n)}
		for i := range col.Strings {
			col.Strings[i] = str()
		}
		r.keys = []cacheagg.KeyColumn{col}
	case 2:
		u := cacheagg.KeyColumn{Uint64s: make([]uint64, n), Nulls: make([]bool, n)}
		s := cacheagg.KeyColumn{Strings: make([]string, n), Nulls: make([]bool, n)}
		for i := 0; i < n; i++ {
			u.Uint64s[i] = rng.Uint64() >> uint(rng.Intn(64))
			u.Nulls[i] = rng.Intn(4) == 0
			s.Strings[i] = str()
			s.Nulls[i] = rng.Intn(4) == 0
		}
		r.keys = []cacheagg.KeyColumn{u, s}
	}
	fl := make([][]float64, nAggs)
	for a := 0; a < nAggs; a++ {
		col := make([]int64, n)
		fl[a] = make([]float64, n)
		for i := range col {
			if rng.Intn(3) == 0 {
				col[i] = ints[rng.Intn(len(ints))]
			} else {
				col[i] = rng.Int63n(1<<40) - 1<<39
			}
			switch rng.Intn(3) {
			case 0:
				fl[a][i] = floats[rng.Intn(len(floats))]
			case 1:
				fl[a][i] = float64(col[i]) // a widened non-AVG column
			default:
				// An exact AVG quotient.
				fl[a][i] = float64(col[i]) / float64(1+rng.Intn(1000))
			}
		}
		r.aggs = append(r.aggs, col)
	}
	if withFloats {
		r.float = func(a, i int) float64 { return fl[a][i] }
	}
	return r
}

// TestJSONLMatchesEncodingJSON compares the writer with encoding/json
// byte for byte: random results with edge-case keys, aggregates and
// floats, results of real queries through marshalBody, and header lines.
// NaN and ±Inf must be errors, as they are for encoding/json.
func TestJSONLMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nAggs := range []int{0, 1, 4} {
		for kind := 0; kind < 3; kind++ {
			for _, withFloats := range []bool{false, true} {
				for _, n := range []int{0, 1, 7, 300} {
					r := randomRows(rng, n, nAggs, kind, withFloats)
					what := fmt.Sprintf("aggs=%d keys=%d f=%v n=%d", nAggs, kind, withFloats, n)
					want, err := oracleBody(r)
					if err != nil {
						t.Fatalf("%s: oracle: %v", what, err)
					}
					got, err := r.body()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameBytes(t, what, got, want)
				}
			}
		}
	}

	t.Run("queries", func(t *testing.T) {
		shapes := [][]cacheagg.AggSpec{
			nil,
			{{Func: cacheagg.Count}},
			{{Func: cacheagg.Count}, {Func: cacheagg.Sum, Col: 0}, {Func: cacheagg.Min, Col: 1}, {Func: cacheagg.Avg, Col: 1}},
			{{Func: cacheagg.Sum, Col: 0}, {Func: cacheagg.Max, Col: 1}},
			{{Func: cacheagg.Count}, {Func: cacheagg.Avg, Col: 0}},
		}
		for _, spec := range []string{"z=zipf:8192:1024:7", "u=uniform:4096:512", "s=strings:4096:512:3", "c=composite2:4096:512:5"} {
			ds, err := ParseDatasetSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			for si, specs := range shapes {
				res, err := cacheagg.Aggregate(cacheagg.Input{GroupBy: ds.Keys, Columns: ds.Cols, Aggregates: specs}, cacheagg.Options{})
				if err != nil {
					t.Fatal(err)
				}
				withFloats := false
				for _, sp := range specs {
					withFloats = withFloats || sp.Func == cacheagg.Avg
				}
				r := &jsonlRows{groups: res.Groups, aggs: res.Aggs}
				if ds.GeneralKeys() {
					if r.keys, err = ds.Interner.DecodeGroups(res.Groups, ds.KeyTypes); err != nil {
						t.Fatal(err)
					}
				}
				if withFloats {
					r.float = res.Float
				}
				want, err := oracleBody(r)
				if err != nil {
					t.Fatal(err)
				}
				got, err := marshalBody(res, withFloats, ds)
				if err != nil {
					t.Fatal(err)
				}
				sameBytes(t, fmt.Sprintf("%s shape %d", spec, si), got, want)
			}
		}
	})

	t.Run("headers", func(t *testing.T) {
		metas := []responseMeta{
			{cache: "hit"},
			{groups: 4096, cache: "miss", mode: "full"},
			{groups: 17, cache: "miss", mode: "external", queued: true, waited: 212400 * time.Microsecond},
			{groups: math.MaxInt32, cache: "shared", mode: "shrunk", queued: true},
			{groups: 1, cache: `<&>"`, mode: "\u2028", queued: true, waited: time.Nanosecond},
		}
		for i := 0; i < 200; i++ {
			metas = append(metas, responseMeta{groups: rng.Int(), cache: "miss", mode: "full",
				queued: true, waited: time.Duration(rng.Int63n(int64(time.Hour)))})
		}
		for _, m := range metas {
			sameBytes(t, fmt.Sprintf("header %+v", m), m.appendHeader(nil), oracleHeader(m))
		}
		for _, s := range []string{"s1", "urls", "a-b_C9", "<&>"} {
			for _, n := range []int{0, 3, 1 << 20} {
				sameBytes(t, "stream header", appendStreamHeader(nil, n, n/3, s), oracleStreamHeader(n, n/3, s))
			}
		}
	})

	t.Run("non-finite", func(t *testing.T) {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := appendJSONFloat(nil, f); err == nil {
				t.Fatalf("appendJSONFloat(%v) succeeded", f)
			}
			r := &jsonlRows{groups: []uint64{1, 2}, aggs: [][]int64{{1, 2}},
				float: func(a, i int) float64 { return [2]float64{1, f}[i] }}
			if _, err := r.body(); err == nil {
				t.Fatalf("body with %v succeeded", f)
			}
			if _, err := oracleBody(r); err == nil {
				t.Fatalf("oracle body with %v succeeded", f)
			}
		}
	})
}

// TestRespondStreamMatchesEncodingJSON runs real stream snapshots — a
// string-keyed session with AVG and a uint64-keyed one without — through
// respondStream, with enough groups that the response goes out in
// several chunks, and compares the bytes with the oracle's.
func TestRespondStreamMatchesEncodingJSON(t *testing.T) {
	specs := []cacheagg.AggSpec{{Func: cacheagg.Count}, {Func: cacheagg.Sum, Col: 0}, {Func: cacheagg.Avg, Col: 0}}
	const groups = 3000
	strs := jsonlStrings()
	skeys := make([]string, 2*groups)
	keys := make([]uint64, 2*groups)
	vals := make([]int64, 2*groups)
	for i := range skeys {
		skeys[i] = fmt.Sprintf("%s/%d", strs[i%groups%len(strs)], i%groups)
		keys[i] = uint64(i%groups) * 0x9e3779b97f4a7c15
		vals[i] = int64(i*7919%2001) - 1000
	}
	for _, stringKeyed := range []bool{true, false} {
		dir := t.TempDir()
		sess := &ingestSession{name: "s-1", hasAvg: stringKeyed}
		block := cacheagg.Block{Keys: keys, Columns: [][]int64{vals}}
		if stringKeyed {
			dict, err := createKeyDict(dir, true)
			if err != nil {
				t.Fatal(err)
			}
			defer dict.close()
			sess.dict = dict
			if block.Keys, err = dict.encode(skeys); err != nil {
				t.Fatal(err)
			}
		}
		st, err := cacheagg.BeginStream(cacheagg.StreamOptions{Dir: dir, Aggregates: specs, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Push(context.Background(), block); err != nil {
			t.Fatal(err)
		}
		res, err := st.Snapshot(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != groups {
			t.Fatalf("%d groups, want %d", res.Len(), groups)
		}

		r := &jsonlRows{groups: res.Groups, aggs: res.Aggs}
		if stringKeyed {
			decoded, err := sess.dict.decode(res.Groups)
			if err != nil {
				t.Fatal(err)
			}
			r.keys = []cacheagg.KeyColumn{{Strings: decoded}}
			r.float = res.Float
		}
		body, err := oracleBody(r)
		if err != nil {
			t.Fatal(err)
		}
		want := append(oracleStreamHeader(res.Len(), res.Epochs, sess.name), body...)
		if len(want) < 2*jsonlChunk {
			t.Fatalf("response of %d bytes fits in one chunk; grow the test", len(want))
		}
		rec := httptest.NewRecorder()
		if err := (&Server{}).respondStream(rec, sess, res); err != nil {
			t.Fatal(err)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/jsonl" {
			t.Fatalf("content type %q", ct)
		}
		sameBytes(t, fmt.Sprintf("stream string-keyed=%v", stringKeyed), rec.Body.Bytes(), want)
	}
}

// TestMarshalBodyAllocBytes pins the one-buffer body: marshalBody on a
// 2^14-group uint64-key result allocates at most 2.5 times the body it
// returns. Building into a strings.Builder and copying it out cost at
// least twice the body on its own.
func TestMarshalBodyAllocBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const n, k = 1 << 16, 1 << 14
	keys := make([]uint64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = uint64(i % k)
		vals[i] = int64(i)
	}
	specs := []cacheagg.AggSpec{{Func: cacheagg.Count}, {Func: cacheagg.Sum, Col: 0}, {Func: cacheagg.Avg, Col: 0}}
	res, err := cacheagg.Aggregate(cacheagg.Input{GroupBy: keys, Columns: [][]int64{vals}, Aggregates: specs}, cacheagg.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != k {
		t.Fatalf("%d groups, want %d", res.Len(), k)
	}
	body, err := marshalBody(res, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := marshalBody(res, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per %d-byte body (%.2fx)", perOp, len(body), perOp/float64(len(body)))
	if perOp > 2.5*float64(len(body)) {
		t.Fatalf("marshalBody allocates %.0f bytes for a %d-byte body, want at most 2.5x", perOp, len(body))
	}
}

// FuzzJSONLString checks the scalar encoders against json.Marshal on
// arbitrary strings and floats: equal bytes, or an error from both.
func FuzzJSONLString(f *testing.F) {
	for i, s := range jsonlStrings() {
		fl := jsonlFloats()
		f.Add(s, fl[i%len(fl)])
	}
	f.Add("nan", math.NaN())
	f.Add("inf", math.Inf(-1))
	f.Fuzz(func(t *testing.T, s string, x float64) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
		want, wantErr := json.Marshal(x)
		got, err := appendJSONFloat(nil, x)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendJSONFloat(%v) error %v, json.Marshal error %v", x, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %s, want %s", x, got, want)
		}
	})
}

// BenchmarkMarshalBody renders serve_mixed's datasets and query shapes:
// zipf 2^18 rows over 2^14 keys, uniform 2^17 over 2^12, strings 2^17
// over 2^13, each with the four aggregate lists of the mixed load.
func BenchmarkMarshalBody(b *testing.B) {
	shapes := []struct {
		name  string
		specs []cacheagg.AggSpec
	}{
		{"count", []cacheagg.AggSpec{{Func: cacheagg.Count}}},
		{"std", []cacheagg.AggSpec{{Func: cacheagg.Count}, {Func: cacheagg.Sum, Col: 0}, {Func: cacheagg.Min, Col: 1}, {Func: cacheagg.Avg, Col: 1}}},
		{"sum_max", []cacheagg.AggSpec{{Func: cacheagg.Sum, Col: 0}, {Func: cacheagg.Max, Col: 1}}},
		{"count_avg", []cacheagg.AggSpec{{Func: cacheagg.Count}, {Func: cacheagg.Avg, Col: 0}}},
	}
	for _, spec := range []string{"zipf=zipf:262144:16384:8", "uniform=uniform:131072:4096:9", "strings=strings:131072:8192:10"} {
		ds, err := ParseDatasetSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, sh := range shapes {
			b.Run(ds.Name+"/"+sh.name, func(b *testing.B) {
				res, err := cacheagg.Aggregate(cacheagg.Input{GroupBy: ds.Keys, Columns: ds.Cols, Aggregates: sh.specs}, cacheagg.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				withFloats := sh.specs[len(sh.specs)-1].Func == cacheagg.Avg
				body, err := marshalBody(res, withFloats, ds)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := marshalBody(res, withFloats, ds); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.Len()), "ns/group")
			})
		}
	}
}
