package intern

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cacheagg/internal/datagen"
)

// firstRowsOracle is the map answer: each row's key serialized with a
// scheme independent of the codec, mapped to the first row that had it.
func firstRowsOracle(cols []Column, n int) []uint64 {
	first := make(map[string]uint64)
	want := make([]uint64, n)
	for r := 0; r < n; r++ {
		var sb strings.Builder
		for ci := range cols {
			c := &cols[ci]
			switch {
			case c.Nulls != nil && c.Nulls[r]:
				sb.WriteString("N|")
			case c.U64 != nil:
				sb.WriteString("u" + strconv.FormatUint(c.U64[r], 10) + "|")
			default:
				sb.WriteString("s" + strconv.Quote(c.Str[r]) + "|")
			}
		}
		k := sb.String()
		f, ok := first[k]
		if !ok {
			f = uint64(r)
			first[k] = f
		}
		want[r] = f
	}
	return want
}

func TestFirstRowsMatchesMapOracle(t *testing.T) {
	const n = 10000
	spec := datagen.Spec{Dist: datagen.Zipf, N: n, K: 700, Seed: 5}
	urls := datagen.GenerateStrings(spec)
	tags := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: n, K: 7, Seed: 6})
	allNull := make([]bool, n)
	empties := make([]string, n)
	for i := range empties {
		allNull[i] = true
		if i%3 == 0 {
			empties[i] = "x"
		}
	}
	cases := []struct {
		name string
		cols []Column
	}{
		{"string", []Column{{Str: urls}}},
		{"composite", []Column{{U64: tags}, {Str: urls}}},
		{"null-bearing", []Column{
			{U64: tags, Nulls: datagen.NullMask(n, 0.1, 7)},
			{Str: urls, Nulls: datagen.NullMask(n, 0.05, 8)},
		}},
		{"empty-string", []Column{{Str: empties, Nulls: datagen.NullMask(n, 0.2, 9)}}},
		{"all-null", []Column{{U64: make([]uint64, n), Nulls: allNull}}},
		{"zero-rows", []Column{{U64: []uint64{}}, {Str: []string{}}}},
		{"one-row", []Column{{Str: []string{"only"}}}},
	}
	for _, tc := range cases {
		rows := tc.cols[0].rows()
		want := firstRowsOracle(tc.cols, rows)
		for _, w := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, w), func(t *testing.T) {
				ids := make([]uint64, rows)
				if err := FirstRows(context.Background(), tc.cols, ids, w); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(ids, want) {
					for r := range ids {
						if ids[r] != want[r] {
							t.Fatalf("row %d: first row %d, want %d", r, ids[r], want[r])
						}
					}
				}
			})
		}
	}
}

// TestFirstRowsSameHashComparesValues gives every row one hash, so every
// probe after the first goes through the value compare, across table
// grows: NULL, 0 and "" must stay apart.
func TestFirstRowsSameHashComparesValues(t *testing.T) {
	// Keys cycle through (NULL, NULL), (0, NULL), (NULL, ""), (0, "").
	const n = 4000
	u := make([]uint64, n)
	s := make([]string, n)
	un := make([]bool, n)
	sn := make([]bool, n)
	for r := 0; r < n; r++ {
		un[r] = r%2 == 0
		sn[r] = r%4 < 2
	}
	cols := []Column{{U64: u, Nulls: un}, {Str: s, Nulls: sn}}
	ids := make([]uint64, n)
	for r := range ids {
		ids[r] = 0x8000_0000_0000_0001
	}
	var tab firstTable
	tab.init(2) // sized for two rows, so the four keys grow it
	tab.dedupe(cols, ids, 0, n)
	for r := range ids {
		if ids[r] != uint64(r%4) {
			t.Fatalf("row %d: first row %d, want %d", r, ids[r], r%4)
		}
	}
}

func TestFirstRowsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 1 << 14
	cols := []Column{{Str: datagen.GenerateStrings(datagen.Spec{Dist: datagen.Uniform, N: n, K: 1000, Seed: 3})}}
	for _, w := range []int{1, 4} {
		err := FirstRows(ctx, cols, make([]uint64, n), w)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: got %v, want context.Canceled", w, err)
		}
	}
}
