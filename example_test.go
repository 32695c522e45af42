package cacheagg_test

import (
	"fmt"
	"sort"

	"cacheagg"
)

// The smallest useful program: COUNT and SUM per group.
func Example() {
	stores := []uint64{101, 102, 101, 103, 102, 101}
	revenue := []int64{250, 410, 90, 120, 300, 75}

	res, err := cacheagg.Aggregate(cacheagg.Input{
		GroupBy: stores,
		Columns: [][]int64{revenue},
		Aggregates: []cacheagg.AggSpec{
			{Func: cacheagg.Count},
			{Func: cacheagg.Sum, Col: 0},
		},
	}, cacheagg.Options{})
	if err != nil {
		panic(err)
	}

	// Result rows arrive in hash order; sort by store for stable output.
	rows := make([]int, res.Len())
	for i := range rows {
		rows[i] = i
	}
	sort.Slice(rows, func(a, b int) bool { return res.Groups[rows[a]] < res.Groups[rows[b]] })
	for _, i := range rows {
		fmt.Printf("store %d: %d orders, %d revenue\n",
			res.Groups[i], res.Aggs[0][i], res.Aggs[1][i])
	}
	// Output:
	// store 101: 3 orders, 415 revenue
	// store 102: 2 orders, 710 revenue
	// store 103: 1 orders, 120 revenue
}

// Distinct keys of a column, with the default adaptive strategy.
func ExampleDistinct() {
	keys := []uint64{7, 3, 7, 7, 9, 3}
	groups, err := cacheagg.Distinct(keys, cacheagg.Options{})
	if err != nil {
		panic(err)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	fmt.Println(groups)
	// Output:
	// [3 7 9]
}

// GROUP BY over a string column via dictionary encoding.
func ExampleAggregateGeneral() {
	cities := []string{"paris", "tokyo", "paris", "berlin"}
	res, err := cacheagg.AggregateGeneral(cacheagg.GeneralInput{
		GroupBy:    []cacheagg.KeyColumn{{Strings: cities}},
		Aggregates: []cacheagg.AggSpec{{Func: cacheagg.Count}},
	}, cacheagg.Options{})
	if err != nil {
		panic(err)
	}
	type row struct {
		city string
		n    int64
	}
	var rows []row
	for i, c := range res.GroupCols[0].Strings {
		rows = append(rows, row{c, res.Aggs[0][i]})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].city < rows[b].city })
	for _, r := range rows {
		fmt.Printf("%s %d\n", r.city, r.n)
	}
	// Output:
	// berlin 1
	// paris 2
	// tokyo 1
}
