// Multigroupby: GROUP BY over composite and string keys.
//
// The paper's operator — like most column-store aggregation kernels —
// works on 64-bit integer grouping keys. This example shows the
// dictionary-encoding bridge the library provides for realistic schemas,
// AggregateGeneral, on two queries:
//
//	SELECT region, product, COUNT(*), SUM(units), AVG(price)
//	FROM sales GROUP BY region, product          -- composite key
//
//	SELECT city, COUNT(*) FROM visits GROUP BY city   -- string key
//
// Run with: go run ./examples/multigroupby
package main

import (
	"fmt"
	"log"
	"sort"

	"cacheagg"
	"cacheagg/internal/xrand"
)

func main() {
	compositeKeys()
	stringKeys()
}

func compositeKeys() {
	const rows = 500_000
	rng := xrand.NewXoshiro256(99)
	regions := []uint64{1, 2, 3, 4}
	region := make([]uint64, rows)
	product := make([]uint64, rows)
	units := make([]int64, rows)
	price := make([]int64, rows)
	for i := 0; i < rows; i++ {
		region[i] = regions[rng.Intn(len(regions))]
		product[i] = 100 + rng.Uint64n(25)
		units[i] = 1 + int64(rng.Uint64n(9))
		price[i] = 10 + int64(rng.Uint64n(90))
	}

	res, err := cacheagg.AggregateGeneral(cacheagg.GeneralInput{
		GroupBy: []cacheagg.KeyColumn{{Uint64s: region}, {Uint64s: product}},
		Columns: [][]int64{units, price},
		Aggregates: []cacheagg.AggSpec{
			{Func: cacheagg.Count},
			{Func: cacheagg.Sum, Col: 0},
			{Func: cacheagg.Avg, Col: 1},
		},
	}, cacheagg.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GROUP BY (region, product): %d rows → %d groups\n", rows, res.Len())

	// Show region 1's three best-selling products.
	type row struct {
		product     uint64
		orders, qty int64
		avgPrice    float64
	}
	var r1 []row
	regionCol, productCol := res.GroupCols[0].Uint64s, res.GroupCols[1].Uint64s
	for i := 0; i < res.Len(); i++ {
		if regionCol[i] == 1 {
			r1 = append(r1, row{productCol[i], res.Aggs[0][i], res.Aggs[1][i], res.Float(2, i)})
		}
	}
	sort.Slice(r1, func(a, b int) bool { return r1[a].qty > r1[b].qty })
	fmt.Println("region 1, top products:  product   orders   units   avg price")
	for i := 0; i < 3 && i < len(r1); i++ {
		fmt.Printf("                         %7d  %7d  %6d  %10.2f\n",
			r1[i].product, r1[i].orders, r1[i].qty, r1[i].avgPrice)
	}
	fmt.Println()
}

func stringKeys() {
	visits := []string{
		"paris", "tokyo", "paris", "berlin", "tokyo", "paris",
		"nairobi", "berlin", "tokyo", "tokyo",
	}
	res, err := cacheagg.AggregateGeneral(cacheagg.GeneralInput{
		GroupBy:    []cacheagg.KeyColumn{{Strings: visits}},
		Aggregates: []cacheagg.AggSpec{{Func: cacheagg.Count}},
	}, cacheagg.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("GROUP BY city:")
	city := res.GroupCols[0].Strings
	order := make([]int, res.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return city[order[a]] < city[order[b]] })
	for _, i := range order {
		fmt.Printf("  %-8s %d visits\n", city[i], res.Aggs[0][i])
	}
}
