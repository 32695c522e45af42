// Command aggbench regenerates the data behind every table and figure of
// the paper "Cache-Efficient Aggregation: Hashing Is Sorting" (SIGMOD 2015)
// on the host machine.
//
// Usage:
//
//	aggbench <figure> [flags]
//
// Figures:
//
//	fig1        cache-line-transfer model curves (+ -sim for the empirical
//	            cache-simulator validation at reduced scale)
//	fig3        partitioning micro-benchmarks (software write-combining steps)
//	fig4        pass breakdown of HashingOnly / PartitionAlways(1,2) vs K
//	fig5        Adaptive vs the illustrative strategies vs K
//	fig6        speedup vs number of workers
//	fig7        element time vs number of aggregate columns
//	fig8        comparison with prior work (HYBRID, ATOMIC, INDEPENDENT,
//	            PARTITION-AND-AGGREGATE, PLAT) vs K
//	fig9        Adaptive on all data distributions vs K
//	fig10       HashingOnly vs PartitionOnly as a function of observed α
//	fig11       impact of the amortization constant c on Adaptive
//	tbl-insert  hash-table insertion cost (Section 4.1's < 6 ns/element)
//	tbl-sortdual  classic sort-based aggregation vs the operator
//	tbl-columnar  Section 3.3's three column-processing models
//	interference  Section 6.2's co-runner experiment
//	ablation    hash storage in runs: recompute from the key vs carry a column
//	all         run everything at the default scale
//
// Performance claims about the library are measured by the benchmark in
// benchmark/ (see benchmark/README.md), not by this command.
//
// Common flags (defaults target a quick laptop run; raise -logn toward the
// paper's 2^31-2^32 rows on a big machine):
//
//	-logn N      input size 2^N rows        (default 20)
//	-workers P   worker threads             (default GOMAXPROCS)
//	-cache B     cache budget bytes/worker  (default 1 MiB, scaled-down L3 share)
//	-reps R      repetitions, median taken  (default 3; paper uses 10)
//	-tsv         machine-readable TSV instead of aligned tables
//	-cpuprofile FILE, -memprofile FILE  pprof output of the run
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"cacheagg/internal/bench"
)

// scale bundles the experiment scale parameters shared by all figures.
type scale struct {
	logN    int
	n       int
	workers int
	cache   int
	reps    int
	tsv     bool
	sim     bool
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	logN := fs.Int("logn", 20, "input size exponent: N = 2^logn rows")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker threads")
	cache := fs.Int("cache", 1<<20, "cache budget in bytes per worker")
	reps := fs.Int("reps", 3, "repetitions per measurement (median reported)")
	tsv := fs.Bool("tsv", false, "emit TSV instead of aligned tables")
	sim := fs.Bool("sim", false, "fig1: also run the cache-simulator validation")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken at exit to this file")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aggbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "aggbench: -memprofile: %v\n", err)
			}
		}()
	}
	sc := scale{
		logN:    *logN,
		n:       1 << uint(*logN),
		workers: *workers,
		cache:   *cache,
		reps:    *reps,
		tsv:     *tsv,
		sim:     *sim,
	}

	figures := map[string]func(scale) []*bench.Table{
		"fig1":         fig1,
		"fig3":         fig3,
		"fig4":         fig4,
		"fig5":         fig5,
		"fig6":         fig6,
		"fig7":         fig7,
		"fig8":         fig8,
		"fig9":         fig9,
		"fig10":        fig10,
		"fig11":        fig11,
		"tbl-insert":   tblInsert,
		"tbl-sortdual": tblSortDual,
		"tbl-columnar": tblColumnar,
		"interference": fig6Interference,
		"ablation":     tblAblation,
	}

	emit := func(tables []*bench.Table) {
		for _, t := range tables {
			if sc.tsv {
				fmt.Printf("# %s\n", t.Title)
				t.WriteTSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
			fmt.Println()
		}
	}

	switch cmd {
	case "all":
		order := []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
			"fig8", "fig9", "fig10", "fig11", "tbl-insert", "tbl-sortdual",
			"tbl-columnar", "interference", "ablation"}
		for _, name := range order {
			emit(figures[name](sc))
		}
	case "help", "-h", "--help":
		usage()
	default:
		f, ok := figures[cmd]
		if !ok {
			fmt.Fprintf(os.Stderr, "aggbench: unknown figure %q\n\n", cmd)
			usage()
			os.Exit(2)
		}
		emit(f(sc))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `aggbench — regenerate the paper's tables and figures

usage: aggbench <fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|
                 tbl-insert|tbl-sortdual|tbl-columnar|interference|ablation|
                 all> [flags]

flags: -logn N  -workers P  -cache BYTES  -reps R  -tsv  -sim
       -cpuprofile FILE  -memprofile FILE  (pprof output of the run)

Performance claims about the library: see benchmark/README.md.`)
}
