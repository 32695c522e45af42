// Command aggrun executes one aggregation over a dataset — generated on the
// fly or read from a file produced by agggen — with a chosen strategy, and
// prints the result summary plus the execution statistics that drive the
// paper's figures (passes, routine mix, α, switches).
//
// Examples:
//
//	aggrun -dist uniform -n 1048576 -k 65536 -strategy adaptive
//	aggrun -in keys.bin -format binary -strategy hashing-only -stats
//	agggen -dist zipf -n 1000000 -format binary -o /tmp/z.bin && \
//	  aggrun -in /tmp/z.bin -format binary
//	aggrun -n 4194304 -k 4194304 -budget 16777216 -spill -spill-budget 1073741824
//	aggrun -keytype strings -dist zipf -n 1048576 -k 65536 -verify
//	aggrun -keytype composite2 -n 1048576 -k 65536 -routine partitioned
//
// Exit codes are typed so scripts and load harnesses can assert on the
// failure class instead of parsing stderr:
//
//	0  success
//	1  generic failure (bad input file, internal error)
//	2  usage error (unknown flag or flag value)
//	3  memory budget exceeded (-budget too small, and -spill not given, or
//	   too small even for the machinery no spill can free)
//	4  spill budget exceeded (-spill-budget too small for what the run spills)
//	5  deadline exceeded (-timeout elapsed)
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"cacheagg"
	"cacheagg/internal/core"
	"cacheagg/internal/datagen"
	"cacheagg/internal/memgov"
	"cacheagg/internal/runs"
	"cacheagg/internal/trace"
)

// Typed exit codes. Zero and one are the conventional success/failure
// pair, two is what package flag uses for parse errors, and the rest map
// the operator's typed failures one-to-one.
const (
	exitOK          = 0
	exitFailure     = 1
	exitUsage       = 2
	exitMemBudget   = 3
	exitSpillBudget = 4
	exitDeadline    = 5
)

// exitCode classifies an error from run() into the documented exit codes.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, runs.ErrSpillBudget):
		return exitSpillBudget
	case errors.Is(err, core.ErrMemoryBudget):
		return exitMemBudget
	case errors.Is(err, context.DeadlineExceeded):
		return exitDeadline
	default:
		return exitFailure
	}
}

func parseRoutine(name string) (core.Routine, error) {
	switch name {
	case "auto", "":
		return core.RoutineAuto, nil
	case "partitioned":
		return core.RoutinePartitioned, nil
	case "sort-spill":
		return core.RoutineSortSpill, nil
	default:
		return 0, fmt.Errorf("unknown routine %q (auto | partitioned | sort-spill)", name)
	}
}

func parseStrategy(name string, passes int) (core.Strategy, error) {
	switch name {
	case "adaptive":
		return core.DefaultAdaptive(), nil
	case "hashing-only":
		return core.HashingOnly(), nil
	case "partition-always":
		return core.PartitionAlways(passes), nil
	case "partition-only":
		return core.PartitionOnly(), nil
	default:
		return nil, fmt.Errorf("unknown strategy %q (adaptive | hashing-only | partition-always | partition-only)", name)
	}
}

func main() {
	// All failures — bad flag values, unreadable inputs, timeouts, even a
	// bug-induced panic inside the operator — exit with a one-line error
	// and the documented code for their class, never a stack trace.
	defer func() {
		if r := recover(); r != nil {
			fatal(fmt.Errorf("internal error: %v", r))
		}
	}()
	if err := run(); err != nil {
		fatal(err)
	}
}

func run() error {
	var (
		distName = flag.String("dist", "uniform", "distribution for generated input")
		n        = flag.Int("n", 1<<20, "rows of generated input")
		k        = flag.Uint64("k", 1<<16, "key domain of generated input")
		seed     = flag.Uint64("seed", 1, "seed for generated input")
		theta    = flag.Float64("theta", 0, "zipf skew parameter (0 = generator default)")
		hitFrac  = flag.Float64("hitfrac", 0, "heavy-hitter hot-key row fraction (0 = generator default)")
		window   = flag.Uint64("window", 0, "moving-cluster window size (0 = generator default)")
		in       = flag.String("in", "", "read keys from file instead of generating")
		format   = flag.String("format", "text", "input file format: text | binary")
		strat    = flag.String("strategy", "adaptive", "adaptive | hashing-only | partition-always | partition-only")
		routine  = flag.String("routine", "auto", "execution routine: auto | partitioned | sort-spill (sort-spill needs -spill)")
		passes   = flag.Int("passes", 1, "partitioning passes for partition-always")
		workers  = flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
		cache    = flag.Int("cache", 0, "cache budget bytes per worker (0 = 4 MiB)")
		topN     = flag.Int("top", 0, "print the first N result rows")
		verify   = flag.Bool("verify", false, "check the result against a reference aggregation")
		timeout  = flag.Duration("timeout", 0, "abort the aggregation after this long (0 = no limit)")
		traceOut = flag.String("trace", "", "record an execution trace and write it to this file as JSONL")
		budget   = flag.Int64("budget", 0, "memory budget in bytes enforced by a governor (0 = unlimited)")
		spill    = flag.Bool("spill", false, "spill the largest buckets to the temp directory when -budget is exceeded")
		spillCap = flag.Int64("spill-budget", 0, "cap on the bytes -spill writes (0 = no cap)")
		keytype  = flag.String("keytype", "uint64", "group-by key shape: uint64 | strings | composite2 (general keys run through AggregateGeneral)")
	)
	flag.Parse()
	if *spill && *budget <= 0 {
		return usageError("-spill requires a positive -budget (nothing would press the run to spill)")
	}
	if *spillCap != 0 && !*spill {
		return usageError("-spill-budget only applies with -spill")
	}
	switch *keytype {
	case "uint64":
	case "strings", "composite2":
		// General keys run through the public operator (first-row dedupe +
		// dense aggregation); the flags of the low-level distinct path that it
		// does not expose are usage errors, not silent no-ops.
		switch {
		case *in != "":
			return usageError("-keytype " + *keytype + " generates its own keys; -in is not supported")
		case *spill:
			return usageError("-keytype " + *keytype + " does not support -spill")
		case *traceOut != "":
			return usageError("-keytype " + *keytype + " does not support -trace")
		case *strat != "adaptive":
			return usageError("-keytype " + *keytype + " does not support -strategy")
		}
		dist, err := datagen.ParseDist(*distName)
		if err != nil {
			return err
		}
		return runGeneral(*keytype, datagen.Spec{
			Dist: dist, N: *n, K: *k, Seed: *seed,
			Theta: *theta, HitFraction: *hitFrac, Window: *window,
		}, *routine, *workers, *cache, *budget, *timeout, *topN, *verify)
	default:
		return usageError("unknown -keytype " + *keytype + " (uint64 | strings | composite2)")
	}

	var keys []uint64
	if *in != "" {
		var err error
		keys, err = readKeys(*in, *format)
		if err != nil {
			return err
		}
	} else {
		dist, err := datagen.ParseDist(*distName)
		if err != nil {
			return err
		}
		keys = datagen.Generate(datagen.Spec{
			Dist: dist, N: *n, K: *k, Seed: *seed,
			Theta: *theta, HitFraction: *hitFrac, Window: *window,
		})
	}

	strategy, err := parseStrategy(*strat, *passes)
	if err != nil {
		return err
	}
	rt, err := parseRoutine(*routine)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Strategy:     strategy,
		Workers:      *workers,
		CacheBytes:   *cache,
		CollectStats: true,
		Routine:      rt,
	}
	var gov *memgov.Governor
	if *budget > 0 {
		gov = memgov.New(*budget)
		cfg.Governor = gov
	}
	if *spill {
		cfg.Spill = &core.Spill{MaxSpillBytes: *spillCap}
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(1 << 16)
		cfg.Tracer = rec
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := core.DistinctContext(ctx, cfg, keys)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("aggregation exceeded -timeout %v: %w", *timeout, err)
		}
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("strategy   %s\n", strategy.Name())
	fmt.Printf("rows       %d\n", len(keys))
	fmt.Printf("groups     %d\n", res.Groups())
	fmt.Printf("time       %v (%.1f ns/row)\n", elapsed.Round(time.Microsecond),
		float64(elapsed.Nanoseconds())/float64(max(len(keys), 1)))
	st := res.Stats
	fmt.Printf("passes     %d\n", st.Passes)
	for lvl := 0; lvl < st.Passes; lvl++ {
		fmt.Printf("  level %d  %12d rows  %v worker time\n", lvl,
			st.LevelRows[lvl], time.Duration(st.LevelNanos[lvl]).Round(time.Microsecond))
	}
	fmt.Printf("hashed     %d rows\n", st.HashedRows)
	fmt.Printf("partitioned%12d rows\n", st.PartitionedRows)
	fmt.Printf("tables     %d emitted", st.TablesEmitted)
	if st.TablesEmitted > 0 {
		fmt.Printf(" (mean α %.1f)", st.AlphaSum/float64(st.TablesEmitted))
	}
	fmt.Println()
	fmt.Printf("switches   %d\n", st.Switches)
	fmt.Printf("directemit %d buckets\n", st.DirectEmits)
	fmt.Printf("routine    %s\n", st.Routine)
	if sp := res.Spill; sp.Buckets > 0 {
		fmt.Printf("spilled    %d rows, %d bytes (%d bucket spills, deepest read level %d, %d level-0 buckets resident)\n",
			sp.Rows, sp.Bytes, sp.Buckets, sp.DeepestRead, sp.ResidentRoots)
	}
	if gov != nil {
		fmt.Printf("highwater  %d bytes\n", gov.HighWater())
	}

	if rec != nil {
		snap := rec.Snapshot()
		fmt.Printf("trace      %d events", snap.Emitted)
		for p := 0; p < trace.NumPhases; p++ {
			if snap.Phases[p] > 0 {
				fmt.Printf("  %s=%v", trace.Phase(p),
					time.Duration(snap.Phases[p]).Round(time.Microsecond))
			}
		}
		fmt.Println()
		if err := writeTrace(*traceOut, rec); err != nil {
			return err
		}
		fmt.Printf("trace      written to %s\n", *traceOut)
	}

	for i := 0; i < *topN && i < res.Groups(); i++ {
		fmt.Printf("row %d: key=%d hash=%#016x\n", i, res.Keys[i], res.Hashes[i])
	}

	if *verify {
		if err := verifyDistinct(keys, res.Keys); err != nil {
			return err
		}
		fmt.Println("verify     OK (matches reference aggregation)")
	}
	return nil
}

// runGeneral is the general-key mode of aggrun: string or composite keys
// generated with the same distribution machinery, reduced to first-row
// ids through the public operator, counted per group, and gathered back
// for display and verification. It exercises the full dedupe → aggregate
// → gather path the library exposes as AggregateGeneral.
func runGeneral(keytype string, spec datagen.Spec, routineName string,
	workers, cache int, budget int64, timeout time.Duration, topN int, verify bool) error {
	rt, err := parseRoutine(routineName)
	if err != nil {
		return err
	}
	var gcols []cacheagg.KeyColumn
	switch keytype {
	case "strings":
		gcols = []cacheagg.KeyColumn{{Strings: datagen.GenerateStrings(spec)}}
	case "composite2":
		cc := datagen.GenerateComposite(spec, 2)
		gcols = []cacheagg.KeyColumn{{Uint64s: cc[0]}, {Uint64s: cc[1]}}
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := cacheagg.AggregateGeneralContext(ctx, cacheagg.GeneralInput{
		GroupBy:    gcols,
		Aggregates: []cacheagg.AggSpec{{Func: cacheagg.Count}},
	}, cacheagg.Options{
		Workers:           workers,
		CacheBytes:        cache,
		MemoryBudgetBytes: budget,
		CollectStats:      true,
		Routine:           cacheagg.Routine(rt),
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("aggregation exceeded -timeout %v: %w", timeout, err)
		}
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("keytype    %s\n", keytype)
	fmt.Printf("rows       %d\n", spec.N)
	fmt.Printf("groups     %d\n", res.Len())
	fmt.Printf("time       %v (%.1f ns/row)\n", elapsed.Round(time.Microsecond),
		float64(elapsed.Nanoseconds())/float64(max(spec.N, 1)))
	fmt.Printf("keys       %d distinct, %d encoded bytes\n",
		res.Stats.InternedKeys, res.Stats.InternBytes)
	fmt.Printf("dedupe     %v (%.1f ns/row)\n",
		time.Duration(res.Stats.EncodeNanos).Round(time.Microsecond),
		float64(res.Stats.EncodeNanos)/float64(max(spec.N, 1)))
	fmt.Printf("routine    %s\n", res.Stats.Routine)

	for i := 0; i < topN && i < res.Len(); i++ {
		fmt.Printf("row %d:", i)
		for c := range res.GroupCols {
			col := &res.GroupCols[c]
			switch {
			case col.IsNull(i):
				fmt.Printf(" NULL")
			case col.Type() == cacheagg.KeyString:
				fmt.Printf(" %q", col.Strings[i])
			default:
				fmt.Printf(" %d", col.Uint64s[i])
			}
		}
		fmt.Printf("  count=%d\n", res.Aggs[0][i])
	}

	if verify {
		if err := verifyGeneral(gcols, res); err != nil {
			return err
		}
		fmt.Println("verify     OK (matches map-keyed reference aggregation)")
	}
	return nil
}

// verifyGeneral checks a general-key count result against a plain
// map-keyed reference built from the original key columns.
func verifyGeneral(gcols []cacheagg.KeyColumn, res *cacheagg.GeneralResult) error {
	serialize := func(cols []cacheagg.KeyColumn, row int) string {
		s := ""
		for c := range cols {
			col := &cols[c]
			switch {
			case col.IsNull(row):
				s += "N|"
			case col.Type() == cacheagg.KeyString:
				s += "s:" + strconv.Quote(col.Strings[row]) + "|"
			default:
				s += "u:" + strconv.FormatUint(col.Uint64s[row], 10) + "|"
			}
		}
		return s
	}
	ref := make(map[string]int64)
	for i := 0; i < gcols[0].Len(); i++ {
		ref[serialize(gcols, i)]++
	}
	if res.Len() != len(ref) {
		return fmt.Errorf("verify: %d groups, reference has %d", res.Len(), len(ref))
	}
	for r := 0; r < res.Len(); r++ {
		k := serialize(res.GroupCols, r)
		want, ok := ref[k]
		if !ok {
			return fmt.Errorf("verify: phantom group %s", k)
		}
		if res.Aggs[0][r] != want {
			return fmt.Errorf("verify: group %s count %d, want %d", k, res.Aggs[0][r], want)
		}
	}
	return nil
}

// usageError mimics package flag's handling of bad flag values: message to
// stderr, usage, exit 2.
func usageError(msg string) error {
	fmt.Fprintln(os.Stderr, "aggrun:", msg)
	flag.Usage()
	os.Exit(exitUsage)
	return nil
}

// verifyDistinct checks a distinct result's keys against a map reference.
func verifyDistinct(keys, resKeys []uint64) error {
	ref := make(map[uint64]struct{}, len(resKeys))
	for _, k := range keys {
		ref[k] = struct{}{}
	}
	if len(resKeys) != len(ref) {
		return fmt.Errorf("verify: %d groups, reference has %d", len(resKeys), len(ref))
	}
	seen := make(map[uint64]struct{}, len(resKeys))
	for _, k := range resKeys {
		if _, dup := seen[k]; dup {
			return fmt.Errorf("verify: duplicate group %d", k)
		}
		seen[k] = struct{}{}
		if _, ok := ref[k]; !ok {
			return fmt.Errorf("verify: phantom group %d", k)
		}
	}
	return nil
}

func readKeys(path, format string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var keys []uint64
	switch format {
	case "text":
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			v, err := strconv.ParseUint(sc.Text(), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", sc.Text(), err)
			}
			keys = append(keys, v)
		}
		return keys, sc.Err()
	case "binary":
		r := bufio.NewReaderSize(f, 1<<20)
		var buf [8]byte
		for {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				if err == io.EOF {
					return keys, nil
				}
				return nil, err
			}
			keys = append(keys, binary.LittleEndian.Uint64(buf[:]))
		}
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
}

// writeTrace dumps the recorder's retained events to path as JSONL.
func writeTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := trace.WriteJSONL(w, rec.Events()); err != nil {
		f.Close()
		return fmt.Errorf("-trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("-trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aggrun:", err)
	os.Exit(exitCode(err))
}
