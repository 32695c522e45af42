// Command benchmark is the repository's one benchmark: seven workloads
// over the whole operator (batch, general keys, out-of-core, streaming,
// serving), six end-to-end metrics from an untraced run and the per-layer
// metrics from a separate traced run. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
// One invocation with -workload measures one workload in this process and
// prints one JSON result object as its last line of standard output.
// Without -workload the command re-executes itself once per workload, so
// that GC state and peak RSS are per workload, and prints a table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// maxProcs caps the pinned parallelism: P = min(nproc, maxProcs).
const maxProcs = 4

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, as the benchmark contract asks.
const setupRepeats = 9

type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	out         string
	smoke       bool
	repeatCheck bool
	calibrate   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process; empty runs every workload, one child process each")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed region")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run (per-layer metrics), 0 = untraced run (end-to-end metrics)")
	flag.StringVar(&o.out, "out", "", "directory for result and span files (default benchmark/out)")
	flag.BoolVar(&o.smoke, "smoke", false, "1/50 input sizes and a short timed region: checks the benchmark, measures nothing")
	flag.BoolVar(&o.repeatCheck, "repeat-check", false, "run the end-to-end suite twice and fail if any metric differs by more than its bound")
	flag.BoolVar(&o.calibrate, "calibrate", false, "run the end-to-end suite five times and print the bounds the spreads support")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	if o.smoke && o.seconds == 10 {
		o.seconds = 0.2
	}
	if o.out == "" {
		o.out = defaultOutDir()
	}
	var err error
	switch {
	case o.repeatCheck:
		err = repeatCheck(o)
	case o.calibrate:
		err = calibrate(o)
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// defaultOutDir is benchmark/out under the checkout root, whether the
// command was started from the root or from the benchmark directory.
func defaultOutDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// metricValue is one reported number in the contract's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a one-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is the machine-readable record of one run.
type resultFile struct {
	Meta     runMeta    `json:"meta"`
	Workload string     `json:"workload"`
	Traced   bool       `json:"traced"`
	Result   resultLine `json:"result"`
	// Samples is the number of samples behind each timing metric.
	Samples map[string]int `json:"samples"`
	// Notes carries what has no place among the metrics: the percentile
	// actually used, failure messages, whether VmHWM could be reset.
	Notes []string `json:"notes,omitempty"`
}

// runOne measures one workload in this process and prints the result.
func runOne(o options) error {
	rf, err := measure(o)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, rf)
	line, err := json.Marshal(rf.Result)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rf.Result.Correct {
		// The result line is printed first so the failure count is on
		// record; the exit code still says the run is not to be trusted.
		os.Stdout.Sync()
		os.Exit(2)
	}
	return nil
}

// measure sets one workload up, verifies its first op, runs the untraced
// or the traced measurement and writes the result file.
func measure(o options) (*resultFile, error) {
	wl, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	p := min(runtime.NumCPU(), maxProcs)
	// Go before 1.25 ignores a container's CPU quota, so pin explicitly.
	runtime.GOMAXPROCS(p)
	e := &env{seed: o.seed, seconds: o.seconds, scale: 1, minOps: 100, p: p, traced: o.trace == 1}
	if o.smoke {
		e.scale, e.minOps = 1.0/50, 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	e.tmp = tmp
	defer os.RemoveAll(tmp)

	// Set up several times and keep the last: the median is steadier
	// than a single set-up, and work moved into set-up still shows.
	var inst instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		start := time.Now()
		inst, err = wl.New(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { inst.close() }()

	rf := &resultFile{
		Meta:     collectMeta(o, e),
		Workload: o.workload,
		Traced:   o.trace == 1,
		Samples:  map[string]int{"setup_s": len(setups)},
		Result:   resultLine{Metrics: map[string]metricValue{}},
	}
	if err := inst.firstOp(); err != nil {
		return nil, fmt.Errorf("first op failed verification: %w", err)
	}
	if o.trace == 1 {
		err = runTraced(o, e, inst, rf)
	} else {
		err = runUntraced(e, inst, rf, median(setups))
	}
	if err != nil {
		return nil, err
	}
	return rf, writeResult(o, rf)
}

func runUntraced(e *env, inst instance, rf *resultFile, setupS float64) error {
	s, err := inst.run(e)
	if err != nil {
		return err
	}
	if s.attempted == 0 || s.wall <= 0 {
		return fmt.Errorf("the timed region ran no op")
	}
	p90, usedQ := tailPercentile(s.latMs, 0.90)
	units := make(map[string]string, len(endToEnd))
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	put := func(name string, v float64) {
		rf.Result.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
	put("setup_s", setupS)
	put("rows_per_s", float64(s.rows)/s.wall.Seconds())
	put("op_p50_ms", median(s.latMs))
	put("op_p90_ms", p90)
	put("alloc_mb_per_op", float64(s.allocBytes)/(1<<20)/float64(s.attempted))
	rf.Samples["op_p50_ms"] = len(s.latMs)
	rf.Samples["op_p90_ms"] = len(s.latMs)
	rf.Result.Attempted = s.attempted
	rf.Result.Failed = s.failed
	rf.Result.Correct = s.failed == 0
	rf.Notes = append(rf.Notes, fmt.Sprintf("op_p90_ms is the p%.0f of %d samples", usedQ*100, len(s.latMs)))
	rf.Notes = append(rf.Notes, s.failures...)
	return nil
}

func runTraced(o options, e *env, inst instance, rf *resultFile) error {
	rec := newRecorder()
	got, err := inst.trace(e, rec)
	if err != nil {
		return err
	}
	hwmKB, err := procStatusKB("VmHWM")
	if err != nil {
		return err
	}
	got["process.peak_rss_mb"] = float64(hwmKB) / 1024
	known := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		known[m.Name] = true
		rf.Result.Metrics[m.Name] = metricValue{Value: got[m.Name], Unit: m.Unit}
	}
	for name := range got {
		if !known[name] {
			return fmt.Errorf("workload reported unknown per-layer metric %q", name)
		}
	}
	rf.Result.Attempted = max(len(rec.spans), 1)
	rf.Result.Correct = true
	spanPath := filepath.Join(o.out, "trace-"+o.workload+".jsonl")
	if err := rec.write(spanPath); err != nil {
		return err
	}
	self := selfTimes(rec.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		rf.Notes = append(rf.Notes, fmt.Sprintf("self time %-28s %v", n, self[n].Round(time.Microsecond)))
	}
	rf.Notes = append(rf.Notes, fmt.Sprintf("%d spans written to %s", len(rec.spans), spanPath))
	return nil
}

func writeResult(o options, rf *resultFile) error {
	kind := "e2e"
	if rf.Traced {
		kind = "trace"
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("%s-%s.json", rf.Workload, kind)), append(b, '\n'), 0o644)
}

// printMetrics prints every metric of the run by name with its unit.
func printMetrics(w *os.File, rf *resultFile) {
	defs := endToEnd
	if rf.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  P %d  %s\n", rf.Workload, rf.Meta.Seed, rf.Meta.GOMAXPROCS, rf.Meta.GoVersion)
	for _, m := range defs {
		v := rf.Result.Metrics[m.Name]
		n := ""
		if c, ok := rf.Samples[m.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-8s%s\n", m.Name, v.Value, v.Unit, n)
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d\n", rf.Result.Attempted, rf.Result.Failed)
	for _, n := range rf.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
