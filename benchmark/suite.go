package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild measures one workload in a child process of this same program,
// so that GC state and peak RSS are the workload's own, and returns the
// child's result line. The child has ended when runChild returns.
func runChild(o options, workload string, trace int, seed uint64) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-out", o.out,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if runErr != nil || !res.Correct {
		return &res, fmt.Errorf("%s: %d of %d ops failed", workload, res.Failed, res.Attempted)
	}
	return &res, nil
}

// suiteResult is one pass over every workload: workload name to result.
type suiteResult map[string]*resultLine

// runSuite runs every workload once, untraced or traced.
func runSuite(o options, trace int, seed uint64) (suiteResult, error) {
	out := make(suiteResult)
	for _, w := range workloadDefs {
		fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d, seed %d)\n", w.Name, trace, seed)
		res, err := runChild(o, w.Name, trace, seed)
		if err != nil {
			return nil, err
		}
		out[w.Name] = res
	}
	return out, nil
}

// printTable prints one row per metric and one column per workload.
func printTable(w io.Writer, defs []metricDef, res suiteResult) {
	fmt.Fprintf(w, "%-40s %-9s", "metric", "unit")
	for _, wl := range workloadDefs {
		fmt.Fprintf(w, " %14s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, m := range defs {
		fmt.Fprintf(w, "%-40s %-9s", m.Name, m.Unit)
		for _, wl := range workloadDefs {
			fmt.Fprintf(w, " %14.4g", res[wl.Name].Metrics[m.Name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-40s %-9s", "ops_attempted / ops_failed", "count")
	for _, wl := range workloadDefs {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%d/%d", res[wl.Name].Attempted, res[wl.Name].Failed))
	}
	fmt.Fprintln(w)
}

// runAll is the command without -workload: every workload untraced and,
// with -trace 1, every workload traced as well.
func runAll(o options) error {
	e2e, err := runSuite(o, 0, o.seed)
	if err != nil {
		return err
	}
	printTable(os.Stdout, endToEnd, e2e)
	if o.trace == 1 {
		traced, err := runSuite(o, 1, o.seed)
		if err != nil {
			return err
		}
		fmt.Println()
		printTable(os.Stdout, perLayer, traced)
	}
	fmt.Printf("\nresult files and span files are in %s\n", o.out)
	return nil
}

// repeatCheck runs the end-to-end suite twice back to back and fails when
// the two runs of the same code differ, in either direction, by more than a
// metric's bound.
func repeatCheck(o options) error {
	first, err := runSuite(o, 0, o.seed)
	if err != nil {
		return err
	}
	second, err := runSuite(o, 0, o.seed)
	if err != nil {
		return err
	}
	breaches := 0
	fmt.Printf("%-15s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ by", "bound")
	for _, wl := range workloadDefs {
		for _, m := range endToEnd {
			a, b := first[wl.Name].Metrics[m.Name].Value, second[wl.Name].Metrics[m.Name].Value
			diff := relDiff(a, b)
			mark := ""
			if diff > bounds[m.Name] {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-15s %-16s %14.4f %14.4f %8.1f%% %6.0f%%%s\n",
				wl.Name, m.Name, a, b, diff*100, bounds[m.Name]*100, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", breaches)
	}
	return nil
}

// calibrateRuns is how many suites -calibrate measures.
const calibrateRuns = 5

// calibrate runs the suite several times, each with another seed as the
// driver does, and prints per metric the largest spread over workloads (the
// distance between the quartiles as a share of the median, which is what the
// benchmark contract bounds) and the bound the issue's procedure derives
// from it: max(5 %, 2 x spread), capped at the contract's maximum.
func calibrate(o options) error {
	runs := make([]suiteResult, calibrateRuns)
	for i := range runs {
		var err error
		if runs[i], err = runSuite(o, 0, o.seed+uint64(i)); err != nil {
			return err
		}
	}
	fmt.Printf("%-16s %-15s %12s %10s %10s\n", "metric", "workload", "median", "iqr share", "range")
	for _, m := range endToEnd {
		worstIQR, worstRange := 0.0, 0.0
		for _, wl := range workloadDefs {
			vals := make([]float64, len(runs))
			lo, hi := math.Inf(1), math.Inf(-1)
			for i, r := range runs {
				vals[i] = r[wl.Name].Metrics[m.Name].Value
				lo, hi = min(lo, vals[i]), max(hi, vals[i])
			}
			med := median(vals)
			iqr, rng := iqrShare(vals), (hi-lo)/med
			fmt.Printf("%-16s %-15s %12.4f %9.1f%% %9.1f%%\n", m.Name, wl.Name, med, iqr*100, rng*100)
			worstIQR, worstRange = max(worstIQR, iqr), max(worstRange, rng)
		}
		fmt.Printf("%-16s => worst iqr share %.1f%%, worst range %.1f%%: bound %.2f (now %.2f)\n\n",
			m.Name, worstIQR*100, worstRange*100, min(max(0.05, 2*worstIQR), maxBound), bounds[m.Name])
	}
	var rates []float64
	for _, r := range runs {
		rates = append(rates, float64(r["serve_mixed"].Attempted)/o.seconds)
	}
	fmt.Printf("serve_mixed closed-loop rate: median %.0f requests/s: freeze serveOpenRate at %.0f (now %.0f)\n",
		median(rates), 0.6*median(rates), serveOpenRate)
	fmt.Printf("external_spill budget %d bytes: every op of every run spilled (each op checks SpilledBytes > 0)\n", externalBudget)
	return nil
}
