package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cacheagg/internal/xrand"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n        int
		wantQ    float64
		wantRank int // 1-based rank of the reported sample
	}{
		{1000, 0.90, 900},
		{100, 0.90, 90}, // exactly ten samples beyond p90
		{50, 0.80, 40},  // p90 would leave five beyond: fall back to p80
		{25, 0.60, 15},
		{12, 0.50, 6}, // never below the median
	}
	for _, c := range cases {
		v, q := tailPercentile(seq(c.n), 0.90)
		if math.Abs(q-c.wantQ) > 1e-9 || v != float64(c.wantRank) {
			t.Errorf("n=%d: got p%.0f = %v, want p%.0f = %d", c.n, q*100, v, c.wantQ*100, c.wantRank)
		}
		if beyond := c.n - int(v); q > 0.5 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
	if v, q := tailPercentile(nil, 0.9); v != 0 || q != 0 {
		t.Errorf("empty input: got %v, %v", v, q)
	}
}

func TestMedianAndIQRShareMatchPython(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even: %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got, want := iqrShare(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25].
	if got, want := iqrShare([]float64{13, 10, 20, 11}), (18.25-10.25)/12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestRelDiffIsTwoSided(t *testing.T) {
	if got := relDiff(100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("relDiff(100, 110) = %v", got)
	}
	// A second run 40 % faster disagrees as much as one 40 % slower.
	if a, b := relDiff(100, 140), relDiff(140, 100); a != b || math.Abs(a-0.40) > 1e-12 {
		t.Errorf("relDiff is not symmetric: %v, %v", a, b)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: parallel children
		{ID: 4, Parent: 1, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 45},
		{ID: 6, Parent: 1, Name: "late", Start: 95, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"op":   100 - (40 + 10 + 5), // [10,50] + [60,70] + [95,100]
		"a":    20 + 10,
		"b":    30 - 20,
		"c":    20,
		"late": 25,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}

func TestCostPerUnitIsMedianOverOperations(t *testing.T) {
	spans := []span{
		{Name: "x", Op: 1, Start: 0, End: 100, Rows: 10}, // 10 ns/row
		{Name: "x", Op: 1, Start: 0, End: 100, Rows: 10},
		{Name: "x", Op: 2, Start: 0, End: 300, Rows: 10}, // 30
		{Name: "x", Op: 3, Start: 0, End: 200, Rows: 10}, // 20
		{Name: "y", Op: 1, Start: 0, End: 999, Rows: 1},
	}
	if got := costPerUnit(spans, "x"); got != 20 {
		t.Errorf("costPerUnit = %v, want 20", got)
	}
	if got := costPerUnit(spans, "absent"); got != 0 {
		t.Errorf("absent span: %v", got)
	}
}

// TestOpenLoopLateness drives the scheduler with a fake clock and one
// sender: a slow request makes the ones behind it late, and their latency
// still counts from when they were due.
func TestOpenLoopLateness(t *testing.T) {
	now := time.Unix(0, 0)
	clk := clock{
		now:   func() time.Time { return now },
		sleep: func(d time.Duration) { now = now.Add(d) },
	}
	service := []time.Duration{5, 250, 5, 5} // ms; request 1 stalls
	samples := runOpenLoop(4, 10 /* one per 100 ms */, 1, clk, func(_, i int) bool {
		now = now.Add(service[i] * time.Millisecond)
		return i != 2
	})
	ms := func(d time.Duration) int { return int(d / time.Millisecond) }
	wantLate := []int{0, 0, 150, 55}      // due at 0,100,200,300; sent at 0,100,350,355
	wantLatency := []int{5, 250, 155, 60} // done at 5,350,355,360
	for i, s := range samples {
		if ms(s.late) != wantLate[i] || ms(s.latency) != wantLatency[i] {
			t.Errorf("request %d: late %d ms latency %d ms, want %d and %d",
				i, ms(s.late), ms(s.latency), wantLate[i], wantLatency[i])
		}
		if s.ok != (i != 2) {
			t.Errorf("request %d: ok = %v", i, s.ok)
		}
	}
}

func TestChecksumOracleAgainstMapOracle(t *testing.T) {
	const n = 5000
	rng := xrand.NewXoshiro256(9)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64n(300)
	}
	cols := valueColumns(n, 9)
	orc := u64Oracle(keys, cols, stdSpecs)
	want := orc.checksums(digestU64)
	if want.rows != n {
		t.Fatalf("checksum rows = %d, want %d", want.rows, n)
	}

	// A correct result in another order: both oracles accept it.
	g := orc.groups()
	perm := make([]int, g)
	for i := range perm {
		perm[i] = g - 1 - i
	}
	aggs := make([][]int64, len(stdSpecs))
	floats := make([][]float64, len(stdSpecs))
	outKeys := make([]uint64, g)
	for s := range stdSpecs {
		aggs[s] = make([]int64, g)
		floats[s] = make([]float64, g)
	}
	for i, p := range perm {
		outKeys[i] = orc.keys[p]
		for s := range stdSpecs {
			aggs[s][i] = orc.value(s, p)
			floats[s][i] = orc.float(s, p)
		}
	}
	v := view[uint64]{
		n:     g,
		key:   func(i int) uint64 { return outKeys[i] },
		agg:   func(s, i int) int64 { return aggs[s][i] },
		float: func(s, i int) float64 { return floats[s][i] },
	}
	sums := make([]int64, len(stdSpecs))
	if err := orc.checkFull(v); err != nil {
		t.Fatalf("permuted correct result rejected by the map oracle: %v", err)
	}
	if got := digestView(v, stdSpecs, digestU64, sums); !got.equal(want) {
		t.Fatalf("permuted correct result rejected by the checksums: %v vs %v", got, want)
	}

	// One wrong aggregate: both reject it.
	aggs[1][5]++
	if orc.checkFull(v) == nil {
		t.Error("map oracle accepted a wrong SUM")
	}
	if digestView(v, stdSpecs, digestU64, sums).equal(want) {
		t.Error("checksums accepted a wrong SUM")
	}
	aggs[1][5]--

	// A dropped group, a duplicated group, a foreign key: all rejected.
	v.n = g - 1
	if orc.checkFull(v) == nil || digestView(v, stdSpecs, digestU64, sums).equal(want) {
		t.Error("a dropped group was accepted")
	}
	v.n = g
	saved := outKeys[0]
	outKeys[0] = outKeys[1]
	if orc.checkFull(v) == nil || digestView(v, stdSpecs, digestU64, sums).equal(want) {
		t.Error("a duplicated key was accepted")
	}
	outKeys[0] = 1 << 40
	if orc.checkFull(v) == nil || digestView(v, stdSpecs, digestU64, sums).equal(want) {
		t.Error("a key that is not in the input was accepted")
	}
	outKeys[0] = saved

	// An inexact average is caught by the key-indexed comparison only:
	// that is why the first op is compared in full.
	floats[3][0] += 0.25
	if orc.checkFull(v) == nil {
		t.Error("map oracle accepted an inexact AVG")
	}
}

func TestOracleMergeIsTheSuperAggregate(t *testing.T) {
	const n = 2000
	rng := xrand.NewXoshiro256(4)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64n(97)
	}
	cols := valueColumns(n, 4)
	whole := u64Oracle(append(append([]uint64{}, keys...), keys...),
		[][]int64{append(append([]int64{}, cols[0]...), cols[0]...), append(append([]int64{}, cols[1]...), cols[1]...)}, stdSpecs)
	merged := newOracle[uint64](stdSpecs)
	merged.merge(u64Oracle(keys, cols, stdSpecs), 2)
	if a, b := whole.checksums(digestU64), merged.checksums(digestU64); !a.equal(b) {
		t.Errorf("merge(x, 2) = %v, aggregating x twice = %v", b, a)
	}
}

func TestScanBody(t *testing.T) {
	body := []byte(`{"cache":"miss","groups":2}
{"g":7,"a":[3,-12],"f":[3,-4]}
{"g":9,"k":["a\"a:[1"],"a":[1,5]}
{"done":true,"rows":2}
`)
	cols := make([]int64, 2)
	d, err := scanBody(body, 2, cols)
	if err != nil {
		t.Fatal(err)
	}
	if d.cache != "miss" || d.groups != 2 || d.trailer != 2 || d.sums.groups != 2 ||
		d.sums.keySum != 16 || cols[0] != 4 || cols[1] != -7 {
		t.Errorf("digest %+v cols %v", d, cols)
	}
	for name, bad := range map[string]string{
		"torn":          "{\"cache\":\"miss\",\"groups\":1}\n{\"g\":7,\"a\":[3]}\n",
		"short row":     "{\"cache\":\"miss\",\"groups\":1}\n{\"g\":7,\"a\":[3]}\n{\"done\":true,\"rows\":1}\n",
		"after trailer": "{\"cache\":\"miss\",\"groups\":0}\n{\"done\":true,\"rows\":0}\n{\"g\":1,\"a\":[1,2]}\n",
	} {
		if _, err := scanBody([]byte(bad), 2, cols); err == nil {
			t.Errorf("%s body was accepted", name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)

// benchmarkSpec is BENCHMARK.json: the contract between this benchmark and
// whatever drives it.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// currentSpec is BENCHMARK.json as the program's own tables define it.
func currentSpec() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		spec.Workloads = append(spec.Workloads, specWorkload{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, specMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: bounds[m.Name]})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, specLayer{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return spec
}

// TestSpecMatchesContract keeps BENCHMARK.json equal to what this program
// defines and inside the limits the benchmark contract sets.
func TestSpecMatchesContract(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(onDisk))
	}
	var fromFile benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(onDisk))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fromFile); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	spec := currentSpec()
	if !reflect.DeepEqual(fromFile, spec) {
		want, _ := json.MarshalIndent(spec, "", "  ")
		t.Errorf("BENCHMARK.json differs from the program's workloads, metrics and bounds; it should read:\n%s", want)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	used := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	sawSetup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

func TestReadmeNamesEveryWorkloadAndMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	for _, w := range workloadDefs {
		if !strings.Contains(text, "`"+w.Name+"`") {
			t.Errorf("README.md does not name workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(text, "`"+m.Name+"`") {
			t.Errorf("README.md does not name metric %s", m.Name)
		}
	}
}

// TestSmoke drives all seven workloads, untraced and traced, end to end at
// the smoke scale: set-up, first-op verification against the map oracle,
// timed region with per-op checksums, staged replay, result and span files.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloadDefs {
		for trace := 0; trace <= 1; trace++ {
			o := options{workload: w.Name, seed: 1, seconds: 0.1, trace: trace, out: out, smoke: true}
			rf, err := measure(o)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			if !rf.Result.Correct || rf.Result.Failed != 0 || rf.Result.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d notes=%v",
					w.Name, trace, rf.Result.Correct, rf.Result.Attempted, rf.Result.Failed, rf.Notes)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(rf.Result.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(rf.Result.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := rf.Result.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace %d: metric %s = %+v", w.Name, trace, m.Name, v)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(left) != 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
}
