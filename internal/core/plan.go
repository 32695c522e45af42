package core

import (
	"time"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/sketch"
)

// The sketch-guided planning pass (ROADMAP item "sketch-guided planning and
// skew armor"). ADAPTIVE's defining property is that it needs no optimizer
// estimate — it learns K and skew by observing its own hash tables. The
// price is that it starts blind: on low-locality inputs the first
// cache-sized table fills at α ≈ 1 and is split for nothing, and on skewed
// inputs one hot key inflates every table and one hot partition serializes
// the recursion. A one-pass sketch phase over a bounded input prefix keeps
// the no-estimate property (the estimate comes from the data itself,
// moments before execution) while making better first moves:
//
//   - the HyperLogLog estimate of K picks the initial routine (hash vs
//     partition) and pre-sizes the worker hash tables, killing grow/split
//     churn when K is small;
//   - the Count-Min sketch identifies heavy-hitter keys, which get
//     per-worker scalar accumulators that bypass the table entirely and
//     re-enter the merge as one-row pre-aggregated runs;
//   - the per-digit histogram and the observed bucket sizes drive a
//     largest-first task schedule so one hot partition cannot serialize
//     the recursion phase.
//
// Every decision is advisory: a wrong estimate can cost performance but
// never correctness. Hot-key routing compares exact keys (the CMS only
// nominates candidates), pre-sized tables still split when they fill, and
// the initial-routine choice is just ADAPTIVE's first decision made with
// open eyes. The differential tests pin results bit-identical to the
// unplanned path under deliberately corrupt plans.

const (
	// PlanSampleRows is the sample-size cap of the planning pass: enough
	// rows to saturate the sketches' accuracy, small enough (~1 ms of
	// sketch feeding) to be negligible against any input worth planning.
	PlanSampleRows = 32768
	// planMinRows is the input size below which planning is skipped:
	// small inputs finish in one fused pass no matter what the plan says.
	planMinRows = 4 * scratchRows
	// planMaxHotKeys caps the bypass set. Per worker each hot key costs a
	// scalar accumulator and each cold row one predicted-not-taken probe;
	// past a handful of keys the residual mass per key is too small to
	// matter.
	planMaxHotKeys = 8
	// planHotMinShare is the minimum share of the sample a key must hold
	// (by CMS estimate) to be promoted to the bypass set.
	planHotMinShare = 64 // i.e. sample/64 ≈ 1.6 %
	// planMinHotMass is the minimum combined share of the sample the
	// bypass candidates must hold for the bypass to engage at all. Routing
	// every row through the hot/cold classifier costs a few ns; that tax is
	// paid on the whole input, while the saving accrues only on the
	// bypassed mass — and a cold stream stripped of a modest hot share
	// still fills tables at nearly the same rate. Below this mass the
	// bypass is a net loss, so the plan drops the nomination.
	planMinHotMass = 0.4
	// planTableSlack over-provisions the pre-sized table relative to K̂ so
	// the usual HLL error (~2 %) and modest drift cannot cause splits: the
	// table holds up to capacity·maxFill groups, so capacity 8·K̂ at the
	// default 0.25 fill leaves 2× headroom over the estimate.
	planTableSlack = 8
	// planDriftLimit is the max allowed growth of K̂ between the half and
	// the full sample for the pre-sizing decision. A still-growing
	// distinct count (moving-cluster, sorted) means the sample has not
	// seen the real K, so the table keeps its cache-sized capacity.
	planDriftLimit = 1.10
)

// Plan is the output of the sketch pass: the measurements and the decisions
// derived from them. Decisions are kept as plain data (rather than being
// applied on the fly) so tests can inject arbitrary — even adversarial —
// plans and pin that execution remains correct.
type Plan struct {
	// SampleRows is the number of input rows the sketches consumed.
	SampleRows int
	// TotalRows is the input size at planning time.
	TotalRows int
	// EstimatedK is the HLL distinct-group estimate over the sample.
	EstimatedK float64
	// HalfSampleK is the HLL estimate after half the sample — the drift
	// guard input: EstimatedK/HalfSampleK ≈ 1 means the sample saturated
	// the key set.
	HalfSampleK float64
	// HotKeys are the heavy-hitter bypass candidates (exact keys,
	// descending estimated frequency). HotHashes are their Murmur2 hashes
	// (recomputed by the executor, carried here for diagnostics).
	HotKeys   []uint64
	HotHashes []uint64
	// HotMass is the fraction of sampled rows attributed to HotKeys.
	HotMass float64
	// DigitHist is the sampled level-0 partition histogram (rows per
	// radix-256 digit of the hash) — the scatter-skew diagnostic.
	DigitHist [hashfn.Fanout]int64

	// PredictedAlpha is the expected reduction factor of the cold (non-
	// hot-key) stream: sampled cold rows per estimated cold group.
	PredictedAlpha float64
	// StartPartition starts the intake in partitioning mode (ADAPTIVE's
	// low-α decision taken before the first table fills for nothing).
	StartPartition bool
	// TableRows, when non-zero, overrides the worker hash-table capacity
	// (power of two, smaller than the cache-sized default).
	TableRows int

	// Nanos is the wall time the planning pass took.
	Nanos int64
}

// BuildPlan runs the sketch pass over a bounded prefix of the input and
// derives the plan. It returns nil when the input is too small to be worth
// planning. The pass costs ~15 ns/row over at most PlanSampleRows rows.
func BuildPlan(cfg Config, in *Input) *Plan {
	n := len(in.Keys)
	if n < planMinRows {
		return nil
	}
	t0 := time.Now()
	cfg = cfg.withDefaults()
	sample := min(n, PlanSampleRows)
	sk := sketch.NewSketch()
	p := &Plan{SampleRows: sample, TotalRows: n}

	// The sampler pays ~30 ns/row, which matters on runs that are fast
	// because their key set is tiny. Those are also the runs that need no
	// further sampling: when the quarter sample already shows a saturated
	// K̂ (no growth since the eighth) and no candidate anywhere near
	// heavy-hitter promotion, the remaining three quarters cannot change
	// any decision, so the pass stops early.
	var hs [scratchRows]uint64
	half, quarter, eighth := sample/2, sample/4, sample/8
	var eighthK float64
	taken := 0
	for lo := 0; lo < sample; lo += scratchRows {
		hi := min(lo+scratchRows, sample)
		hashfn.HashBatch(in.Keys[lo:hi], hs[:hi-lo])
		sk.AddBlock(in.Keys[lo:hi], hs[:hi-lo])
		taken = hi
		if eighthK == 0 && hi >= eighth {
			eighthK = sk.HLL.Estimate()
		}
		if p.HalfSampleK == 0 && hi >= half {
			p.HalfSampleK = sk.HLL.Estimate()
		}
		if hi >= quarter && hi < half {
			saturated := sk.HLL.Estimate() <= 1.05*eighthK
			if saturated && !promotable(sk, taken) {
				p.HalfSampleK = eighthK
				break
			}
		}
	}
	sample = taken
	p.SampleRows = sample
	p.EstimatedK = sk.HLL.Estimate()
	p.DigitHist = sk.DigitHist

	minHot := uint64(sample / planHotMinShare)
	var hotEst uint64
	for _, e := range sk.Top.Items() {
		if e.Est < minHot || len(p.HotKeys) == planMaxHotKeys {
			break
		}
		p.HotKeys = append(p.HotKeys, e.Key)
		p.HotHashes = append(p.HotHashes, e.Hash)
		hotEst += e.Est
	}
	p.HotMass = float64(hotEst) / float64(sample)
	if p.HotMass > 1 {
		p.HotMass = 1 // CMS overestimates can overshoot the sample size
	}
	if p.HotMass < planMinHotMass {
		// Not enough mass to pay for per-row routing: no bypass. HotMass
		// is zeroed with the keys so derive's cold-stream model matches
		// what the executor will actually see.
		p.HotKeys, p.HotHashes, p.HotMass = nil, nil, 0
	}

	p.derive(cfg, len(agg.NewLayout(in.Specs).WordOps()))
	p.Nanos = time.Since(t0).Nanoseconds()
	return p
}

// promotable reports whether any heavy-hitter candidate is within striking
// distance of promotion after rows sampled rows: its estimate reaches half
// the promotion share. Used by the sampler's early stop — a key this far
// below the bar at the quarter sample cannot matter, but one near it
// deserves the full sample to measure its mass.
func promotable(sk *sketch.Sketch, rows int) bool {
	items := sk.Top.Items()
	return len(items) > 0 && items[0].Est >= uint64(rows/(2*planHotMinShare))
}

// derive turns the measurements into decisions for the given configuration.
func (p *Plan) derive(cfg Config, words int) {
	capRows := cacheRows(cfg.CacheBytes, words)
	tableGroups := float64(capRows) * cfg.MaxFill

	// Cold-stream reduction factor: bypassed hot keys are excluded from
	// both the row mass and the group count, because the table never sees
	// them once the bypass is active.
	coldK := p.EstimatedK - float64(len(p.HotKeys))
	if coldK < 1 {
		coldK = 1
	}
	coldRows := float64(p.SampleRows) * (1 - p.HotMass)
	p.PredictedAlpha = coldRows / coldK

	// Initial routine: ADAPTIVE switches to partitioning when a table
	// fills at α < α₀; predicting that α lets intake start there without
	// filling a table for nothing first. Only worthwhile when the cold
	// groups cannot fit one table (otherwise hashing direct-emits in a
	// single fused pass regardless of α).
	alpha0 := DefaultAlpha0
	if a, ok := cfg.Strategy.(adaptive); ok {
		alpha0 = a.alpha0
	}
	p.StartPartition = p.PredictedAlpha < alpha0 && coldK > tableGroups

	// Table pre-size: when the sample saturated the key set (drift guard)
	// and the estimated groups fit a much smaller table, shrink the worker
	// tables so probes stay in L1/L2 and split scans touch a fraction of
	// the slots. Kept a power of two ≥ the blocked-table floor and at most
	// half the cache-sized capacity (below that the saving is noise).
	if p.HalfSampleK > 0 && p.EstimatedK/p.HalfSampleK <= planDriftLimit {
		want := max(ceilPow2Int(int(planTableSlack*p.EstimatedK)), minTableRows)
		if want <= capRows/2 {
			p.TableRows = want
		}
	}
}

// ceilPow2Int rounds n up to a power of two (n ≥ 1).
func ceilPow2Int(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// sanitizedTableRows validates a (possibly injected) plan's table override
// against the execution's geometry: power of two, at least the blocked
// floor, at most the cache-sized capacity. Returns 0 when the override is
// absent or useless.
func (p *Plan) sanitizedTableRows(cacheRows int) int {
	if p == nil || p.TableRows <= 0 {
		return 0
	}
	rows := max(ceilPow2Int(p.TableRows), minTableRows)
	if rows >= cacheRows {
		return 0
	}
	return rows
}

// hotSet is the executor's exact-match view of the plan's hot keys: a tiny
// open-addressed direct lookup table (64 slots for ≤ 32 keys) probed once
// per intake row. Membership is decided by exact key comparison — the CMS
// only nominated the candidates — so a bogus plan can waste accumulators
// but never corrupt results. Hashes are recomputed from the keys here:
// trusting plan-supplied hashes would let a corrupt plan route a group into
// the wrong bucket and split it in the output.
type hotSet struct {
	keys   []uint64
	hashes []uint64
	lut    [64]int8
}

// maxHotSetKeys bounds the accepted bypass set; injected plans beyond the
// bound are truncated (the builder's own cap is lower).
const maxHotSetKeys = 32

func newHotSet(keys []uint64) *hotSet {
	if len(keys) == 0 {
		return nil
	}
	if len(keys) > maxHotSetKeys {
		keys = keys[:maxHotSetKeys]
	}
	h := &hotSet{}
	for i := range h.lut {
		h.lut[i] = -1
	}
	for _, k := range keys {
		if h.lookup(k) >= 0 {
			continue // duplicate key in an injected plan
		}
		j := len(h.keys)
		h.keys = append(h.keys, k)
		h.hashes = append(h.hashes, hashfn.Murmur2(k))
		slot := hotSlot(k)
		for h.lut[slot] >= 0 {
			slot = (slot + 1) & 63
		}
		h.lut[slot] = int8(j)
	}
	return h
}

// hotSlot maps a key to its home slot (Fibonacci hash of the key — cheap
// and independent of Murmur2, so hot keys colliding in the table's digits
// still spread here).
func hotSlot(k uint64) int { return int((k * 0x9e3779b97f4a7c15) >> 58) }

// lookup returns the hot index of key, or -1. Cold keys (the overwhelming
// majority) terminate at the first empty slot — at ≤ 32 keys in 64 slots
// that is ~1 probe on average.
func (h *hotSet) lookup(key uint64) int {
	slot := hotSlot(key)
	for {
		j := h.lut[slot]
		if j < 0 {
			return -1
		}
		if h.keys[j] == key {
			return int(j)
		}
		slot = (slot + 1) & 63
	}
}

// hotAccums is one worker's scalar accumulator bank: one initialized-on-
// first-touch aggregate state row per hot key. Fold order within a worker
// is input order and states merge through the same word operations as the
// table path, so the final values are bit-identical to what the table
// would have produced.
type hotAccums struct {
	touched []bool
	rows    []int64
	states  [][]uint64 // [hot index][state word]
}

func newHotAccums(n, words int) *hotAccums {
	a := &hotAccums{
		touched: make([]bool, n),
		rows:    make([]int64, n),
		states:  make([][]uint64, n),
	}
	backing := make([]uint64, n*words)
	for i := range a.states {
		a.states[i] = backing[i*words : (i+1)*words]
	}
	return a
}

// fold adds input row r to hot accumulator j: the scalar equivalent of one
// identity-initialized slot claim plus per-word fold (exactly what
// InsertRawBatch does for a table row).
func (a *hotAccums) fold(ops []agg.WordOp, j int, cols [][]int64, r int) {
	st := a.states[j]
	if !a.touched[j] {
		a.touched[j] = true
		for w, op := range ops {
			st[w] = op.Op.Identity()
		}
	}
	for w, op := range ops {
		if op.Src == agg.SrcOne {
			st[w]++
			continue
		}
		st[w] = op.Op.Apply(st[w], uint64(cols[op.Col][r]))
	}
	a.rows[j]++
}
