package core

import (
	"fmt"
	"math"
)

// Routine identifies the execution routine the operator runs a query with.
// The paper's ADAPTIVE chooses between its two routines (hashing with spill
// vs sort-based partitioning) inside the partitioned executor; the only
// decision above it is whether the in-memory pass can fit at all. That
// decision is measured from the plan's sketch, not hardcoded.
type Routine uint8

const (
	// RoutineAuto lets the selector choose from the plan's K̂ sketch
	// estimate (partitioned when there is no trustworthy plan).
	RoutineAuto Routine = iota
	// RoutinePartitioned forces the paper's per-worker block tables +
	// radix-256 recursion.
	RoutinePartitioned
	// RoutineSortSpill forces the sort-based external path: core refuses
	// the run with ErrMemoryBudget and the cacheagg layer degrades to the
	// spilling out-of-core operator. Auto selects it when the plan proves
	// the output alone cannot fit the memory budget, saving the doomed
	// in-memory pass.
	RoutineSortSpill

	numRoutines = 3
)

var routineNames = [numRoutines]string{"auto", "partitioned", "sort-spill"}

func (r Routine) String() string {
	if int(r) < len(routineNames) {
		return routineNames[r]
	}
	return fmt.Sprintf("routine(%d)", uint8(r))
}

// planTrusted reports whether the (possibly injected, possibly corrupt)
// plan's K̂ estimate is usable for routine selection: a real sample, a
// finite positive estimate, and the HLL drift guard satisfied. Corrupt
// plans fail this and fall back to the partitioned routine — the selector
// sanitizes, it never propagates garbage into a sizing decision.
func planTrusted(p *Plan) bool {
	if p == nil || p.SampleRows <= 0 {
		return false
	}
	if !(p.EstimatedK > 0) || math.IsInf(p.EstimatedK, 0) {
		return false
	}
	if !(p.HalfSampleK > 0) || p.EstimatedK/p.HalfSampleK > planDriftLimit {
		return false
	}
	return true
}

// effectiveK clamps the plan's distinct-count estimate to the physical
// bound (a run cannot have more groups than rows).
func effectiveK(p *Plan, rows int) float64 {
	k := p.EstimatedK
	if k > float64(rows) {
		k = float64(rows)
	}
	if k < 1 {
		k = 1
	}
	return k
}

// predictedAlpha returns the plan's α̂ sanitized to a finite non-negative
// value (0 when the plan carries garbage).
func predictedAlpha(p *Plan) float64 {
	if p == nil {
		return 0
	}
	a := p.PredictedAlpha
	if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
		return 0
	}
	return a
}

// selectRoutine picks the execution routine for this run and the α that
// drove the decision (predicted for auto picks, 0 when no plan informed
// it). Called once from newExec, after plan attachment.
func (e *exec) selectRoutine() (Routine, float64) {
	// An out-of-range override (a corrupt or future value) is treated as
	// auto rather than trusted blindly.
	if r := e.cfg.Routine; r > RoutineAuto && r < numRoutines {
		return r, predictedAlpha(e.plan)
	}
	p := e.plan
	if !planTrusted(p) {
		return RoutinePartitioned, 0
	}
	kHat := effectiveK(p, len(e.in.Keys))
	alphaHat := predictedAlpha(p)

	// Sort-spill: the finalized output alone is ≥ K̂·chunkRow bytes, every
	// one of them reserved before assembly. If that provably exceeds the
	// whole budget the in-memory pass is doomed — fail fast with the same
	// typed error the mid-run abort produces, so the caller's degradation
	// path (cacheagg → external sort-spill) engages without first burning
	// a full pass of work.
	if e.gov != nil {
		if budget := e.gov.Budget(); budget > 0 && kHat*float64(e.chunkRow) > float64(budget) {
			return RoutineSortSpill, alphaHat
		}
	}
	return RoutinePartitioned, alphaHat
}
