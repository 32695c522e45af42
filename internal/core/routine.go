package core

import "fmt"

// Routine identifies the execution routine the operator runs a query with.
// The paper's ADAPTIVE chooses between its two routines (hashing with spill
// vs sort-based partitioning) inside the partitioned executor and needs no
// estimate of the output cardinality, so there is nothing to select up
// front: a run that outgrows its memory budget aborts mid-run with
// ErrMemoryBudget and the caller degrades to the spilling path.
type Routine uint8

const (
	// RoutineAuto runs the partitioned executor; a governed run that goes
	// over budget aborts with ErrMemoryBudget.
	RoutineAuto Routine = iota
	// RoutinePartitioned forces the paper's per-worker block tables +
	// radix-256 recursion.
	RoutinePartitioned
	// RoutineSortSpill forces the sort-based external path: core refuses
	// the run with ErrMemoryBudget and the caller degrades to the
	// spilling out-of-core operator.
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
