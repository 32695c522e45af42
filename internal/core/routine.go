package core

import "fmt"

// Routine identifies the execution routine the operator runs a query with.
// The paper's ADAPTIVE chooses between its two routines (hashing with spill
// vs sort-based partitioning) inside the partitioned executor and needs no
// estimate of the output cardinality, so there is nothing to select up
// front: a run that outgrows its memory budget spills buckets to its spill
// target (Config.Spill) mid-run, or without one aborts with
// ErrMemoryBudget.
type Routine uint8

const (
	// RoutineAuto runs the partitioned executor; a governed run that goes
	// over budget spills, or without a spill target aborts with
	// ErrMemoryBudget.
	RoutineAuto Routine = iota
	// RoutinePartitioned forces the paper's per-worker block tables +
	// radix-256 recursion.
	RoutinePartitioned
	// RoutineSortSpill forces the sort-based external path: every level-0
	// bucket goes to the spill target at the end of intake, and the result
	// is in total hash order. Without a spill target core refuses the run
	// with ErrMemoryBudget.
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
