package core

import "testing"

// TestRoutineStrings pins the wire names used by flags, stats and traces.
func TestRoutineStrings(t *testing.T) {
	want := map[Routine]string{
		RoutineAuto:        "auto",
		RoutinePartitioned: "partitioned",
		RoutineSortSpill:   "sort-spill",
		Routine(9):         "routine(9)",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Routine(%d).String() = %q, want %q", uint8(r), r.String(), s)
		}
	}
}
