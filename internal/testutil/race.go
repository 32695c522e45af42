//go:build race

package testutil

// RaceEnabled reports whether the binary was built with -race. The race
// detector randomly drops sync.Pool entries and adds its own allocations,
// so allocation guards skip themselves under it.
const RaceEnabled = true
