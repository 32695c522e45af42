package core

import "fmt"

// Mode selects the routine used for the next run (or input block).
type Mode int

const (
	// ModeHash processes rows with the HASHING routine: insert into a
	// cache-sized table, split into per-digit runs when full.
	ModeHash Mode = iota
	// ModePartition processes rows with the PARTITIONING routine: radix
	// scatter by the current hash digit.
	ModePartition
	// ModeFinal forces a single hashing pass whose table may grow beyond
	// the cache. Only the illustrative fixed-pass strategies use it (the
	// paper "exceptionally let[s] its hash tables grow larger than the
	// cache" for PARTITIONALWAYS); ADAPTIVE and HASHINGONLY never do.
	ModeFinal
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeHash:
		return "hash"
	case ModePartition:
		return "partition"
	case ModeFinal:
		return "final"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Strategy decides, per run and per recursion level, which routine to use.
// Implementations must be stateless and safe for concurrent use; all
// mutable decision state lives in the StrategyState they create, which is
// task-local (one per bucket task / intake worker), matching the paper's
// design where "the different threads do not even need to take the same
// decision".
type Strategy interface {
	// Name returns the strategy's display name.
	Name() string
	// NewState creates decision state for one bucket processed at the
	// given recursion level; cacheRows is the row capacity of the
	// cache-sized hash table (the strategy's notion of "cache").
	NewState(level, cacheRows int) StrategyState
}

// StrategyState is the per-task decision state machine.
type StrategyState interface {
	// NextMode picks the routine for the next run.
	NextMode() Mode
	// OnTableEmit reports that a hash table filled up and was split,
	// with the observed reduction factor α = rowsIn/rowsOut.
	OnTableEmit(alpha float64)
	// OnPartitioned reports that n rows were scattered.
	OnPartitioned(n int)
}

// ---------------------------------------------------------------------------
// HASHINGONLY (Figure 4(a)): always hash; recursion depth emerges from the
// data — "HASHINGONLY automatically does the right number of passes".

type hashingOnly struct{}

// HashingOnly returns the strategy that uses the HASHING routine for every
// run at every level.
func HashingOnly() Strategy { return hashingOnly{} }

func (hashingOnly) Name() string { return "HashingOnly" }

func (hashingOnly) NewState(level, cacheRows int) StrategyState { return hashingOnlyState{} }

type hashingOnlyState struct{}

func (hashingOnlyState) NextMode() Mode      { return ModeHash }
func (hashingOnlyState) OnTableEmit(float64) {}
func (hashingOnlyState) OnPartitioned(int)   {}

// ---------------------------------------------------------------------------
// PARTITIONALWAYS (Figure 4(b,c)): a fixed number of partitioning passes
// followed by a single hashing pass with growing tables. Needs external
// knowledge of K to pick the right pass count — exactly the weakness the
// adaptive strategy removes.

type partitionAlways struct {
	passes int
}

// PartitionAlways returns the strategy that partitions for the first
// `passes` levels and then finishes with one (growing) hashing pass.
// passes must be at least 1.
func PartitionAlways(passes int) Strategy {
	if passes < 1 {
		panic("core: PartitionAlways needs at least one partitioning pass")
	}
	return partitionAlways{passes: passes}
}

func (s partitionAlways) Name() string { return fmt.Sprintf("PartitionAlways(%d)", s.passes) }

func (s partitionAlways) NewState(level, cacheRows int) StrategyState {
	return &partitionAlwaysState{passes: s.passes, level: level}
}

type partitionAlwaysState struct {
	passes int
	level  int
}

func (s *partitionAlwaysState) NextMode() Mode {
	if s.level < s.passes {
		return ModePartition
	}
	return ModeFinal
}
func (s *partitionAlwaysState) OnTableEmit(float64) {}
func (s *partitionAlwaysState) OnPartitioned(int)   {}

// ---------------------------------------------------------------------------
// PARTITIONONLY (Appendix A.1): partition at every level; hashing happens
// only through the framework's natural leaf finalization. Used to locate
// the α crossover against HASHINGONLY.

type partitionOnly struct{}

// PartitionOnly returns the strategy that always partitions (leaves are
// still finalized by the framework's in-cache hashing pass).
func PartitionOnly() Strategy { return partitionOnly{} }

func (partitionOnly) Name() string { return "PartitionOnly" }

func (partitionOnly) NewState(level, cacheRows int) StrategyState { return partitionOnlyState{} }

type partitionOnlyState struct{}

func (partitionOnlyState) NextMode() Mode      { return ModePartition }
func (partitionOnlyState) OnTableEmit(float64) {}
func (partitionOnlyState) OnPartitioned(int)   {}

// ---------------------------------------------------------------------------
// ADAPTIVE (Section 5): start hashing; when a table fills with reduction
// factor α < α₀, switch to the faster partitioning; after c·cacheRows
// partitioned rows, probe back with hashing in case the distribution
// changed.

// DefaultAlpha0 is the switching threshold α₀. The paper determines it
// empirically in Appendix A.1: the crossovers of HASHINGONLY and
// PARTITIONONLY "all intersect in the range of α ∈ [7, 16]"; the value with
// the smallest overall error "is roughly 11".
const DefaultAlpha0 = 11.0

// DefaultC is the amortization constant c: partitioning runs for
// c·cacheRows rows before hashing is probed again. Appendix A.2 finds
// c = 10 "a good compromise between amortization effect and reactivity to
// distribution changes".
const DefaultC = 10

type adaptive struct {
	alpha0 float64
	c      int
}

// Adaptive returns the paper's ADAPTIVE strategy with the given switching
// threshold α₀ and amortization constant c. α₀ ≤ 0 selects the paper's
// α₀ = 11 and c < 0 its c = 10. c = 0 leaves no partitioning budget:
// hashing is probed again at once after every switch, so the strategy
// routes rows exactly as HashingOnly does.
func Adaptive(alpha0 float64, c int) Strategy {
	if alpha0 <= 0 {
		alpha0 = DefaultAlpha0
	}
	if c < 0 {
		c = DefaultC
	}
	return adaptive{alpha0: alpha0, c: c}
}

// DefaultAdaptive returns Adaptive with the paper's constants.
func DefaultAdaptive() Strategy { return defaultAdaptive }

// defaultAdaptive is DefaultAdaptive's value, boxed once rather than per run.
var defaultAdaptive Strategy = adaptive{alpha0: DefaultAlpha0, c: DefaultC}

func (s adaptive) Name() string {
	return fmt.Sprintf("Adaptive(α₀=%g, c=%d)", s.alpha0, s.c)
}

func (s adaptive) NewState(level, cacheRows int) StrategyState {
	return &adaptiveState{alpha0: s.alpha0, budget: s.c * cacheRows}
}

type adaptiveState struct {
	alpha0       float64
	budget       int // c·cacheRows: partitioned rows before probing again
	partitioning bool
	left         int
	// Switches counts mode changes, for diagnostics and tests.
	Switches int
}

func (s *adaptiveState) NextMode() Mode {
	if s.partitioning && s.left <= 0 {
		// Amortization budget exhausted: probe with hashing again.
		s.partitioning = false
		s.Switches++
	}
	if s.partitioning {
		return ModePartition
	}
	return ModeHash
}

func (s *adaptiveState) OnTableEmit(alpha float64) {
	if alpha < s.alpha0 {
		// Hashing did not reduce the data enough: the locality is too low
		// for early aggregation to pay off. Use the faster partitioning
		// for the next c·cacheRows rows.
		s.partitioning = true
		s.left = s.budget
		s.Switches++
	}
	// α ≥ α₀: hashing was the right choice, keep hashing.
}

func (s *adaptiveState) OnPartitioned(n int) { s.left -= n }
