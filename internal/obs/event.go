// Package obs is the search telemetry subsystem: a per-searcher lock-free
// flight recorder of typed search events, an atomic metrics registry, and
// the Probe handle that internal/core threads through every search layer.
//
// Design constraints, in priority order:
//
//  1. Observation must never change what the search computes. Events and
//     metrics are strictly write-only side channels; nothing in this
//     package feeds a value back into search decisions.
//  2. A nil probe must cost one predictable branch per probe point. All
//     Probe and SearchObs methods are nil-receiver safe, and the hot
//     per-cut counters are not emitted per cut at all — they are flushed
//     as deltas at the search's existing poll cadence.
//  3. The enabled path must be allocation-free per event. Events are
//     fixed-size structs written into preallocated rings; metric updates
//     are single atomic adds.
package obs

import "fmt"

// Kind identifies the type of a recorded search event.
type Kind uint8

const (
	// KSearchStart marks the start of one block search. Tag is
	// "fn/block", A the operation count, C the parent span.
	KSearchStart Kind = iota
	// KSearchEnd marks the end of one block search. Tag is "fn/block",
	// A the SearchStatus code, B the merit found (-1 when none), C the
	// cuts considered.
	KSearchEnd
	// KIncumbent records an incumbent improvement: A the new merit, B
	// the cuts considered so far by the emitting searcher, C the node
	// rank at which the cut completed.
	KIncumbent
	// KPrune records a feasibility rejection (ports or convexity) at
	// node rank A.
	KPrune
	// KBound records a merit-upper-bound subtree cutoff at node rank A
	// with incumbent B (default search; never under Config.Paper).
	KBound
	// KSpecLaunch records the scheduler launching a speculative search.
	// Tag is "fn/block", A the per-cut limit m (0 for a single-cut or
	// collapse speculation), B is 1 for a speculative collapse.
	KSpecLaunch
	// KSpecAdopt records a speculative result adopted by the round
	// logic. Tag is "fn/block", A the per-cut limit m.
	KSpecAdopt
	// KSpecDiscard records a speculative result discarded as stale.
	// Tag is "fn/block".
	KSpecDiscard
	// KStop records a searcher observing a stop condition: A the
	// SearchStatus code (BudgetStopped, DeadlineExceeded, Canceled).
	KStop
	// KRescue records a §9 windowed rescue attempt after a trip. Tag is
	// "fn/block", A is 1 when the rescue found a cut, B its merit, C
	// the cuts the rescue examined.
	KRescue
	// KCollapse records a selection-round winner collapse. Tag is the
	// super-node name, A the selection round, B the cut size.
	KCollapse
	// KWarmSeed records a warm-start pass seeding the incumbent with
	// merit A before the exact search starts.
	KWarmSeed
	// KPanic records a recovered panic. Tag is "fn/block: message"
	// (truncated).
	KPanic
	// KGreedy records a greedy last-resort rescue attempt (the bottom
	// rung of the degradation ladder). Tag is "fn/block", A is 1 when
	// the rung produced a cut, B its merit, C the candidate count.
	KGreedy
	// KStall records a CPU-pool audit failure: Tag "cpupool-leak", A
	// the slots still held after every task exited, B the pool size.
	KStall
	// KDedup records a cross-block dedup lookup by the selection drivers.
	// Tag is "fn/block" of the requesting block, A is 1 on a hit (an
	// isomorphic block's identification was adopted) and 0 on a miss, B
	// the per-cut limit m (0 for the single-cut search).
	KDedup
	// KMemoCollision records the scheduler refusing to adopt a memoized
	// task whose graph is not structurally equal to the requested one (a
	// 64-bit fingerprint collision, or a divergent speculative slot). Tag
	// is "fn/block", A the per-cut limit m.
	KMemoCollision
	// KToggle records the iterative racer flushing its toggle-iteration
	// tally: A the toggles applied since the last flush, B the running
	// total for this racer.
	KToggle
	// KRestart records the racer starting KL restart A from a seed of
	// merit B and size C. Tag is "fn/block".
	KRestart
	// KRacerPublish records the racer publishing a Legal/Evaluate
	// revalidated incumbent: A its merit, B the restart that produced it,
	// C the cut size. Tag is "fn/block".
	KRacerPublish
	// KRacerAdopt records the anytime layer adopting the racer's best
	// answer after the exact search degraded: A the adopted merit, B the
	// merit the exact rungs had (or -1). Tag is "fn/block".
	KRacerAdopt
	// KStageStart marks a selection driver entering: one stage span per
	// SelectIterativeCtx/SelectOptimalCtx invocation. Tag is the driver
	// name ("select/iterative", "select/optimal"), A the parent span (0
	// at top level), B the instruction budget ninstr. The event's Span is
	// the freshly allocated stage span; block searches launched by the
	// driver carry it as their parent.
	KStageStart
	// KStageEnd marks the driver returning: A the number of instructions
	// selected, B the total merit, C the identification calls consumed.
	KStageEnd
	// KCellStart marks a DSE chain beginning one constraint group's
	// selection. Tag is "benchmark/target", A is Nin, B is Nout, C the
	// maximum Ninstr the group searches. The event's Span is the cell
	// span; the group's selection stage carries it as its parent.
	KCellStart
	// KCellEnd marks the constraint group done: A is Nin, B is Nout, C
	// the selection's total merit.
	KCellEnd
	// KSeedPut records a SeedBook storing an exhaustive winner: A its
	// merit, B the cut size. Tag is "fn/block".
	KSeedPut
	// KSeedHit records a SeedBook lookup arming a revalidated incumbent
	// seed of merit A (B is the cut size). Tag is "fn/block".
	KSeedHit
	// KSeedReject records a SeedBook lookup rejecting A stored cuts at
	// revalidation (illegal at the consuming ports, or non-positive
	// re-evaluated merit). Tag is "fn/block".
	KSeedReject

	// KindCount is the number of defined kinds; kinds are dense, so
	// Kind(i) for i < KindCount enumerates them (see AllKinds).
	KindCount = int(KSeedReject) + 1
	kindCount = KindCount
)

var kindNames = [kindCount]string{
	KSearchStart:   "search_start",
	KSearchEnd:     "search_end",
	KIncumbent:     "incumbent",
	KPrune:         "prune",
	KBound:         "bound",
	KSpecLaunch:    "spec_launch",
	KSpecAdopt:     "spec_adopt",
	KSpecDiscard:   "spec_discard",
	KStop:          "stop",
	KRescue:        "rescue",
	KCollapse:      "collapse",
	KWarmSeed:      "warm_seed",
	KPanic:         "panic",
	KGreedy:        "greedy_rescue",
	KStall:         "stall",
	KDedup:         "dedup",
	KMemoCollision: "memo_collision",
	KToggle:        "toggle",
	KRestart:       "restart",
	KRacerPublish:  "racer_publish",
	KRacerAdopt:    "racer_adopt",
	KStageStart:    "stage_start",
	KStageEnd:      "stage_end",
	KCellStart:     "cell_start",
	KCellEnd:       "cell_end",
	KSeedPut:       "seed_put",
	KSeedHit:       "seed_hit",
	KSeedReject:    "seed_reject",
}

// AllKinds enumerates every defined kind, in declaration order.
func AllKinds() []Kind {
	out := make([]Kind, KindCount)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String returns the stable wire name of the kind ("incumbent", "prune",
// ...) used by both export formats.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fixed-size flight-recorder entry. T is nanoseconds since
// the owning Recorder's epoch; Ring identifies the buffer that recorded
// it (one per searcher goroutine, plus the shared "sys" ring 0). The
// meaning of A, B, C and Tag depends on Kind; unused fields are zero.
//
// Span is the causal-span ID the event belongs to (0 = unscoped): block
// searches, selection stages and DSE cells each allocate one via
// NextSpan, and parent links ride the payload slots of the span's start
// event (KSearchStart.C, KStageStart.A, KCellStart.C) — so the flat
// timeline lifts into the stage → cell → block → ring tree without
// any per-event parent pointer. Span IDs are process-unique and
// allocation-order dependent; deterministic analyzer output must never
// expose raw IDs, only the relations they encode.
type Event struct {
	T    int64
	Ring int32
	Kind Kind
	Span int64
	A    int64
	B    int64
	C    int64
	Tag  string
}
