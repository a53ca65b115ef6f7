package core

import (
	"context"
	"math"

	"isex/internal/dfg"
	"isex/internal/latency"
	"isex/internal/obs"
)

// Config holds the microarchitectural constraints and search options.
type Config struct {
	// Nin and Nout are the register-file read and write ports available
	// to a special instruction (Problem 1, §5).
	Nin, Nout int
	// Model supplies software latencies and hardware delays (§7).
	// If nil, latency.Default() is used.
	Model *latency.Model

	// Paper runs the exact search exactly as §6.1 describes it, cutting
	// subtrees only on output ports and convexity. By default the search
	// also applies two prunings beyond the paper, both result-preserving
	// on terminating searches (same cut, same merit; only Stats shrink):
	//
	//   - input count: both exact searches drop subtrees where a cut
	//     already uses more than Nin *permanent* inputs — values that can
	//     never be absorbed into the cut (block live-ins, and producers
	//     already decided out of it on this search path). Sound because
	//     such inputs only accumulate along the search order.
	//   - merit bound: both exact searches drop subtrees whose admissible
	//     merit upper bound (current software gain plus all remaining
	//     includable software latency, minus the current hardware cycle
	//     count) cannot beat the incumbent or the iterative racer's
	//     published bound.
	//
	// Paper turns both off. It exists so the paper-reproduction figures
	// (Fig. 3, 7, 8, the run-time table and the ablation's "paper"
	// column) keep their published cut counts.
	Paper bool
	// StrictInterCut, in multiple-cut identification, rejects assignments
	// whose cuts depend on each other cyclically (they could not be
	// scheduled as atomic instructions). The paper performs only per-cut
	// convexity, so this defaults to off.
	StrictInterCut bool

	// MaxCuts aborts the search after considering this many cuts
	// (0 = unlimited). The incumbent found so far is returned with
	// Stats.Aborted set; the paper reports multi-hour runs for loose
	// constraints, which this valve bounds in test environments.
	MaxCuts int64
	// Window, when positive, replaces the exact search by the §9
	// windowed heuristic (see FindBestCutWindowed): overlapping
	// topological windows of this many nodes. Sound, possibly
	// sub-optimal; for blocks the exact search cannot finish.
	Window int
	// Parallel lets selection search independent basic blocks
	// concurrently (one goroutine per block in the initial round).
	// Results are identical to the serial run.
	Parallel bool
	// WarmStart seeds the exact search's incumbent from a cheap §9
	// windowed-heuristic pass before the search starts, so the merit
	// bound bites from the first node. The seed is applied at one merit
	// unit below the heuristic's best, which provably leaves the returned
	// cut and merit identical to a cold search while strictly shrinking
	// the explored tree. The warm pass is bounded by 2^warmWindow cuts per
	// window and is charged against neither MaxCuts nor the returned
	// Stats — the Stats describe the exact search alone, so a warm and a
	// cold run are directly comparable on the same tree.
	WarmStart bool
	// Speculate routes SelectOptimalCtx / SelectIterativeCtx (and, through
	// the latter, SelectAreaConstrainedCtx) through the selection-level
	// scheduler (see scheduler.go): idle CPU slots speculatively re-identify
	// runner-up blocks, results are memoized by graph fingerprint, and
	// every re-search is warm-started from the best already-known sound
	// bound. Selections are bit-identical to the serial greedy driver; the
	// extra searches are reported in SelectionResult.SpeculativeCalls /
	// CacheHits, never in IdentCalls. The scheduler admits its block
	// searches through a private CPUPool of runtime.GOMAXPROCS(0) slots,
	// one slot per search.
	Speculate bool
	// Dedup enables cross-block structural deduplication in the selection
	// drivers (SelectOptimalCtx, SelectIterativeCtx and their scheduled
	// variants): blocks — and collapsed re-search graphs — whose dataflow
	// graphs are isomorphic under the search order (dfg.OrderMatch) share
	// one identification. The winning cuts are translated through the node
	// renaming and revalidated with Legal/Evaluate on each block's own
	// graph (frequencies stay per-block), so selections are bit-identical
	// to a run without dedup; only the duplicate searches disappear.
	// Adopted results are reported in SelectionResult.DedupHits, never in
	// IdentCalls or Stats, and selected cuts that canonicalize identically
	// are grouped in SelectionResult.SharedInstructions. Off by default.
	Dedup bool
	// DedupCache, when non-nil (and Dedup set), replaces the selection
	// call's private cross-block memo with this shared, concurrency-safe
	// cache (see DedupCache): isomorphic blocks across selection calls —
	// e.g. different benchmarks at the same DSE grid point — then share
	// one identification. Nil keeps the per-call memo.
	DedupCache *DedupCache
	// ISEGen races an ISEGEN-style Kernighan–Lin toggle engine (see
	// isegen.go) against the exact search on blocks larger than the §9
	// fallback window. The racer publishes Legal/Evaluate-revalidated
	// incumbents into a CAS-max shared bound that the exact search folds
	// into its merit-bound cutoff at poll cadence — soundly, so
	// terminating exact searches stay bit-identical with the racer on or
	// off — and the anytime ladder adopts the racer's best answer
	// (RungIterative) only when the exact search did not terminate. Off
	// by default.
	ISEGen bool
	// Seeds, when non-nil, warm-starts every exact single-cut search from
	// the best stored cut for the graph's fingerprint and publishes each
	// exhaustive search's winner back into the book (see SeedBook). This
	// is how the DSE sweep shares incumbents across neighboring grid
	// points: constraint monotonicity makes a tight point's winner a legal
	// incumbent at every looser point, and the Legal/Evaluate revalidation
	// on lookup makes the transfer sound in every direction. Seeding uses
	// the W−1 rule, so completed searches are bit-identical with the book
	// present or absent; only the explored tree shrinks. Nil by default.
	Seeds *SeedBook
	// Pool, when non-nil, admission-gates every per-block search of the
	// non-speculative selection drivers on this shared CPUPool: each
	// in-flight block search holds exactly one slot for its duration, so
	// concurrent selection calls sharing one pool (the DSE sweep's grid
	// tasks) bound their total CPU draw to the pool's capacity instead of
	// multiplying. The speculative scheduler (Speculate) ignores it — it
	// brings its own pool of runtime.GOMAXPROCS(0) slots. Nil disables
	// gating.
	Pool *CPUPool
	// Probe, when non-nil, enables the search telemetry subsystem: a
	// flight recorder of typed search events, an atomic metrics
	// registry, or both (see internal/obs). Observation is strictly
	// write-only — results, Stats and Status are bit-identical with the
	// probe on or off — and a nil probe costs one predictable branch
	// per probe point. Sub-searches too fine-grained to trace (windowed
	// heuristic windows, warm-start passes) automatically drop the
	// flight recorder but keep feeding the metrics.
	Probe *obs.Probe

	// Incumbent seeding for the selection scheduler (package-internal; see
	// scheduler.go). When seedOn is set, the search starts with its
	// recording threshold at seedMerit−1 and the witness (seedCut for the
	// single-cut search, seedCuts for the multi-cut search) as incumbent —
	// provably result-preserving exactly like WarmStart, because any cut
	// (assignment) of merit ≥ seedMerit, the known optimum's lower bound,
	// is still recorded in DFS order. Callers must guarantee the witness
	// is legal on the searched graph with exactly merit seedMerit.
	seedOn    bool
	seedMerit int64
	seedCut   dfg.Cut
	seedCuts  []dfg.Cut

	// race attaches the block's iterative racer (package-internal; set by
	// the anytime layer when ISEGen launches one). The searcher folds
	// race.bound into its merit-bound cutoff at poll cadence and the
	// warm-start paths exchange seeds with it. Recursive passes that
	// search Restrict views (windowed heuristic, warm pass) must nil it:
	// a full-graph bound is not sound on a window.
	race *racerHandle
}

// withSeed arms incumbent seeding (see the seed fields above).
func (c Config) withSeed(merit int64, cut dfg.Cut, cuts []dfg.Cut) Config {
	if merit <= 0 || (cut == nil && cuts == nil) {
		return c
	}
	c.seedOn = true
	c.seedMerit = merit
	c.seedCut = cut
	c.seedCuts = cuts
	return c
}

// stripSeed removes incumbent seeding; the windowed heuristic and the
// warm pass must run cold (a seed cut need not be legal on a Restrict
// view, and the seed must never leak into recursive passes).
func (c Config) stripSeed() Config {
	c.seedOn = false
	c.seedMerit = 0
	c.seedCut = nil
	c.seedCuts = nil
	return c
}

func (c Config) model() *latency.Model {
	if c.Model != nil {
		return c.Model
	}
	return latency.Default()
}

// Stats describes one identification run.
type Stats struct {
	// CutsConsidered counts 1-branches taken, i.e. distinct cuts reached
	// by the search — the quantity plotted in Fig. 8 and traced in Fig. 7.
	CutsConsidered int64
	// Passed counts cuts that satisfied the output-port and convexity
	// checks (Fig. 7's "passed" nodes).
	Passed int64
	// Pruned counts 1-branches whose subtree was eliminated after a
	// failed output-port or convexity check (Fig. 7's "failed" nodes).
	Pruned int64
	// Aborted reports that the MaxCuts valve stopped the search early.
	Aborted bool
}

func (s *Stats) add(o Stats) {
	s.CutsConsidered += o.CutsConsidered
	s.Passed += o.Passed
	s.Pruned += o.Pruned
	s.Aborted = s.Aborted || o.Aborted
}

// Result is the outcome of a single-cut identification.
type Result struct {
	Found bool
	Cut   dfg.Cut
	Est   Estimate
	Stats Stats
	// Status reports how the search ended; anything but Exhaustive means
	// the result is a best-so-far lower bound, not a proven optimum.
	Status SearchStatus
	// Err carries the first panic recovered inside the block's iterative
	// racer (Config.ISEGen; message plus truncated stack), set by the
	// anytime ladder even when Status stayed Exhaustive. Nil otherwise.
	Err error

	// prev* expose the runner-up incumbent — the cut the winner displaced
	// last. It is a legal cut of the searched graph with merit prevMerit, used by the
	// selection scheduler to warm-start post-collapse re-searches; it is a
	// heuristic second-best (sound as a seed, not guaranteed to be the
	// true runner-up) and deliberately unexported.
	prevFound bool
	prevMerit int64
	prevCut   dfg.Cut
}

// FindBestCut solves Problem 1 (§5) exactly on one graph: it returns the
// convex cut S maximizing M(S) subject to IN(S) ≤ Nin and OUT(S) ≤ Nout,
// using the search-tree algorithm of §6.1 with output-port and convexity
// subtree elimination. Found is false when no cut has positive merit.
func FindBestCut(g *dfg.Graph, cfg Config) Result {
	return FindBestCutCtx(context.Background(), g, cfg)
}

// FindBestCutCtx is FindBestCut under a context: the search polls
// ctx every ctxCheckInterval visited nodes and, on expiry or
// cancellation, returns the incumbent with Status set accordingly.
func FindBestCutCtx(ctx context.Context, g *dfg.Graph, cfg Config) Result {
	if cfg.Window > 0 && cfg.Window < g.NumOps() {
		w := cfg.Window
		cfg.Window = 0
		return FindBestCutWindowedCtx(ctx, g, cfg, w)
	}
	if cfg.Seeds != nil {
		// Detach the book, upgrade the incumbent seed from it, run the
		// search normally, and publish the winner back. Only exhaustive
		// winners are stored: a deadline-stopped incumbent depends on
		// timing, and the book must stay a function of completed work (see
		// SeedBook on determinism).
		book, fp := cfg.Seeds, g.Fingerprint()
		cfg.Seeds = nil
		cfg = book.applySeed(g, fp, cfg)
		res := FindBestCutCtx(ctx, g, cfg)
		if res.Found && res.Status == Exhaustive {
			if book.put(fp, res.Cut) {
				cfg.Probe.SeedPut(g.Fn.Name+"/"+g.Block.Name, res.Est.Merit, len(res.Cut))
			}
		}
		return res
	}
	s := newSearcher(g, cfg)
	s.ctx = ctx
	s.obs = cfg.Probe.Attach()
	if cfg.seedOn && cfg.seedMerit > 0 && len(cfg.seedCut) > 0 {
		s.seedIncumbent(Result{Found: true, Cut: cfg.seedCut, Est: Estimate{Merit: cfg.seedMerit}})
		if cfg.race != nil {
			cfg.race.donate(cfg.seedCut) // scheduler seed warms the racer too
		}
	}
	if cfg.WarmStart && g.NumOps() > warmWindow {
		w := findWarmIncumbent(ctx, g, cfg)
		if w.Found {
			s.seedIncumbent(w) // keeps the better of seed and warm
			s.obs.WarmSeed(w.Est.Merit)
			if cfg.race != nil {
				cfg.race.donate(w.Cut) // §9 windowed cut warms the racer
			}
		}
		if w.Status != Exhaustive {
			res := Result{Status: w.Status}
			res.Stats.Aborted = true
			if s.bestFound && s.bestCut != nil {
				res.Found = true
				res.Cut = s.bestCut.Canon()
				res.Est = Evaluate(g, res.Cut, cfg.model())
			}
			return res
		}
	}
	if cfg.race != nil {
		// Best-of warm start: whatever the racer has already proven
		// achievable seeds the exact search exactly like a windowed warm
		// cut (threshold merit−1, result-preserving).
		if inc, ok := cfg.race.incumbentResult(); ok {
			s.seedIncumbent(inc)
		}
	}
	s.run()
	res := Result{Stats: s.stats, Status: s.stop}
	if s.bestFound && s.bestCut != nil {
		res.Found = true
		res.Cut = s.bestCut.Canon()
		res.Est = Evaluate(g, res.Cut, cfg.model())
	}
	if s.prevCut != nil {
		res.prevFound, res.prevMerit = true, s.prevMerit
		res.prevCut = s.prevCut.Canon()
	}
	return res
}

// warmWindow sizes the §9 windowed pass that warm-starts the exact
// search's incumbent (Config.WarmStart). Each window's search is bounded by
// 2^warmWindow cuts, so the pass is always cheap relative to the exact
// search it accelerates.
const warmWindow = 12

// findWarmIncumbent runs the cheap windowed pass that seeds the exact
// search's incumbent. It strips every recursive option: a window value
// would re-enter the heuristic, WarmStart would recurse, and MaxCuts
// would charge the seed against the caller's budget.
func findWarmIncumbent(ctx context.Context, g *dfg.Graph, cfg Config) Result {
	cfg.Window = 0
	cfg.WarmStart = false
	cfg.MaxCuts = 0
	cfg.Parallel = false
	// The warm pass still feeds the metrics registry (its work is real
	// engine work), but never the flight recorder — its per-window
	// events would drown the exact search's timeline.
	// The warm pass searches Restrict views; the block-level racer bound
	// is not sound there (see Config.race).
	cfg.race = nil
	cfg.Seeds = nil // a book seed need not be legal on a Restrict view
	cfg.Probe = cfg.Probe.MetricsOnly()
	return FindBestCutWindowedCtx(ctx, g, cfg.stripSeed(), warmWindow)
}

// searcher holds the incremental state of §6.1. All per-node arrays are
// indexed by node ID. The search decides operation nodes in OpOrder
// (consumers before producers), so at any point every consumer of a
// decided node is itself decided; this makes OUT(S) and the convexity
// check exact and monotone (see §6.1 of the paper and DESIGN.md §5).
type searcher struct {
	g     *dfg.Graph
	cfg   Config
	model *latency.Model
	order []int
	freq  int64

	inCut []bool
	reach []bool // for decided nodes: can this node reach the cut?
	// refCnt[p] counts cut members consuming p (data edges); a non-member
	// with refCnt > 0 is an input.
	refCnt []int
	inputs int
	permIn int // inputs that can never be absorbed on this path
	out    int
	sw     int64
	lenTo  []float64 // longest data path from a member through the cut
	crit   float64

	// futSW[rank] is the total software latency of includable nodes at
	// ranks ≥ rank (the admissible merit bound).
	futSW []int64

	bestFound bool
	bestCut   dfg.Cut
	bestMerit int64
	// prev* track the last displaced incumbent (see Result.prevCut).
	prevFound bool
	prevMerit int64
	prevCut   dfg.Cut
	stats     Stats
	// ctx is polled every ctxCheckInterval visited nodes (ticks); stop
	// records why the search ended early (Exhaustive while running).
	ctx  context.Context
	stop SearchStatus
	tick int64

	// obs is the searcher's telemetry attachment (nil when observability
	// is off — the only cost is then the nil checks at the probe
	// points). boundCuts counts merit-bound subtree cutoffs; it is only
	// maintained while observed, feeding the metrics registry via
	// flushObs, never the search itself.
	obs       *obs.SearchObs
	boundCuts int64

	// racerBound is the last observed racer bound (see pollRacer);
	// MinInt64 while no racer has published — the pruning comparison
	// then never fires.
	racerBound int64
	// curRank is the rank of the innermost live visit frame, reported
	// with incumbent events.
	curRank int
}

func newSearcher(g *dfg.Graph, cfg Config) *searcher {
	m := cfg.model()
	s := &searcher{
		g:          g,
		cfg:        cfg,
		model:      m,
		order:      g.OpOrder,
		freq:       weight(g.Block.Freq),
		inCut:      make([]bool, len(g.Nodes)),
		reach:      make([]bool, len(g.Nodes)),
		refCnt:     make([]int, len(g.Nodes)),
		lenTo:      make([]float64, len(g.Nodes)),
		racerBound: math.MinInt64,
	}
	s.futSW = make([]int64, len(s.order)+1)
	for r := len(s.order) - 1; r >= 0; r-- {
		n := &g.Nodes[s.order[r]]
		s.futSW[r] = s.futSW[r+1]
		if !n.Forbidden {
			s.futSW[r] += int64(m.SW(n.Op))
		}
	}
	return s
}

// seedIncumbent warm-starts the incumbent from a windowed-heuristic (or
// scheduler-supplied) result of merit W: the threshold is W−1, so any cut
// of merit ≥ W — including the first one the cold search would have
// recorded — still replaces the seed, which keeps the returned cut
// bit-identical to a cold run while the merit bound skips everything
// provably below W. When the searcher already carries a seed, only a strictly
// better one replaces it.
func (s *searcher) seedIncumbent(w Result) {
	if s.bestFound && w.Est.Merit-1 <= s.bestMerit {
		return
	}
	s.bestFound = true
	s.bestMerit = w.Est.Merit - 1
	s.bestCut = append(dfg.Cut(nil), w.Cut...)
}

func (s *searcher) run() {
	s.poll()
	s.visit(0)
	s.stats.Aborted = s.stop != Exhaustive
	s.flushObs()
}

// flushObs publishes the searcher's running tallies into the metrics
// registry as deltas (see obs.SearchObs.FlushStats). Called at poll
// cadence and at search end; a no-op when observability is off.
func (s *searcher) flushObs() {
	if s.obs != nil {
		s.obs.FlushStats(s.stats.CutsConsidered, s.stats.Passed, s.stats.Pruned, s.boundCuts)
	}
}

// observeStop reports the searcher noticing its stop condition (s.stop
// already set) to the telemetry subsystem.
func (s *searcher) observeStop() {
	if s.obs == nil {
		return
	}
	s.flushObs()
	s.obs.Stop(int64(s.stop), s.stop == DeadlineExceeded, s.stop == BudgetStopped, s.stop == Canceled)
}

// poll checks the context and refreshes the racer bound. It runs at
// search entry and every ctxCheckInterval visited nodes — on
// both branches, so a long run of 0-branches or forbidden nodes cannot
// outlive a cancellation (the old poll fired only on 1-branches).
func (s *searcher) poll() {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.stop = statusOfCtx(err)
			s.observeStop()
			return
		}
	}
	s.pollRacer()
	s.flushObs()
}

// pollRacer folds the iterative racer's published achievable-merit bound
// into racerBound, the merit-bound cutoff. Racer merits are Legal/Evaluate
// revalidated lower bounds of the optimum and visit's cutoff is strictly
// `ub < bound`, so the fold can only skip subtrees provably at or below
// an achievable merit: terminating searches stay bit-identical, only
// Stats shrink.
func (s *searcher) pollRacer() {
	if s.cfg.race == nil {
		return
	}
	if v := s.cfg.race.boundLoad(); v > s.racerBound {
		s.racerBound = v
	}
}

// meritOf converts the current (non-empty) cut state into merit. The
// instruction always costs at least one cycle.
func (s *searcher) meritOf() int64 {
	hw := latency.CyclesOf(s.crit)
	if hw < 1 {
		hw = 1
	}
	return (s.sw - int64(hw)) * s.freq
}

// meritUB is the admissible upper bound of the subtree rooted at rank:
// current software gain plus all remaining includable software latency,
// minus the current hardware cycle count.
func (s *searcher) meritUB(rank int) int64 {
	return (s.sw + s.futSW[rank] - int64(latency.CyclesOf(s.crit))) * s.freq
}

// convexOK reports whether including node keeps the cut convex: a
// violation appears iff some already-decided consumer of it is outside
// the cut yet can reach the cut (§6.1).
func (s *searcher) convexOK(node *dfg.Node) bool {
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind == dfg.KindOp && !s.inCut[sc] && s.reach[sc] {
			return false
		}
	}
	for _, sc := range node.OrderSuccs {
		if !s.inCut[sc] && s.reach[sc] {
			return false
		}
	}
	return true
}

// inclUndo captures what applyInclude changed beyond the per-node
// arrays, so undoInclude can restore the state exactly.
type inclUndo struct {
	isOut     bool
	absorbed  bool
	newPermIn int
	prevCrit  float64
}

// applyInclude adds node id to the cut, updating the incremental IN/OUT,
// software-latency, permanent-input and critical-path state.
func (s *searcher) applyInclude(id int, node *dfg.Node) inclUndo {
	var u inclUndo
	s.inCut[id] = true
	s.reach[id] = true
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind != dfg.KindOp || !s.inCut[sc] {
			u.isOut = true
			break
		}
	}
	if u.isOut {
		s.out++
	}
	u.absorbed = s.refCnt[id] > 0
	if u.absorbed {
		s.inputs--
	}
	for _, p := range node.Preds {
		s.refCnt[p]++
		if s.refCnt[p] == 1 && !s.inCut[p] {
			s.inputs++
			if s.g.Nodes[p].Kind == dfg.KindIn {
				u.newPermIn++ // live-ins can never join the cut
			}
		}
	}
	s.permIn += u.newPermIn
	s.sw += int64(s.model.SW(node.Op))
	best := 0.0
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind == dfg.KindOp && s.inCut[sc] && s.lenTo[sc] > best {
			best = s.lenTo[sc]
		}
	}
	s.lenTo[id] = best + s.model.HW(node.Op)
	u.prevCrit = s.crit
	if s.lenTo[id] > s.crit {
		s.crit = s.lenTo[id]
	}
	return u
}

func (s *searcher) undoInclude(id int, node *dfg.Node, u inclUndo) {
	s.crit = u.prevCrit
	s.lenTo[id] = 0
	s.sw -= int64(s.model.SW(node.Op))
	s.permIn -= u.newPermIn
	for _, p := range node.Preds {
		if s.refCnt[p] == 1 && !s.inCut[p] {
			s.inputs--
		}
		s.refCnt[p]--
	}
	if u.absorbed {
		s.inputs++
	}
	if u.isOut {
		s.out--
	}
	s.reach[id] = false
	s.inCut[id] = false
}

// applyExclude decides node id out of the cut: reach propagates from its
// successors, and a producer already consumed by the cut becomes a
// permanent input. Returns the permanent-input delta for undoExclude.
func (s *searcher) applyExclude(id int, node *dfg.Node) int {
	r := false
	for _, sc := range node.Succs {
		if s.reach[sc] {
			r = true
			break
		}
	}
	if !r {
		for _, sc := range node.OrderSuccs {
			if s.reach[sc] {
				r = true
				break
			}
		}
	}
	s.reach[id] = r
	exclPermIn := 0
	if s.refCnt[id] > 0 {
		exclPermIn = 1 // this producer is now permanently an input
	}
	s.permIn += exclPermIn
	return exclPermIn
}

func (s *searcher) undoExclude(id int, exclPermIn int) {
	s.permIn -= exclPermIn
	s.reach[id] = false
}

// record considers the current cut as an incumbent. The strict
// comparison keeps the first cut (in search order) of each merit level,
// which is what makes seeded and racer-bounded runs return the cold
// search's cut.
func (s *searcher) record() {
	m := s.meritOf()
	if m <= 0 || (s.bestFound && m <= s.bestMerit) {
		return
	}
	if s.bestCut != nil {
		// The displaced incumbent becomes the runner-up (bestCut is
		// replaced wholesale below, so aliasing it is safe).
		s.prevFound, s.prevMerit, s.prevCut = true, s.bestMerit, s.bestCut
	}
	s.bestFound = true
	s.bestMerit = m
	s.bestCut = s.currentCut()
	if s.obs != nil {
		s.obs.Incumbent(m, s.stats.CutsConsidered, s.curRank)
	}
}

func (s *searcher) visit(rank int) {
	if s.stop != Exhaustive || rank == len(s.order) {
		return
	}
	s.curRank = rank
	s.tick++
	if s.tick&(ctxCheckInterval-1) == 0 {
		s.poll()
		if s.stop != Exhaustive {
			return
		}
	}
	if !s.cfg.Paper {
		ub := s.meritUB(rank)
		if (s.bestFound && ub <= s.bestMerit) || ub < s.racerBound {
			if s.obs != nil {
				s.boundCuts++
				s.obs.Bound(rank, s.bestMerit)
			}
			return
		}
	}
	id := s.order[rank]
	node := &s.g.Nodes[id]

	// 1-branch: include the node (Fig. 5 explores it first).
	if !node.Forbidden {
		if s.cfg.MaxCuts > 0 && s.stats.CutsConsidered >= s.cfg.MaxCuts {
			s.stop = BudgetStopped
			s.observeStop()
			return
		}
		s.stats.CutsConsidered++
		convOK := s.convexOK(node)
		u := s.applyInclude(id, node)
		if convOK && s.out <= s.cfg.Nout {
			s.stats.Passed++
			if s.inputs <= s.cfg.Nin {
				s.record()
			}
			if s.cfg.Paper || s.permIn <= s.cfg.Nin {
				s.visit(rank + 1)
			}
		} else {
			s.stats.Pruned++
			if s.obs != nil {
				s.obs.Pruned(rank)
			}
		}
		s.undoInclude(id, node, u)
	}

	// 0-branch: exclude the node.
	exclPermIn := s.applyExclude(id, node)
	if s.cfg.Paper || s.permIn <= s.cfg.Nin {
		s.visit(rank + 1)
	}
	s.undoExclude(id, exclPermIn)
}

func (s *searcher) currentCut() dfg.Cut {
	var c dfg.Cut
	for id, in := range s.inCut {
		if in {
			c = append(c, id)
		}
	}
	return c
}
