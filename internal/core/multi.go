package core

import (
	"context"
	"math"

	"isex/internal/dfg"
	"isex/internal/latency"
	"isex/internal/obs"
)

// MultiResult is the outcome of a multiple-cut identification (§6.2).
type MultiResult struct {
	Found bool
	// Cuts holds the non-empty cuts of the best assignment, each canonical.
	Cuts []dfg.Cut
	// Ests are the per-cut estimates, aligned with Cuts.
	Ests []Estimate
	// TotalMerit is the summed merit.
	TotalMerit int64
	Stats      Stats
	// Status reports how the search ended; anything but Exhaustive means
	// the assignment is a best-so-far lower bound, not a proven optimum.
	Status SearchStatus
	// Err carries the first panic recovered inside the block's iterative
	// racer; see Result.Err.
	Err error
}

// FindBestCuts identifies up to m disjoint cuts in one graph that jointly
// maximize total merit, each cut independently satisfying the port and
// convexity constraints. This is the (M+1)-ary search tree of §6.2
// (Fig. 9): at every level a node either joins one of the m cuts or none.
// Cut labels are symmetric, so the search only opens cut k after cut k−1
// is non-empty.
//
// StrictInterCut (an extension, see Config) additionally rejects
// assignments whose cuts depend on each other cyclically and hence could
// not be scheduled as atomic instructions; the paper does not perform
// this check, so it defaults to off.
func FindBestCuts(g *dfg.Graph, m int, cfg Config) MultiResult {
	return FindBestCutsCtx(context.Background(), g, m, cfg)
}

// FindBestCutsCtx is FindBestCuts under a context: the search polls ctx
// every ctxCheckInterval visited nodes and, on expiry or cancellation,
// returns the incumbent assignment with Status set accordingly.
func FindBestCutsCtx(ctx context.Context, g *dfg.Graph, m int, cfg Config) MultiResult {
	if m < 1 {
		return MultiResult{}
	}
	s := newMultiSearcher(g, m, cfg)
	s.ctx = ctx
	s.obs = cfg.Probe.Attach()
	if cfg.seedOn && cfg.seedMerit > 0 && len(cfg.seedCuts) > 0 {
		s.seedAssignment(cfg.seedCuts, cfg.seedMerit)
	}
	s.run()
	res := MultiResult{Stats: s.stats, Status: s.stop}
	res.Stats.Aborted = s.stop != Exhaustive
	if s.bestFound && s.bestCuts != nil {
		res.Found = true
		fillMultiResult(&res, g, s.bestCuts, cfg.model())
	}
	return res
}

// fillMultiResult canonicalizes an assignment's non-empty cuts into res.
func fillMultiResult(res *MultiResult, g *dfg.Graph, cuts []dfg.Cut, model *latency.Model) {
	for _, c := range cuts {
		if len(c) == 0 {
			continue
		}
		cc := c.Canon()
		res.Cuts = append(res.Cuts, cc)
		est := Evaluate(g, cc, model)
		res.Ests = append(res.Ests, est)
		res.TotalMerit += est.Merit
	}
}

type multiSearcher struct {
	g     *dfg.Graph
	cfg   Config
	model *latency.Model
	order []int
	freq  int64
	m     int

	assign []int // node id -> cut number 1..m, or 0
	// Per-cut state, indexed [cut][nodeID] or [cut].
	reach  [][]bool
	refCnt [][]int
	lenTo  [][]float64
	inputs []int
	permIn []int // per cut: inputs that can never be absorbed on this path
	out    []int
	sw     []int64
	crit   []float64
	sizes  []int // members per cut

	// futSW[rank] is the total software latency of includable nodes at
	// ranks ≥ rank. Each future node joins at most one cut and raises
	// that cut's merit by at most sw(op)·freq (hardware cycles never
	// shrink, and a cut opened later still pays ≥ 1 cycle), so
	// totalMerit() + futSW[rank]·freq is an admissible merit bound on
	// the (M+1)-ary tree too.
	futSW []int64

	// bestFound/bestMerit form the recording threshold; bestCuts is the
	// incumbent assignment (a seed witness until the search records one).
	bestFound bool
	bestMerit int64
	bestCuts  []dfg.Cut
	stats     Stats
	// ctx is polled every ctxCheckInterval visited nodes (ticks); stop
	// records why the search ended early (Exhaustive while running).
	ctx  context.Context
	stop SearchStatus
	tick int64

	// obs/boundCuts: telemetry attachment, exactly as in searcher.
	obs       *obs.SearchObs
	boundCuts int64

	// racerBound and curRank: as in searcher.
	racerBound int64
	curRank    int
}

func newMultiSearcher(g *dfg.Graph, m int, cfg Config) *multiSearcher {
	s := &multiSearcher{
		g:          g,
		cfg:        cfg,
		model:      cfg.model(),
		order:      g.OpOrder,
		freq:       weight(g.Block.Freq),
		m:          m,
		assign:     make([]int, len(g.Nodes)),
		inputs:     make([]int, m+1),
		permIn:     make([]int, m+1),
		out:        make([]int, m+1),
		sw:         make([]int64, m+1),
		crit:       make([]float64, m+1),
		sizes:      make([]int, m+1),
		racerBound: math.MinInt64,
	}
	s.futSW = make([]int64, len(s.order)+1)
	for r := len(s.order) - 1; r >= 0; r-- {
		n := &g.Nodes[s.order[r]]
		s.futSW[r] = s.futSW[r+1]
		if !n.Forbidden {
			s.futSW[r] += int64(s.model.SW(n.Op))
		}
	}
	s.reach = make([][]bool, m+1)
	s.refCnt = make([][]int, m+1)
	s.lenTo = make([][]float64, m+1)
	for k := 1; k <= m; k++ {
		s.reach[k] = make([]bool, len(g.Nodes))
		s.refCnt[k] = make([]int, len(g.Nodes))
		s.lenTo[k] = make([]float64, len(g.Nodes))
	}
	return s
}

// seedAssignment warm-starts the incumbent from a known-sound assignment
// of total merit W (e.g. the scheduler's M-cut optimum reused at M+1,
// where it remains feasible because the extra cuts may stay empty). As
// with searcher.seedIncumbent, the threshold is W−1 with the witness
// kept, so the first assignment of merit ≥ W found in search order still
// replaces the seed and the returned result stays bit-identical to a
// cold run; only the merit bound exploits the raised bar.
func (s *multiSearcher) seedAssignment(cuts []dfg.Cut, merit int64) {
	if s.bestFound && merit-1 <= s.bestMerit {
		return
	}
	s.bestFound = true
	s.bestMerit = merit - 1
	s.bestCuts = make([]dfg.Cut, len(cuts))
	for i, c := range cuts {
		s.bestCuts[i] = append(dfg.Cut(nil), c...)
	}
}

func (s *multiSearcher) run() {
	s.poll()
	s.visit(0)
	s.flushObs()
}

// flushObs and observeStop mirror searcher's (see single.go).
func (s *multiSearcher) flushObs() {
	if s.obs != nil {
		s.obs.FlushStats(s.stats.CutsConsidered, s.stats.Passed, s.stats.Pruned, s.boundCuts)
	}
}

func (s *multiSearcher) observeStop() {
	if s.obs == nil {
		return
	}
	s.flushObs()
	s.obs.Stop(int64(s.stop), s.stop == DeadlineExceeded, s.stop == BudgetStopped, s.stop == Canceled)
}

// poll checks the context and refreshes the racer bound. It runs at
// search entry
// and every ctxCheckInterval visited nodes — on both branches, so a long
// run of 0-branches or forbidden nodes cannot outlive a cancellation.
func (s *multiSearcher) poll() {
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

// pollRacer folds the iterative racer's published single-cut merit into
// racerBound, the merit-bound cutoff. Sound on the (M+1)-ary tree too: the
// racer's cut alone is a feasible assignment (the other cuts stay
// empty), so its revalidated merit is an achievable lower bound of the
// optimal total merit, and the strict `ub < bound` cutoff can never
// prune the DFS-first optimal assignment.
func (s *multiSearcher) pollRacer() {
	if s.cfg.race == nil {
		return
	}
	if v := s.cfg.race.boundLoad(); v > s.racerBound {
		s.racerBound = v
	}
}

// totalMerit sums the merit of all non-empty cuts in the current state.
func (s *multiSearcher) totalMerit() int64 {
	var total int64
	for k := 1; k <= s.m; k++ {
		if s.sizes[k] == 0 {
			continue
		}
		hw := latency.CyclesOf(s.crit[k])
		if hw < 1 {
			hw = 1
		}
		total += (s.sw[k] - int64(hw)) * s.freq
	}
	return total
}

// maxOpenCut returns the highest cut label the symmetry-breaking rule
// admits at this point: cut k may be opened only if cut k−1 is in use.
func (s *multiSearcher) maxOpenCut() int {
	maxK := 0
	for k := 1; k <= s.m; k++ {
		maxK = k
		if s.sizes[k] == 0 {
			break
		}
	}
	return maxK
}

func (s *multiSearcher) visit(rank int) {
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
		ub := s.totalMerit() + s.futSW[rank]*s.freq
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

	if !node.Forbidden {
		maxK := s.maxOpenCut()
		for k := 1; k <= maxK; k++ {
			if s.stop != Exhaustive {
				return
			}
			if s.cfg.MaxCuts > 0 && s.stats.CutsConsidered >= s.cfg.MaxCuts {
				s.stop = BudgetStopped
				s.observeStop()
				return
			}
			s.stats.CutsConsidered++
			s.tryInclude(rank, id, k)
		}
	}

	// 0-branch: update reach for every cut.
	saved := s.applyExcludeReach(id)
	s.markPermanent(id, 0, 1)
	if s.inputsFeasible() {
		s.visit(rank + 1)
	}
	s.markPermanent(id, 0, -1)
	s.undoExcludeReach(id, saved)
}

// applyExcludeReach decides node id out of every cut, propagating reach;
// it returns the saved per-cut reach bits for undoExcludeReach.
func (s *multiSearcher) applyExcludeReach(id int) []bool {
	saved := make([]bool, s.m+1)
	for k := 1; k <= s.m; k++ {
		saved[k] = s.reach[k][id]
		s.reach[k][id] = s.reachVia(k, id)
	}
	return saved
}

func (s *multiSearcher) undoExcludeReach(id int, saved []bool) {
	for k := 1; k <= s.m; k++ {
		s.reach[k][id] = saved[k]
	}
}

// markPermanent adds delta to the permanent-input count of every cut
// other than k that consumes node id: once id is decided (into cut k, or
// out of every cut when k is 0) it can never join them. Its consumers
// are all decided before it, so the set of consuming cuts is the same
// when the decision is undone. A no-op on the paper's search
// (Config.Paper), which never reads the counts.
func (s *multiSearcher) markPermanent(id, k, delta int) {
	if s.cfg.Paper {
		return
	}
	for j := 1; j <= s.m; j++ {
		if j != k && s.refCnt[j][id] > 0 {
			s.permIn[j] += delta
		}
	}
}

// inputsFeasible reports whether every cut can still meet Nin. Permanent
// inputs only accumulate along the search order, so a cut over Nin stays
// over it in the whole subtree and no assignment there can be recorded.
// Always true on the paper's search (Config.Paper).
func (s *multiSearcher) inputsFeasible() bool {
	if s.cfg.Paper {
		return true
	}
	for k := 1; k <= s.m; k++ {
		if s.permIn[k] > s.cfg.Nin {
			return false
		}
	}
	return true
}

// reachVia reports whether any successor of id can reach cut k.
func (s *multiSearcher) reachVia(k, id int) bool {
	for _, sc := range s.g.Nodes[id].Succs {
		if s.reach[k][sc] {
			return true
		}
	}
	for _, sc := range s.g.Nodes[id].OrderSuccs {
		if s.reach[k][sc] {
			return true
		}
	}
	return false
}

// convexOKFor reports whether assigning node to cut k keeps k convex.
func (s *multiSearcher) convexOKFor(node *dfg.Node, k int) bool {
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind == dfg.KindOp && s.assign[sc] != k && s.reach[k][sc] {
			return false
		}
	}
	for _, sc := range node.OrderSuccs {
		if s.assign[sc] != k && s.reach[k][sc] {
			return false
		}
	}
	return true
}

// assignUndo captures what applyAssign changed beyond the per-node
// arrays, so undoAssign can restore the state exactly.
type assignUndo struct {
	savedReach []bool
	isOut      bool
	absorbed   bool
	newPermIn  int
	prevCrit   float64
}

// applyAssign puts node id into cut k, updating the incremental per-cut
// IN/OUT, software-latency, permanent-input and critical-path state.
func (s *multiSearcher) applyAssign(id int, node *dfg.Node, k int) assignUndo {
	u := assignUndo{savedReach: make([]bool, s.m+1)}
	s.assign[id] = k
	s.sizes[k]++
	for j := 1; j <= s.m; j++ {
		u.savedReach[j] = s.reach[j][id]
		if j == k {
			s.reach[j][id] = true
		} else {
			s.reach[j][id] = s.reachVia(j, id)
		}
	}
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind != dfg.KindOp || s.assign[sc] != k {
			u.isOut = true
			break
		}
	}
	if u.isOut {
		s.out[k]++
	}
	u.absorbed = s.refCnt[k][id] > 0
	if u.absorbed {
		s.inputs[k]--
	}
	for _, p := range node.Preds {
		s.refCnt[k][p]++
		if s.refCnt[k][p] == 1 && s.assign[p] != k {
			s.inputs[k]++
			if s.g.Nodes[p].Kind == dfg.KindIn {
				u.newPermIn++ // live-ins can never join the cut
			}
		}
	}
	s.permIn[k] += u.newPermIn
	s.markPermanent(id, k, 1)
	s.sw[k] += int64(s.model.SW(node.Op))
	best := 0.0
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind == dfg.KindOp && s.assign[sc] == k && s.lenTo[k][sc] > best {
			best = s.lenTo[k][sc]
		}
	}
	s.lenTo[k][id] = best + s.model.HW(node.Op)
	u.prevCrit = s.crit[k]
	if s.lenTo[k][id] > s.crit[k] {
		s.crit[k] = s.lenTo[k][id]
	}
	return u
}

func (s *multiSearcher) undoAssign(id int, node *dfg.Node, k int, u assignUndo) {
	s.crit[k] = u.prevCrit
	s.lenTo[k][id] = 0
	s.sw[k] -= int64(s.model.SW(node.Op))
	s.markPermanent(id, k, -1)
	s.permIn[k] -= u.newPermIn
	for _, p := range node.Preds {
		if s.refCnt[k][p] == 1 && s.assign[p] != k {
			s.inputs[k]--
		}
		s.refCnt[k][p]--
	}
	if u.absorbed {
		s.inputs[k]++
	}
	if u.isOut {
		s.out[k]--
	}
	for j := 1; j <= s.m; j++ {
		s.reach[j][id] = u.savedReach[j]
	}
	s.sizes[k]--
	s.assign[id] = 0
}

func (s *multiSearcher) tryInclude(rank, id, k int) {
	node := &s.g.Nodes[id]
	convOK := s.convexOKFor(node, k)
	u := s.applyAssign(id, node, k)
	if convOK && s.out[k] <= s.cfg.Nout {
		s.stats.Passed++
		s.maybeRecord()
		if s.inputsFeasible() {
			s.visit(rank + 1)
		}
	} else {
		s.stats.Pruned++
		if s.obs != nil {
			s.obs.Pruned(rank)
		}
	}
	s.undoAssign(id, node, k, u)
}

// maybeRecord evaluates the current assignment as a candidate solution.
// The strict comparison keeps the first assignment (in search order) of
// each total-merit level, which keeps seeded runs identical to cold ones.
func (s *multiSearcher) maybeRecord() {
	// Every non-empty cut must satisfy the input constraint; empty cuts
	// contribute nothing.
	for k := 1; k <= s.m; k++ {
		if s.sizes[k] > 0 && s.inputs[k] > s.cfg.Nin {
			return
		}
	}
	total := s.totalMerit()
	if total <= 0 || (s.bestFound && total <= s.bestMerit) {
		return
	}
	if s.cfg.StrictInterCut && s.interCutCycle() {
		return
	}
	s.bestFound = true
	s.bestMerit = total
	cuts := make([]dfg.Cut, s.m)
	for id, k := range s.assign {
		if k > 0 {
			cuts[k-1] = append(cuts[k-1], id)
		}
	}
	s.bestCuts = cuts
	if s.obs != nil {
		s.obs.Incumbent(total, s.stats.CutsConsidered, s.curRank)
	}
}

// interCutCycle reports whether two of the current cuts depend on each
// other through any path, which would make a joint schedule of the
// collapsed instructions impossible.
func (s *multiSearcher) interCutCycle() bool {
	// reaches[k][j]: some member of cut k reaches some member of cut j.
	reaches := make([][]bool, s.m+1)
	for k := 1; k <= s.m; k++ {
		if s.sizes[k] == 0 {
			continue
		}
		seen := make([]bool, len(s.g.Nodes))
		r := make([]bool, s.m+1)
		var stack []int
		for id, a := range s.assign {
			if a == k {
				seen[id] = true
				stack = append(stack, id)
			}
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			visit := func(w int) {
				if seen[w] {
					return
				}
				seen[w] = true
				if a := s.assign[w]; a > 0 && a != k {
					r[a] = true
				}
				stack = append(stack, w)
			}
			for _, w := range s.g.Nodes[v].Succs {
				visit(w)
			}
			for _, w := range s.g.Nodes[v].OrderSuccs {
				visit(w)
			}
		}
		reaches[k] = r
	}
	for a := 1; a <= s.m; a++ {
		for b := a + 1; b <= s.m; b++ {
			if reaches[a] != nil && reaches[b] != nil && reaches[a][b] && reaches[b][a] {
				return true
			}
		}
	}
	return false
}
