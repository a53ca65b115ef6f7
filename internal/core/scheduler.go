package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/obs"
)

// This file is the selection-level scheduler behind Config.Speculate: the
// greedy drivers of selection.go re-expressed over a shared pool of
// identification tasks. Three mechanisms compose:
//
//   - Speculation. While the driver waits for the one search the serial
//     greedy loop needs next (the demand task), idle CPU slots run the
//     searches the next rounds are most likely to need — the runner-up
//     blocks' re-identifications — so that when such a block wins, its
//     result is already (being) computed. Tasks are memoized by
//     (graph fingerprint, M): a later demand for the same key adopts the
//     speculative task instead of searching again.
//
//   - Warm-started incumbents. Every re-search is seeded (Config.withSeed)
//     with the best already-known sound bound: the M-cut optimum when
//     searching at M+1 (assignments nest — the extra cut may stay empty),
//     and the best surviving runner-up cut after a collapse (re-checked
//     with Legal/Evaluate on the collapsed graph; stored merits are never
//     trusted). Seeds provably leave results bit-identical to a cold
//     search (see seedIncumbent / seedAssignment), so selections match
//     the serial greedy driver exactly.
//
//   - Incremental collapse. The iterative driver updates the winner's
//     graph with dfg.CollapseIncr — the ID-preserving quotient update —
//     instead of a from-scratch rebuild. Because node IDs survive, a
//     speculative task's cuts are valid on the driver's own collapsed
//     graph even though the two graphs are distinct objects.
//
// Contracts preserved for every pool width: the selected instructions,
// TotalMerit, per-block statuses and IdentCalls equal the serial greedy
// driver's (IdentCalls keeps its §6.2 meaning — consumed identifications
// only; speculative work is reported separately as SpeculativeCalls and
// CacheHits). Stats are merged only from consumed tasks, in the serial
// consume order; an unconsumed speculation's stats are dropped.
//
// Concurrency: at most one task exists per (fingerprint, M) key, so no
// two searches share a graph (the per-graph scratch in dfg is not
// concurrency-safe); speculative collapses run CollapseIncr, which
// neither mutates its receiver nor touches the receiver's scratch. The
// CPU budget is a private CPUPool of runtime.GOMAXPROCS(0) slots shared
// by all tasks: every task holds exactly one slot and searches serially.
// A demand task takes its slot on the driver goroutine before the task
// starts, so speculation launched right after a round's demand may fill
// every idle slot: the demand's own slot is released before the driver
// consumes it, and the next round's demand takes exactly that slot.
// Speculation launched with no demand in flight keeps one slot spare.
// Demand work therefore never waits behind speculation, and at two
// slots one demand and one speculation run side by side.

// schedKey memoizes one identification: the structural fingerprint of
// the graph searched (dfg.Fingerprint — name-insensitive, so cosmetic
// super-node naming differences between speculative and demand collapses
// do not split the cache) and the cut count M, with M == 0 meaning the
// single-cut search. Distinct blocks never collide: the fingerprint
// hashes the function and block names.
type schedKey struct {
	fp uint64
	m  int
}

// selTask is one identification running (or finished) on the scheduler.
// All result fields are valid only after done is closed.
type selTask struct {
	done chan struct{}
	spec bool // launched speculatively; consuming it is a cache hit
	res  Result
	mres MultiResult
	bs   BlockStatus
	// g is the graph the task searched. For speculative collapse-and-
	// search tasks it is the speculatively collapsed graph (nil if the
	// collapse failed); its node IDs equal the demand path's own
	// CollapseIncr result, so cuts transfer directly.
	g      *dfg.Graph
	cancel context.CancelFunc // non-nil for speculative tasks
}

// specSpare is how many slots speculation launched alongside the
// round's demand task t must leave free: none while t still runs (its
// slot is the one the next round's demand reuses), one otherwise.
func specSpare(t *selTask) int {
	select {
	case <-t.done:
		return 1
	default:
		return 0
	}
}

type selScheduler struct {
	ctx    context.Context
	cancel context.CancelFunc
	pool   *CPUPool
	slots  int
	probe  *obs.Probe

	mu           sync.Mutex
	tasks        map[schedKey]*selTask
	specLaunches int
	wg           sync.WaitGroup
	leakCheck    sync.Once
}

func newSelScheduler(parent context.Context, cfg Config) *selScheduler {
	slots := runtime.GOMAXPROCS(0)
	ctx, cancel := context.WithCancel(parent)
	return &selScheduler{
		ctx:    ctx,
		cancel: cancel,
		pool:   NewCPUPool(slots),
		slots:  slots,
		probe:  cfg.Probe,
		tasks:  make(map[schedKey]*selTask),
	}
}

// shutdown aborts every task still in flight (only unconsumed
// speculations by the time the drivers call it) and waits them out,
// then audits the CPU pool: every token must have come back once no
// acquirer is left — a shortfall means some task lost its release (a
// leak that would throttle a long-lived service forever), which is
// reported through the metrics registry and a trace event. Idempotent.
func (sc *selScheduler) shutdown() {
	sc.cancel()
	sc.pool.Close()
	sc.wg.Wait()
	sc.leakCheck.Do(func() {
		if n := sc.pool.Leaked(); n > 0 {
			if sc.probe != nil && sc.probe.Met != nil {
				sc.probe.Met.PoolLeaks.Add(int64(n))
			}
			sc.probe.Sys(obs.KStall, "cpupool-leak", int64(n), int64(sc.slots), 0)
		}
	})
}

// guardTask is the last-resort recover for a scheduler task goroutine:
// a panic that escapes the block search's own recovery — or fires
// before the search starts, e.g. in a speculative collapse — is
// converted into an honest Recovered block status (with the panic and
// a stack excerpt in Err) instead of crashing the process. The pool
// token and the task's done channel are handled by the goroutine's own
// defers, which still run.
func guardTask(p *obs.Probe, fn, block string, bs *BlockStatus) {
	if r := recover(); r != nil {
		p.Panic("sched-task/"+fn+"/"+block, panicMsg(r))
		if bs.Fn == "" {
			bs.Fn, bs.Block = fn, block
		}
		mergeBlockStatus(bs, BlockStatus{Status: Recovered, Err: panicErr("sched-task", r)})
	}
}

// fireSpecLaunch fires a SpecLaunch probe site with the speculative
// pool token already held but before any other scheduler state exists.
// If the probe panics (fault injection), the token is returned before
// the panic resumes toward the driver guard — so the WaitGroup is never
// left incremented without a goroutine to decrement it (shutdown would
// deadlock) and the task table never holds an entry whose done channel
// cannot close (a later demand lookup would block forever).
func (sc *selScheduler) fireSpecLaunch(fire func()) {
	defer func() {
		if r := recover(); r != nil {
			sc.pool.Release()
			panic(r)
		}
	}()
	fire()
}

// speculativeCalls returns the number of speculative launches so far.
func (sc *selScheduler) speculativeCalls() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.specLaunches
}

// taskConfig is the per-task search config: the task must not re-enter
// the scheduler or the block-level fan-out.
func taskConfig(cfg Config) Config {
	cfg.Speculate = false
	cfg.Parallel = false
	// The scheduler has its own admission pool and this task already
	// holds a slot from it; gating again inside searchBlockSafe would
	// hold-and-wait.
	cfg.Pool = nil
	return cfg
}

// runMulti takes a pool slot for a demand-path multi-cut search on the
// calling (driver) goroutine, blocking until one frees, then starts t's
// goroutine; wg.Add happens before return, so shutdown cannot miss it.
// A closed pool completes t as Canceled.
func (sc *selScheduler) runMulti(t *selTask, g *dfg.Graph, m int, cfg Config) {
	if !sc.pool.Acquire() { // pool closed: scheduler shut down
		t.mres = MultiResult{Status: Canceled, Stats: Stats{Aborted: true}}
		t.bs = BlockStatus{Fn: g.Fn.Name, Block: g.Block.Name, Status: Canceled}
		close(t.done)
		return
	}
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		defer close(t.done)
		defer guardTask(cfg.Probe, g.Fn.Name, g.Block.Name, &t.bs)
		defer sc.pool.Release()
		t.mres, t.bs = searchBlockMultiSafe(sc.ctx, taskView(g), m, taskConfig(cfg))
	}()
}

// taskView returns the graph a task goroutine searches: g's nodes, IDs
// and constraint tables, but its own kernel scratch (a full-range
// Restrict). A graph's scratch is not safe for concurrent use, and the
// optimal driver runs tasks for M and M+1 cuts of one block at once
// while the driver goroutine keeps querying the block's graph (dedup
// translation, memo stores).
func taskView(g *dfg.Graph) *dfg.Graph { return g.Restrict(0, g.NumOps()) }

// runSingle is runMulti for the single-cut search.
func (sc *selScheduler) runSingle(t *selTask, g *dfg.Graph, cfg Config) {
	if !sc.pool.Acquire() {
		t.res = Result{Status: Canceled, Stats: Stats{Aborted: true}}
		t.bs = BlockStatus{Fn: g.Fn.Name, Block: g.Block.Name, Status: Canceled}
		close(t.done)
		return
	}
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		defer close(t.done)
		defer guardTask(cfg.Probe, g.Fn.Name, g.Block.Name, &t.bs)
		defer sc.pool.Release()
		t.res, t.bs = searchBlockSafe(sc.ctx, taskView(g), taskConfig(cfg))
	}()
}

// adopt decides whether an existing task under the requested key may be
// returned to the caller: the 64-bit fingerprint key is not trusted on
// its own — the task's graph must be structurally equal to the requested
// one (dfg.EqualStructure compares exactly the fields Fingerprint
// hashes). Must be called with sc.mu held; reports the mismatch so the
// caller can count the collision outside the lock.
func adoptable(t *selTask, g *dfg.Graph) bool { return dfg.EqualStructure(t.g, g) }

// demandMulti returns the task for (fp, m), launching it on the demand
// path if absent: the launch blocks (on the driver goroutine) until the
// pool frees a slot. A memoized task whose graph does not match g (a
// fingerprint collision) is never adopted: a fresh, unregistered task
// searches g instead — correct for the caller, merely not memoized.
func (sc *selScheduler) demandMulti(g *dfg.Graph, fp uint64, m int, cfg Config) *selTask {
	key := schedKey{fp: fp, m: m}
	sc.mu.Lock()
	if t, ok := sc.tasks[key]; ok {
		hit := adoptable(t, g)
		sc.mu.Unlock()
		if hit {
			return t
		}
		cfg.Probe.MemoCollision(g.Fn.Name+"/"+g.Block.Name, m)
		t2 := &selTask{done: make(chan struct{}), g: g}
		sc.runMulti(t2, g, m, cfg)
		return t2
	}
	t := &selTask{done: make(chan struct{}), g: g}
	sc.tasks[key] = t
	sc.mu.Unlock()
	sc.runMulti(t, g, m, cfg)
	return t
}

// specMulti launches the (fp, m) identification speculatively on one
// idle slot, keeping spare slots free (see CPUPool.TryAcquireSpec).
// Returns false only when the pool has no idle capacity (the caller
// should stop proposing speculations this round); an already-present
// task reports true.
func (sc *selScheduler) specMulti(g *dfg.Graph, fp uint64, m int, cfg Config, spare int) bool {
	key := schedKey{fp: fp, m: m}
	sc.mu.Lock()
	if _, ok := sc.tasks[key]; ok {
		sc.mu.Unlock()
		return true
	}
	if !sc.pool.TryAcquireSpec(spare) {
		sc.mu.Unlock()
		return false
	}
	sc.mu.Unlock()
	// The probe must fire with the token held but before any task state
	// exists (see fireSpecLaunch); the lock is dropped across it, so the
	// insertion below re-checks the table — a concurrent demand for the
	// same key may have published its task in the window, and clobbering
	// it would orphan the demand path's pointer (two tasks for one key,
	// duplicate work, and a task no consumer ever drains).
	sc.fireSpecLaunch(func() { cfg.Probe.SpecLaunch(g.Fn.Name+"/"+g.Block.Name, m, false) })
	tctx, tcancel := context.WithCancel(sc.ctx)
	t := &selTask{done: make(chan struct{}), spec: true, g: g, cancel: tcancel}
	sc.mu.Lock()
	if _, ok := sc.tasks[key]; ok {
		sc.mu.Unlock()
		tcancel()
		sc.pool.Release() // lost the race: the demand task supersedes us
		return true
	}
	sc.tasks[key] = t
	sc.specLaunches++
	sc.wg.Add(1)
	sc.mu.Unlock()
	go func() {
		defer sc.wg.Done()
		defer close(t.done)
		defer guardTask(cfg.Probe, g.Fn.Name, g.Block.Name, &t.bs)
		defer sc.pool.Release()
		t.mres, t.bs = searchBlockMultiSafe(tctx, taskView(g), m, taskConfig(cfg))
	}()
	return true
}

// demandSingle is demandMulti for the single-cut search (key.m == 0).
func (sc *selScheduler) demandSingle(g *dfg.Graph, fp uint64, cfg Config) *selTask {
	key := schedKey{fp: fp, m: 0}
	sc.mu.Lock()
	if t, ok := sc.tasks[key]; ok {
		hit := adoptable(t, g)
		sc.mu.Unlock()
		if hit {
			return t
		}
		cfg.Probe.MemoCollision(g.Fn.Name+"/"+g.Block.Name, 0)
		t2 := &selTask{done: make(chan struct{}), g: g}
		sc.runSingle(t2, g, cfg)
		return t2
	}
	t := &selTask{done: make(chan struct{}), g: g}
	sc.tasks[key] = t
	sc.mu.Unlock()
	sc.runSingle(t, g, cfg)
	return t
}

// specCollapseSearch speculatively performs what a win of this block
// would trigger: collapse its current best cut and re-search the result,
// warm-started from the block's runner-up cut when that cut survives the
// collapse (Legal re-checked and merit re-Evaluated on the collapsed
// graph — prev.prevMerit may be threshold-adjusted and is never
// trusted). The collapse itself runs inside the task, off the driver's
// critical path. Returns nil when the pool has no idle capacity beyond
// spare slots.
func (sc *selScheduler) specCollapseSearch(g *dfg.Graph, cut dfg.Cut, name string, hwCycles int, prev Result, cfg Config, spare int) *selTask {
	if !sc.pool.TryAcquireSpec(spare) {
		return nil
	}
	sc.fireSpecLaunch(func() { cfg.Probe.SpecLaunch(g.Fn.Name+"/"+g.Block.Name, 0, true) })
	tctx, tcancel := context.WithCancel(sc.ctx)
	t := &selTask{done: make(chan struct{}), spec: true, cancel: tcancel}
	sc.mu.Lock()
	sc.specLaunches++
	sc.wg.Add(1)
	sc.mu.Unlock()
	go func() {
		defer sc.wg.Done()
		defer close(t.done)
		defer guardTask(cfg.Probe, g.Fn.Name, g.Block.Name, &t.bs)
		defer sc.pool.Release()
		ng, err := g.CollapseIncr(cut, name, hwCycles)
		if err != nil {
			t.bs = BlockStatus{Fn: g.Fn.Name, Block: g.Block.Name, Status: Recovered, Err: err}
			return
		}
		t.g = ng
		scfg := taskConfig(cfg)
		if prev.prevFound && len(prev.prevCut) > 0 && ng.Legal(prev.prevCut, cfg.Nin, cfg.Nout) {
			if m := Evaluate(ng, prev.prevCut, cfg.model()).Merit; m > 0 {
				scfg = scfg.withSeed(m, prev.prevCut, nil)
			}
		}
		t.res, t.bs = searchBlockSafe(tctx, ng, scfg)
	}()
	return t
}

// selectOptimalScheduled is SelectOptimalCtx through the scheduler. The
// control flow — first-max winner choice, ctx handling, IdentCalls —
// mirrors the serial driver statement for statement; only where each
// identification runs differs.
func selectOptimalScheduled(ctx context.Context, mod *ir.Module, ninstr int, cfg Config) SelectionResult {
	bgs, failed := allBlockGraphs(mod)
	res := SelectionResult{Blocks: failed}
	if ninstr < 1 || len(bgs) == 0 {
		res.finalize()
		return res
	}
	sc := newSelScheduler(ctx, cfg)
	defer sc.shutdown()

	type blockState struct {
		m       int
		gain    int64
		totals  []int64
		results []MultiResult
	}
	states := make([]blockState, len(bgs))
	blockStat := make([]BlockStatus, len(bgs))
	fps := make([]uint64, len(bgs))
	memo := newDedupMemo(cfg)
	hs := make([]dfg.CanonDigest, len(bgs))
	consume := func(bi int, t *selTask) MultiResult {
		<-t.done
		res.IdentCalls++
		if t.spec {
			res.CacheHits++
			cfg.Probe.SpecAdopt(bgs[bi].fn.Name+"/"+bgs[bi].b.Name, states[bi].m+1)
		}
		res.Stats.add(t.mres.Stats)
		mergeBlockStatus(&blockStat[bi], t.bs)
		memo.storeMulti(bgs[bi].g, hs[bi], states[bi].m+1, t.mres, t.bs)
		return t.mres
	}
	// Initial pass: every block's single-cut identification is demanded
	// up front and consumed in index order (the serial order); dedup
	// followers adopt their leader's translated result instead of
	// demanding a search.
	leader := dedupPlan(memo, hs, func(i int) *dfg.Graph { return bgs[i].g }, len(bgs))
	initial := make([]*selTask, len(bgs))
	for i := range bgs {
		blockStat[i] = BlockStatus{Fn: bgs[i].fn.Name, Block: bgs[i].b.Name}
		fps[i] = bgs[i].g.Fingerprint()
		if leader[i] == i {
			initial[i] = sc.demandMulti(bgs[i].g, fps[i], 1, cfg)
		}
	}
	for i := range bgs {
		var r MultiResult
		if initial[i] != nil {
			r = consume(i, initial[i])
		} else if rr, bb, ok := memo.lookupMulti(bgs[i].g, hs[i], 1); ok {
			res.DedupHits++
			mergeBlockStatus(&blockStat[i], bb)
			r = rr
		} else {
			// The planned leader's search did not finish exhaustively (or
			// revalidation refused the translation): search this block.
			r = consume(i, sc.demandMulti(bgs[i].g, fps[i], 1, cfg))
		}
		states[i].totals = []int64{0, r.TotalMerit}
		states[i].results = []MultiResult{{}, r}
		states[i].gain = r.TotalMerit
	}
	chosen := 0
	for chosen < ninstr {
		bestB, bestGain := -1, int64(0)
		for i := range states {
			if states[i].gain > bestGain {
				bestGain = states[i].gain
				bestB = i
			}
		}
		if bestB < 0 {
			break
		}
		st := &states[bestB]
		st.m++
		chosen++
		if chosen >= ninstr {
			break
		}
		if err := ctx.Err(); err != nil {
			blockStat[bestB].Status = worse(blockStat[bestB].Status, statusOfCtx(err))
			st.gain = 0
			continue
		}
		var r MultiResult
		if rr, bb, ok := memo.lookupMulti(bgs[bestB].g, hs[bestB], st.m+1); ok {
			// An isomorphic block already searched this level: adopt its
			// translated assignment; nothing to demand or speculate on.
			res.DedupHits++
			mergeBlockStatus(&blockStat[bestB], bb)
			r = rr
		} else {
			// Demand the winner at M+1, seeded with its own M-cut optimum
			// (feasible at M+1: the extra cut may stay empty).
			t := sc.demandMulti(bgs[bestB].g, fps[bestB], st.m+1,
				cfg.withSeed(st.totals[st.m], nil, st.results[st.m].Cuts))
			// Speculate while the demand runs: the winner's own next level
			// (needed if it wins again; only the weaker M-cut bound is known
			// yet), then the runner-up blocks' next levels in gain order,
			// each seeded with its block's strongest known assignment. No
			// speculation in the last round — nothing can demand it.
			spare := specSpare(t)
			specOK := chosen+1 < ninstr && sc.specMulti(bgs[bestB].g, fps[bestB], st.m+2,
				cfg.withSeed(st.totals[st.m], nil, st.results[st.m].Cuts), spare)
			if specOK {
				order := make([]int, 0, len(states))
				for i := range states {
					if i != bestB && states[i].gain > 0 {
						order = append(order, i)
					}
				}
				sort.SliceStable(order, func(a, b int) bool {
					return states[order[a]].gain > states[order[b]].gain
				})
				for _, i := range order {
					mi := states[i].m
					if !sc.specMulti(bgs[i].g, fps[i], mi+2,
						cfg.withSeed(states[i].totals[mi+1], nil, states[i].results[mi+1].Cuts), spare) {
						break
					}
				}
			}
			r = consume(bestB, t)
		}
		st.totals = append(st.totals, r.TotalMerit)
		st.results = append(st.results, r)
		st.gain = r.TotalMerit - st.totals[st.m]
		if st.gain < 0 {
			st.gain = 0
		}
	}
	sc.shutdown()
	res.SpeculativeCalls = sc.speculativeCalls()
	for i := range states {
		st := &states[i]
		if st.m == 0 {
			continue
		}
		r := st.results[st.m]
		for j, c := range r.Cuts {
			sel := Selected{
				Fn:           bgs[i].fn,
				Block:        bgs[i].b,
				InstrIndexes: instrIndexesOf(bgs[i].g, c),
				Est:          r.Ests[j],
				ChosenAt:     -1,
			}
			if memo.enabled() {
				sel.CutHash = bgs[i].g.CutCanonHash(c)
			}
			res.Instructions = append(res.Instructions, sel)
			res.TotalMerit += r.Ests[j].Merit
		}
	}
	sortSelected(res.Instructions)
	res.Blocks = append(res.Blocks, blockStat...)
	res.finalize()
	return res
}

// iterSpec is a per-block speculative collapse-and-search slot: gen is
// the collapse generation the task's graph corresponds to (the block's
// generation after one more win), so a slot is adoptable exactly when
// the block wins while still at gen-1.
type iterSpec struct {
	t   *selTask
	gen int
}

// selectIterativeScheduled is SelectIterativeCtx through the scheduler.
// Collapses on the demand path use dfg.CollapseIncr with the serial
// naming, so the driver's graphs carry the exact serial names; adopted
// speculative tasks searched a graph with the same node IDs (and a
// cosmetic g<gen> super-node name), so their cuts apply to the driver's
// graph directly.
func selectIterativeScheduled(ctx context.Context, mod *ir.Module, ninstr int, cfg Config) SelectionResult {
	bgs, failed := allBlockGraphs(mod)
	res := SelectionResult{Blocks: failed}
	if ninstr < 1 || len(bgs) == 0 {
		res.finalize()
		return res
	}
	sc := newSelScheduler(ctx, cfg)
	defer sc.shutdown()

	type blockState struct {
		g    *dfg.Graph
		fp   uint64
		best Result
		gen  int
	}
	states := make([]blockState, len(bgs))
	blockStat := make([]BlockStatus, len(bgs))
	specs := make([]*iterSpec, len(bgs))
	dropSpec := func(i int) {
		if sp := specs[i]; sp != nil {
			specs[i] = nil
			if sp.t.cancel != nil {
				sp.t.cancel()
			}
			cfg.Probe.SpecDiscard(bgs[i].fn.Name + "/" + bgs[i].b.Name)
		}
	}
	// Initial pass: all leader blocks demanded up front, consumed in
	// index order; dedup followers adopt their leader's translated result
	// instead of demanding a search.
	memo := newDedupMemo(cfg)
	hs := make([]dfg.CanonDigest, len(bgs))
	leader := dedupPlan(memo, hs, func(i int) *dfg.Graph { return bgs[i].g }, len(bgs))
	initial := make([]*selTask, len(bgs))
	for i := range bgs {
		states[i].g = bgs[i].g
		states[i].fp = bgs[i].g.Fingerprint()
		if leader[i] == i {
			initial[i] = sc.demandSingle(states[i].g, states[i].fp, cfg)
		}
	}
	consume := func(i int, t *selTask) {
		<-t.done
		res.IdentCalls++
		res.Stats.add(t.res.Stats)
		states[i].best = t.res
		blockStat[i] = t.bs
		memo.storeSingle(states[i].g, hs[i], t.res, t.bs)
	}
	for i := range bgs {
		if initial[i] != nil {
			consume(i, initial[i])
		} else if r, bs, ok := memo.lookupSingle(states[i].g, hs[i]); ok {
			res.DedupHits++
			states[i].best = r
			blockStat[i] = bs
		} else {
			// The planned leader's search did not finish exhaustively (or
			// revalidation refused the translation): search this block.
			consume(i, sc.demandSingle(states[i].g, states[i].fp, cfg))
		}
	}
	// launchSpecs fills idle slots with the searches the next rounds are
	// most likely to demand: each candidate block's post-collapse
	// re-identification, best current merit first (the order the greedy
	// loop would pick winners in if nothing changed).
	launchSpecs := func(exclude, spare int) {
		order := make([]int, 0, len(states))
		for i := range states {
			if i == exclude || !states[i].best.Found || states[i].best.Est.Merit <= 0 {
				continue
			}
			if specs[i] != nil { // fresh by construction; see dropSpec sites
				continue
			}
			order = append(order, i)
		}
		sort.SliceStable(order, func(a, b int) bool {
			return states[order[a]].best.Est.Merit > states[order[b]].best.Est.Merit
		})
		for _, i := range order {
			st := &states[i]
			name := fmt.Sprintf("ise_%s_g%d", bgs[i].b.Name, st.gen+1)
			t := sc.specCollapseSearch(st.g, st.best.Cut, name, st.best.Est.HWCycles, st.best, cfg, spare)
			if t == nil {
				break // no idle capacity left this round
			}
			specs[i] = &iterSpec{t: t, gen: st.gen + 1}
		}
	}
	for chosen := 0; chosen < ninstr; chosen++ {
		bestB := -1
		var bestMerit int64
		for i := range states {
			if states[i].best.Found && states[i].best.Est.Merit > bestMerit {
				bestMerit = states[i].best.Est.Merit
				bestB = i
			}
		}
		if bestB < 0 {
			break
		}
		st := &states[bestB]
		sel := Selected{
			Fn:           bgs[bestB].fn,
			Block:        bgs[bestB].b,
			InstrIndexes: instrIndexesOf(st.g, st.best.Cut),
			Est:          st.best.Est,
			ChosenAt:     chosen,
		}
		if memo.enabled() {
			sel.CutHash = st.g.CutCanonHash(st.best.Cut)
		}
		res.Instructions = append(res.Instructions, sel)
		res.TotalMerit += st.best.Est.Merit
		name := fmt.Sprintf("ise_%s_%d", bgs[bestB].b.Name, chosen)
		ng, err := st.g.CollapseIncr(st.best.Cut, name, st.best.Est.HWCycles)
		if err != nil {
			mergeBlockStatus(&blockStat[bestB], BlockStatus{Status: Recovered, Err: err})
			st.best = Result{}
			dropSpec(bestB)
			continue
		}
		cfg.Probe.Collapse(name, chosen, len(st.best.Cut))
		prev := st.best
		st.g = ng
		st.fp = ng.Fingerprint()
		st.gen++
		if cerr := ctx.Err(); cerr != nil {
			blockStat[bestB].Status = worse(blockStat[bestB].Status, statusOfCtx(cerr))
			st.best = Result{}
			dropSpec(bestB)
			continue
		}
		// An isomorphic graph may already have been searched — the twin
		// block collapsed the translated cut and re-searched first. Adopt
		// its result and drop this block's own speculation (it would
		// compute the same thing).
		h := memo.hash(ng)
		if rr, bb, ok := memo.lookupSingle(ng, h); ok {
			dropSpec(bestB)
			res.DedupHits++
			st.best = rr
			mergeBlockStatus(&blockStat[bestB], bb)
			if chosen+1 < ninstr {
				launchSpecs(bestB, 1) // no demand in flight this round
			}
			continue
		}
		// Adopt the block's speculative task when it anticipated exactly
		// this collapse; otherwise demand the re-search, seeded with the
		// runner-up cut when it survives on the collapsed graph.
		var t *selTask
		if sp := specs[bestB]; sp != nil {
			specs[bestB] = nil
			if sp.gen == st.gen {
				t = sp.t
			} else {
				if sp.t.cancel != nil {
					sp.t.cancel() // stale speculation from an older generation
				}
				cfg.Probe.SpecDiscard(bgs[bestB].fn.Name + "/" + bgs[bestB].b.Name)
			}
		}
		if t == nil {
			scfg := cfg
			if prev.prevFound && len(prev.prevCut) > 0 && ng.Legal(prev.prevCut, cfg.Nin, cfg.Nout) {
				if m := Evaluate(ng, prev.prevCut, cfg.model()).Merit; m > 0 {
					scfg = scfg.withSeed(m, prev.prevCut, nil)
				}
			}
			t = sc.demandSingle(ng, st.fp, scfg)
		}
		if chosen+1 < ninstr { // the last round cannot demand a speculation
			launchSpecs(bestB, specSpare(t))
		}
		<-t.done
		if t.spec && (t.g == nil || !dfg.EqualStructure(t.g, ng)) {
			// Defensive: the speculative collapse failed, or produced a
			// graph that is not the one the inline collapse built (cannot
			// normally diverge) — never adopt its result; fall back to the
			// demand search.
			if t.g != nil {
				cfg.Probe.MemoCollision(bgs[bestB].fn.Name+"/"+bgs[bestB].b.Name, 0)
			}
			t = sc.demandSingle(ng, st.fp, cfg)
			<-t.done
		}
		res.IdentCalls++
		if t.spec {
			res.CacheHits++
			cfg.Probe.SpecAdopt(bgs[bestB].fn.Name+"/"+bgs[bestB].b.Name, 0)
		}
		res.Stats.add(t.res.Stats)
		st.best = t.res
		mergeBlockStatus(&blockStat[bestB], t.bs)
		memo.storeSingle(ng, h, t.res, t.bs)
	}
	sc.shutdown()
	res.SpeculativeCalls = sc.speculativeCalls()
	sortSelected(res.Instructions)
	res.Blocks = append(res.Blocks, blockStat...)
	res.finalize()
	return res
}
