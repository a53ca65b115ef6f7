package core

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"isex/internal/dfg"
	"isex/internal/obs"
)

// twinKernels contains two functions with identical bodies but different
// names and different profiled frequencies — the repeated-structure shape
// the cross-block dedup memo exists for. The frequency difference matters:
// dedup must translate the leader's cuts, not its merits.
const twinKernels = `
int a0[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};
int out0[16];

void fa(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        int w = ((v << 3) - v) + ((v >> 2) & 7);
        out0[i & 15] = w ^ (v << 1);
    }
}
void fb(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        int w = ((v << 3) - v) + ((v >> 2) & 7);
        out0[i & 15] = w ^ (v << 1);
    }
}
int main() {
    fa(400);
    fb(50);
    return out0[3];
}
`

// assertDedupEquivalent checks the dedup contract: selections with the
// memo on are bit-identical to the memo-off reference modulo the node
// renaming — which the drivers resolve back to instruction positions, so
// even InstrIndexes must match exactly. IdentCalls and Stats are NOT
// compared: a dedup hit deliberately consumes no identification call and
// no search work (that is the point).
func assertDedupEquivalent(t *testing.T, label string, want, got SelectionResult) {
	t.Helper()
	if got.TotalMerit != want.TotalMerit {
		t.Fatalf("%s: total merit %d, want %d", label, got.TotalMerit, want.TotalMerit)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", label, got.Status, want.Status)
	}
	if len(got.Instructions) != len(want.Instructions) {
		t.Fatalf("%s: %d instructions, want %d", label, len(got.Instructions), len(want.Instructions))
	}
	for i := range want.Instructions {
		a, b := want.Instructions[i], got.Instructions[i]
		if a.Fn.Name != b.Fn.Name || a.Block.Name != b.Block.Name || a.Est != b.Est {
			t.Fatalf("%s: instruction %d differs: %s/%s %v vs %s/%s %v",
				label, i, b.Fn.Name, b.Block.Name, b.Est, a.Fn.Name, a.Block.Name, a.Est)
		}
		if len(a.InstrIndexes) != len(b.InstrIndexes) {
			t.Fatalf("%s: instruction %d indexes %v, want %v", label, i, b.InstrIndexes, a.InstrIndexes)
		}
		for j := range a.InstrIndexes {
			if a.InstrIndexes[j] != b.InstrIndexes[j] {
				t.Fatalf("%s: instruction %d indexes %v, want %v", label, i, b.InstrIndexes, a.InstrIndexes)
			}
		}
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %d block statuses, want %d", label, len(got.Blocks), len(want.Blocks))
	}
	for i := range want.Blocks {
		a, b := want.Blocks[i], got.Blocks[i]
		if a.Fn != b.Fn || a.Block != b.Block || a.Status != b.Status {
			t.Fatalf("%s: block status %d: %s/%s %v, want %s/%s %v",
				label, i, b.Fn, b.Block, b.Status, a.Fn, a.Block, a.Status)
		}
	}
}

// TestDedupSelectionEquality is the dedup acceptance sweep: for both
// drivers, with and without the Parallel driver and the speculative
// scheduler, -dedup selections equal the -dedup=false reference.
func TestDedupSelectionEquality(t *testing.T) {
	sources := []struct{ name, src string }{
		{"three", threeKernels},
		{"twin", twinKernels},
	}
	for _, src := range sources {
		m := compileAndProfile(t, src.src)
		for _, method := range []string{"iterative", "optimal"} {
			run := func(cfg Config) SelectionResult {
				if method == "iterative" {
					return SelectIterative(m, 4, cfg)
				}
				return SelectOptimal(m, 4, cfg)
			}
			ref := run(Config{Nin: 2, Nout: 1})
			if ref.DedupHits != 0 || ref.SharedInstructions != nil {
				t.Fatalf("%s/%s: dedup-off reference reported dedup work", src.name, method)
			}
			for _, parallel := range []bool{false, true} {
				for _, spec := range []bool{false, true} {
					cfg := Config{Nin: 2, Nout: 1, Dedup: true, Parallel: parallel, Speculate: spec}
					label := src.name + "/" + method
					if parallel {
						label += "/parallel"
					}
					if spec {
						label += "/speculate"
					}
					got := run(cfg)
					assertDedupEquivalent(t, label, ref, got)
				}
			}
		}
	}
}

// TestDedupTwinFunctions: on the twin module the memo must actually fire —
// dedup hits are reported, the metrics counters move, and the selection
// groups the twins' instructions as shareable datapaths.
func TestDedupTwinFunctions(t *testing.T) {
	m := compileAndProfile(t, twinKernels)
	for _, spec := range []bool{false, true} {
		met := obs.NewMetrics(obs.NewRegistry())
		cfg := Config{Nin: 2, Nout: 1, Dedup: true, Speculate: spec,
			Probe: &obs.Probe{Met: met}}
		sel := SelectIterative(m, 4, cfg)
		if sel.DedupHits == 0 {
			t.Fatalf("spec=%v: no dedup hits on a module with twin functions", spec)
		}
		if met.DedupHits.Value() == 0 {
			t.Fatalf("spec=%v: sched_dedup_hits_total did not move", spec)
		}
		// At least one group must span both twins — the same datapath
		// selected in fa and in fb.
		crossFn := false
		for _, sh := range sel.SharedInstructions {
			fns := map[string]bool{}
			for _, mi := range sh.Members {
				fns[sel.Instructions[mi].Fn.Name] = true
			}
			if sh.Count >= 2 && len(fns) >= 2 {
				crossFn = true
			}
		}
		if !crossFn {
			t.Fatalf("spec=%v: no cross-function shared instruction group: %+v",
				spec, sel.SharedInstructions)
		}
	}
}

// siteSleeper widens a race window: it pauses every probe firing of one
// site, so the code between that site and the next lock acquisition runs
// with a concurrent thread reliably interleaved.
type siteSleeper struct {
	site obs.Site
	d    time.Duration
}

func (s siteSleeper) Fire(site obs.Site, _ string) {
	if site == s.site {
		time.Sleep(s.d)
	}
}

// TestSpecMultiInsertRace is the regression test for the specMulti
// lock-drop race: specMulti checks the task table and acquires its slot
// under one critical section, then (the probe must fire token-first)
// re-locks to insert. A concurrent demandMulti for the same key can
// publish its task in the window; the speculative insertion must then
// yield, not clobber the published task — a clobber orphans the demand
// pointer (reg != dt below) and leaks duplicate work. The sleeper on
// SiteSpecLaunch lands the demand insertion inside the window virtually
// every iteration, so the pre-fix scheduler fails this test under -race
// within a handful of iterations. Two pool slots (GOMAXPROCS) let the
// speculative and the demand task hold one each.
func TestSpecMultiInsertRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := compileAndProfile(t, threeKernels)
	bgs, failed := allBlockGraphs(m)
	if len(failed) > 0 {
		t.Fatalf("blocks failed to build: %+v", failed)
	}
	// The smallest block keeps the per-iteration searches cheap.
	g := bgs[0].g
	for _, bg := range bgs[1:] {
		if bg.g.NumOps() < g.NumOps() {
			g = bg.g
		}
	}
	cfg := Config{Nin: 2, Nout: 1,
		Probe: &obs.Probe{Inj: siteSleeper{site: obs.SiteSpecLaunch, d: 200 * time.Microsecond}}}
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for it := 0; it < iters; it++ {
		sc := newSelScheduler(context.Background(), cfg)
		fp := uint64(0xdead0000 + it)
		key := schedKey{fp: fp, m: 1}
		var wg sync.WaitGroup
		var dt *selTask
		wg.Add(2)
		go func() {
			defer wg.Done()
			sc.specMulti(g, fp, 1, cfg, 0)
		}()
		go func() {
			defer wg.Done()
			dt = sc.demandMulti(g, fp, 1, cfg)
		}()
		wg.Wait()
		sc.mu.Lock()
		reg := sc.tasks[key]
		sc.mu.Unlock()
		if reg != dt {
			t.Fatalf("iteration %d: speculative insertion clobbered the demand task", it)
		}
		<-dt.done
		sc.shutdown()
		if n := sc.pool.Leaked(); n > 0 {
			t.Fatalf("iteration %d: cpu pool leaked %d slot(s)", it, n)
		}
	}
}

// TestSchedulerMemoCollisionGuard: a memoized task is adopted on 64-bit
// fingerprint equality only after its graph proves structurally equal to
// the requested one. Forcing two different graphs under one artificial key
// must yield two distinct tasks, a correct (fresh) result for the second
// graph, and a collision count — never a silently wrong adoption.
func TestSchedulerMemoCollisionGuard(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	bgs, failed := allBlockGraphs(m)
	if len(failed) > 0 {
		t.Fatalf("blocks failed to build: %+v", failed)
	}
	var ga, gb *dfg.Graph
	for i := range bgs {
		for j := i + 1; j < len(bgs); j++ {
			if !dfg.EqualStructure(bgs[i].g, bgs[j].g) {
				ga, gb = bgs[i].g, bgs[j].g
			}
		}
	}
	if ga == nil {
		t.Fatal("no structurally distinct block pair in the fixture")
	}
	met := obs.NewMetrics(obs.NewRegistry())
	cfg := Config{Nin: 2, Nout: 1, Probe: &obs.Probe{Met: met}}
	sc := newSelScheduler(context.Background(), cfg)
	defer sc.shutdown()

	fp := uint64(42) // artificial colliding key
	ta := sc.demandMulti(ga, fp, 1, cfg)
	<-ta.done
	tb := sc.demandMulti(gb, fp, 1, cfg)
	<-tb.done
	if ta == tb {
		t.Fatal("colliding key adopted a task for a different graph")
	}
	sc.mu.Lock()
	reg := sc.tasks[schedKey{fp: fp, m: 1}]
	sc.mu.Unlock()
	if reg != ta {
		t.Fatal("collision fallback must not replace the memoized task")
	}
	ref, _ := searchBlockMultiSafe(context.Background(), gb, 1, cfg)
	if tb.mres.TotalMerit != ref.TotalMerit || len(tb.mres.Cuts) != len(ref.Cuts) {
		t.Fatalf("collision fallback result %+v, want fresh search %+v", tb.mres, ref)
	}
	if n := met.MemoCollisions.Value(); n != 1 {
		t.Fatalf("sched_memo_collisions_total = %d, want 1", n)
	}

	ts := sc.demandSingle(ga, 7, cfg)
	<-ts.done
	ts2 := sc.demandSingle(gb, 7, cfg)
	<-ts2.done
	if ts == ts2 {
		t.Fatal("single-cut colliding key adopted a task for a different graph")
	}
	refS, _ := searchBlockSafe(context.Background(), gb, cfg)
	if ts2.res.Found != refS.Found || ts2.res.Est.Merit != refS.Est.Merit {
		t.Fatalf("single collision fallback %+v, want %+v", ts2.res, refS)
	}
	if n := met.MemoCollisions.Value(); n != 2 {
		t.Fatalf("sched_memo_collisions_total = %d, want 2", n)
	}
	sc.shutdown()
	if n := sc.pool.Leaked(); n > 0 {
		t.Fatalf("cpu pool leaked %d slot(s)", n)
	}
}
