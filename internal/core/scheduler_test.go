package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/workload"
)

// assertSelectionsEqual checks the scheduler's bit-identity contract:
// same instructions (function, block, collapsed positions, estimates),
// same total merit, same per-block statuses, and the same IdentCalls —
// the §6.2 currency must not be inflated by speculation. Stats are
// compared only when wantStats is set (they are guaranteed identical
// only with PruneMerit off; pruned runs explore a different, never
// unsound, portion of the tree).
func assertSelectionsEqual(t *testing.T, label string, want, got SelectionResult, wantStats bool) {
	t.Helper()
	if got.TotalMerit != want.TotalMerit {
		t.Fatalf("%s: total merit %d, want %d", label, got.TotalMerit, want.TotalMerit)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", label, got.Status, want.Status)
	}
	if got.IdentCalls != want.IdentCalls {
		t.Fatalf("%s: %d identification calls, want %d", label, got.IdentCalls, want.IdentCalls)
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
	if wantStats && got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
}

// TestScheduledSelectionDeterministic is the scheduler's determinism
// suite: for both drivers, every pool width (GOMAXPROCS), and pruned and
// unpruned configs, the speculative scheduled selection must be
// bit-identical to the cold serial greedy driver.
func TestScheduledSelectionDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m := compileAndProfile(t, threeKernels)
	variants := []struct {
		name string
		cfg  Config
		// Stats are exactly serial only without PruneMerit (seeds and the
		// shared bound then cannot change the explored tree).
		exactStats bool
	}{
		// Narrow ports keep the unpruned exact trees small, so the full
		// width sweep stays cheap enough for the -short -race CI run.
		{"narrow-plain", Config{Nin: 2, Nout: 1}, true},
		{"wide-pruned", Config{Nin: 4, Nout: 2, PruneInputs: true, PruneMerit: true, WarmStart: true}, false},
	}
	if !testing.Short() && !raceEnabled {
		// The wide unpruned configuration costs ~10 s for the serial
		// optimal reference alone (minutes when race-instrumented); run it
		// only in full non-race mode — the cheap variants above already
		// drive every scheduler interleaving for the race detector.
		variants = append(variants, struct {
			name       string
			cfg        Config
			exactStats bool
		}{"wide-plain", Config{Nin: 4, Nout: 2}, true})
	}
	for _, v := range variants {
		optSerial := SelectOptimal(m, 4, v.cfg)
		iterSerial := SelectIterative(m, 4, v.cfg)
		if optSerial.Status != Exhaustive || iterSerial.Status != Exhaustive {
			t.Fatalf("%s: serial reference not exhaustive", v.name)
		}
		widths := []int{1, 2, 4}
		if v.name == "wide-plain" {
			widths = []int{4} // each scheduled run repeats the 10 s search
		}
		for _, procs := range widths {
			runtime.GOMAXPROCS(procs)
			label := fmt.Sprintf("%s/gomaxprocs=%d", v.name, procs)
			cfg := v.cfg
			cfg.Speculate = true
			opt := SelectOptimal(m, 4, cfg)
			assertSelectionsEqual(t, label+"/optimal/scheduled", optSerial, opt, v.exactStats)
			iter := SelectIterative(m, 4, cfg)
			assertSelectionsEqual(t, label+"/iterative/scheduled", iterSerial, iter, v.exactStats)
			if opt.SpeculativeCalls < opt.CacheHits {
				t.Fatalf("%s/optimal: %d cache hits from %d speculative calls",
					label, opt.CacheHits, opt.SpeculativeCalls)
			}
			if iter.SpeculativeCalls < iter.CacheHits {
				t.Fatalf("%s/iterative: %d cache hits from %d speculative calls",
					label, iter.CacheHits, iter.SpeculativeCalls)
			}
		}
		// The serial drivers must not report speculative work.
		if optSerial.SpeculativeCalls != 0 || optSerial.CacheHits != 0 ||
			iterSerial.SpeculativeCalls != 0 || iterSerial.CacheHits != 0 {
			t.Fatalf("%s: serial drivers reported speculative work", v.name)
		}
	}
}

// TestSelectOptimalParallelInitialPass: the optimal driver's initial
// per-block single-cut pass honors Config.Parallel and stays
// deterministic (the fix mirrors SelectIterativeCtx's fixed-slot
// fan-out).
func TestSelectOptimalParallelInitialPass(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 2, Nout: 1}
	serial := SelectOptimal(m, 3, cfg)
	cfg.Parallel = true
	par := SelectOptimal(m, 3, cfg)
	assertSelectionsEqual(t, "optimal/parallel-initial", serial, par, true)
}

// TestInstrIndexesOfSuperNode: a cut containing a collapsed super-node
// expands to the super-node's member instruction positions plus the
// plain members' own positions, sorted.
func TestInstrIndexesOfSuperNode(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	bgs, failed := allBlockGraphs(m)
	if len(failed) > 0 {
		t.Fatalf("blocks failed to build: %+v", failed)
	}
	cfg := Config{Nin: 4, Nout: 2}
	for _, bg := range bgs {
		r := FindBestCut(bg.g, cfg)
		if !r.Found || len(r.Cut) < 2 {
			continue
		}
		ng, err := bg.g.CollapseIncr(r.Cut, "super", r.Est.HWCycles)
		if err != nil {
			t.Fatal(err)
		}
		rep := r.Cut[0]
		for _, id := range r.Cut {
			if id < rep {
				rep = id
			}
		}
		super := &ng.Nodes[rep]
		if len(super.SuperMembers) == 0 {
			t.Fatalf("collapsed node %d has no members", rep)
		}
		// Find a live op outside the super-node to pair with it.
		other := -1
		for _, id := range ng.OpOrder {
			if n := &ng.Nodes[id]; id != rep && n.Kind == dfg.KindOp && n.InstrIndex >= 0 {
				other = id
				break
			}
		}
		if other == -1 {
			continue
		}
		got := instrIndexesOf(ng, dfg.Cut{other, rep})
		want := append([]int{ng.Nodes[other].InstrIndex}, super.SuperMembers...)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("instrIndexesOf = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("instrIndexesOf = %v, want %v", got, want)
			}
		}
		return
	}
	t.Skip("no block produced a multi-node cut to collapse")
}

// TestSortSelectedTieBreaks: ordering is function name, then block
// index, then first collapsed position — with an empty InstrIndexes
// ranking first (as position −1) and ties keeping insertion order.
func TestSortSelectedTieBreaks(t *testing.T) {
	fnA := &ir.Function{Name: "a"}
	fnB := &ir.Function{Name: "b"}
	b0 := &ir.Block{Name: "entry", Index: 0}
	b1 := &ir.Block{Name: "body", Index: 1}
	mk := func(fn *ir.Function, b *ir.Block, idx []int, merit int64) Selected {
		return Selected{Fn: fn, Block: b, InstrIndexes: idx, Est: Estimate{Merit: merit}}
	}
	sel := []Selected{
		mk(fnB, b0, []int{0}, 1),
		mk(fnA, b1, []int{2}, 2),
		mk(fnA, b1, nil, 3),      // empty indexes sort first within the block
		mk(fnA, b1, []int{2}, 4), // full tie with #1: insertion order kept
		mk(fnA, b0, []int{9}, 5),
		mk(fnA, b1, []int{1}, 6),
	}
	sortSelected(sel)
	wantMerits := []int64{5, 3, 6, 2, 4, 1}
	for i, w := range wantMerits {
		if sel[i].Est.Merit != w {
			order := make([]int64, len(sel))
			for j := range sel {
				order[j] = sel[j].Est.Merit
			}
			t.Fatalf("sortSelected order (by merit tag) = %v, want %v", order, wantMerits)
		}
	}
}

// TestSpeculateAloneSpeculates is the regression for Speculate on its own
// never speculating: the scheduler's pool was sized from the parallel
// engine's worker count, one slot unless that was set, and a speculative
// search needs an idle slot beside the demand search. Sized from
// GOMAXPROCS, two CPUs run one demand and one speculative search side by
// side, and the selection stays bit-identical to the cold serial driver.
func TestSpeculateAloneSpeculates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, err := workload.ByName("fir").Prepare()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nin: 2, Nout: 1}
	cold := SelectOptimalCtx(context.Background(), m, 8, cfg)
	if cold.Status != Exhaustive {
		t.Fatalf("cold serial reference not exhaustive: %v", cold.Status)
	}
	cfg.Speculate = true
	got := SelectOptimalCtx(context.Background(), m, 8, cfg)
	assertSelectionsEqual(t, "fir/optimal/speculate", cold, got, true)
	if got.SpeculativeCalls == 0 {
		t.Fatalf("Speculate at GOMAXPROCS=2 launched no speculative search (%d cache hits)", got.CacheHits)
	}
}
