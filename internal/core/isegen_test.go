package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/obs"
)

// Tests for the ISEGEN-style Kernighan–Lin racer (isegen.go). The two
// hard guarantees under test:
//
//  1. Soundness: everything the racer publishes is a Legal cut whose
//     Evaluate merit equals the published merit — an achievable lower
//     bound of the optimum, never above it.
//  2. Determinism: on blocks where the exact search terminates, results
//     are bit-identical with the racer on or off, under the Parallel
//     driver, speculation and dedup.

// blockCase is one block searched at one configuration.
type blockCase struct {
	label string
	g     *dfg.Graph
	cfg   Config
}

// TestISEGenTerminatingBitIdentical runs the default search with ISEGen
// on and off: wherever the exact search runs to completion, the racer's
// bound must change nothing — same cut, same merit, same status, same
// rung. Besides random graphs it covers real and generated blocks that
// terminate at the given ports: g721's 126-op hot block, a 76-op progen
// block that explodes only at 8/4, and two mid-size progen blocks.
func TestISEGenTerminatingBitIdentical(t *testing.T) {
	var rows []blockCase
	for _, seed := range []int64{3, 5, 9} {
		rng := rand.New(rand.NewSource(seed))
		rows = append(rows, blockCase{fmt.Sprintf("random/seed=%d/4-2", seed),
			randomGraph(t, rng, 16+rng.Intn(6)), Config{Nin: 4, Nout: 2}})
	}
	rows = append(rows, blockCase{"g721/hot/2-1", hotBlock(t, "g721"), Config{Nin: 2, Nout: 1, MaxCuts: 200_000}})
	entry := progenBlock(t, 29, "f2", "entry")
	for _, p := range [][2]int{{2, 1}, {4, 2}} {
		rows = append(rows, blockCase{fmt.Sprintf("progen29/f2/entry/%d-%d", p[0], p[1]), entry,
			Config{Nin: p[0], Nout: p[1], MaxCuts: 200_000}})
	}
	for _, block := range []string{"join5", "else13"} {
		g := progenBlock(t, 1, "f1", block)
		for _, p := range [][2]int{{2, 1}, {4, 2}, {8, 4}} {
			rows = append(rows, blockCase{fmt.Sprintf("progen1/f1/%s/%d-%d", block, p[0], p[1]), g,
				Config{Nin: p[0], Nout: p[1]}})
		}
	}
	for _, r := range rows {
		label, g, cfg := r.label, r.g, r.cfg
		off, obsOff := searchBlockSafe(context.Background(), g, cfg)
		if off.Status != Exhaustive {
			t.Fatalf("%s: racer-off reference did not terminate: %v", label, off.Status)
		}
		cfg.ISEGen = true
		on, obsOn := searchBlockSafe(context.Background(), g, cfg)
		if on.Status != Exhaustive {
			t.Errorf("%s: racer-on search did not terminate: %v", label, on.Status)
		}
		if on.Found != off.Found || on.Est.Merit != off.Est.Merit || !on.Cut.Equal(off.Cut) {
			t.Errorf("%s: racer-on diverged from racer-off: %v/%d vs %v/%d",
				label, on.Cut, on.Est.Merit, off.Cut, off.Est.Merit)
		}
		if obsOn.Rung != RungExact || obsOn.Rung != obsOff.Rung {
			t.Errorf("%s: rung %v with racer on, %v without — terminating blocks must stay exact",
				label, obsOn.Rung, obsOff.Rung)
		}
	}
}

// progenBlock returns one named block's graph of a progen seed's
// program (unprofiled).
func progenBlock(t *testing.T, seed int64, fn, block string) *dfg.Graph {
	t.Helper()
	for _, f := range compileProgen(t, seed).Funcs {
		if f.Name != fn {
			continue
		}
		li := ir.Liveness(f)
		for _, b := range f.Blocks {
			if b.Name == block {
				return mustBuildGraph(t, f, b, li)
			}
		}
	}
	t.Fatalf("progen seed %d has no block %s/%s", seed, fn, block)
	return nil
}

// TestISEGenPublicationSound runs a racer alone until it publishes and
// checks the publication contract: the bound equals the witness merit,
// the witness is Legal on the original graph, Evaluate reproduces the
// merit exactly, and it never exceeds the proven optimum.
func TestISEGenPublicationSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(t, rng, 20)
	cfg := Config{Nin: 4, Nout: 2}
	opt := FindBestCut(g, cfg)
	if opt.Status != Exhaustive || !opt.Found {
		t.Fatalf("reference: status %v found %v — fixture graph unusable", opt.Status, opt.Found)
	}
	rh := startRacer(context.Background(), g, cfg, "t/racer")
	deadline := time.Now().Add(5 * time.Second)
	for rh.boundLoad() <= 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rh.halt()
	if err := rh.failure(); err != nil {
		t.Fatalf("racer panicked: %v", err)
	}
	cut, est, ok := rh.best()
	if !ok {
		t.Fatal("racer published nothing on a graph with a positive-merit optimum")
	}
	if got := rh.boundLoad(); got != est.Merit {
		t.Errorf("bound %d != witness merit %d", got, est.Merit)
	}
	if !g.Legal(cut, cfg.Nin, cfg.Nout) {
		t.Errorf("published cut %v is not legal", cut)
	}
	if re := Evaluate(g, cut, cfg.model()); re.Merit != est.Merit {
		t.Errorf("published merit %d but Evaluate says %d", est.Merit, re.Merit)
	}
	if est.Merit > opt.Est.Merit {
		t.Errorf("racer merit %d beats the proven optimum %d — unsound", est.Merit, opt.Est.Merit)
	}
}

// TestISEGenAdoptionOnBudgetStop starves the exact search with a cut
// budget it cannot finish in: the ladder must still return a sound,
// legal answer, the racer's published merit must be recorded, and —
// since the adoption rung takes the best of all rungs — the returned
// merit must never fall below it, nor below the racer-less ladder's.
// Besides a random block at a tiny budget it covers the blocks where the
// racer matters: g721's hot block at 4/2 and 8/4 and a progen block that
// explodes at 8/4.
func TestISEGenAdoptionOnBudgetStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := []blockCase{{"random/34-op/4-2", randomGraph(t, rng, 34), Config{Nin: 4, Nout: 2, MaxCuts: 64}}}
	g721 := hotBlock(t, "g721")
	for _, p := range [][2]int{{4, 2}, {8, 4}} {
		rows = append(rows, blockCase{fmt.Sprintf("g721/hot/%d-%d", p[0], p[1]), g721,
			Config{Nin: p[0], Nout: p[1], MaxCuts: 200_000}})
	}
	rows = append(rows, blockCase{"progen29/f2/entry/8-4", progenBlock(t, 29, "f2", "entry"),
		Config{Nin: 8, Nout: 4, MaxCuts: 200_000}})
	for _, r := range rows {
		label, g, cfg := r.label, r.g, r.cfg
		cfg.ISEGen = true
		res, bs := searchBlockSafe(context.Background(), g, cfg)
		if bs.Status == Exhaustive {
			t.Fatalf("%s: budget of %d cuts did not trip (status %v)", label, cfg.MaxCuts, bs.Status)
		}
		if !res.Found {
			t.Fatalf("%s: ladder came back empty (status %v)", label, bs.Status)
		}
		if !g.Legal(res.Cut, cfg.Nin, cfg.Nout) || res.Est.Merit <= 0 {
			t.Fatalf("%s: ladder returned an illegal or worthless cut %v (merit %d)", label, res.Cut, res.Est.Merit)
		}
		if bs.RacerMerit > 0 && res.Est.Merit < bs.RacerMerit {
			t.Errorf("%s: returned merit %d below the racer's published %d — adoption rung skipped a better answer",
				label, res.Est.Merit, bs.RacerMerit)
		}
		if bs.Rung == RungIterative && res.Est.Merit != bs.RacerMerit {
			t.Errorf("%s: rung says iterative but merit %d != racer merit %d", label, res.Est.Merit, bs.RacerMerit)
		}
		if bs.GapKnown {
			t.Errorf("%s: gap reported on a non-terminating block", label)
		}
		// The racer can only add: its bound prunes subtrees that cannot
		// beat it, so the budget-stopped exact rung gets at least as far
		// through the same DFS order, and the rescue rung (no deadline
		// here) is unchanged.
		cfg.ISEGen = false
		off, _ := searchBlockSafe(context.Background(), g, cfg)
		if res.Est.Merit < off.Est.Merit {
			t.Errorf("%s: racer-on merit %d below racer-off merit %d", label, res.Est.Merit, off.Est.Merit)
		}
	}
}

// TestISEGenGapOnTerminating: when the exact search terminates while a
// racer published, the gap must be recorded against the proven optimum
// and lie in [0, 1).
func TestISEGenGapOnTerminating(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(t, rng, 20)
	cfg := Config{Nin: 4, Nout: 2, ISEGen: true}
	sawGap := false
	for i := 0; i < 20 && !sawGap; i++ {
		res, bs := searchBlockSafe(context.Background(), g, cfg)
		if bs.Status != Exhaustive {
			t.Fatalf("fixture block did not terminate: %v", bs.Status)
		}
		if bs.RacerMerit > 0 {
			if !bs.GapKnown {
				t.Fatalf("racer published %d on a terminating block but GapKnown is false", bs.RacerMerit)
			}
			want := float64(res.Est.Merit-bs.RacerMerit) / float64(res.Est.Merit)
			if bs.Gap != want || bs.Gap < 0 || bs.Gap >= 1 {
				t.Fatalf("gap %v, want %v in [0,1)", bs.Gap, want)
			}
			sawGap = true
		}
	}
	if !sawGap {
		t.Skip("racer never published before the exact search finished; timing-dependent, not a failure")
	}
}

// TestISEGenSelectionIdentical runs the full iterative selection with
// the racer on across the parallel/speculation/dedup matrix: terminating
// selections must be bit-identical to the racer-off serial reference.
func TestISEGenSelectionIdentical(t *testing.T) {
	mod := compileAndProfile(t, threeKernels)
	base := Config{Nin: 4, Nout: 2}
	ref := SelectIterativeCtx(context.Background(), mod, 4, base)
	if ref.Status != Exhaustive {
		t.Fatalf("reference selection not exhaustive: %v", ref.Status)
	}
	for _, parallel := range []bool{false, true} {
		for _, spec := range []bool{false, true} {
			for _, dedup := range []bool{false, true} {
				label := fmt.Sprintf("parallel=%v/speculate=%v/dedup=%v", parallel, spec, dedup)
				cfg := base
				cfg.ISEGen = true
				cfg.Parallel = parallel
				cfg.Speculate = spec
				cfg.Dedup = dedup
				got := SelectIterativeCtx(context.Background(), mod, 4, cfg)
				if got.Status != Exhaustive {
					t.Errorf("%s: status %v", label, got.Status)
				}
				if got.TotalMerit != ref.TotalMerit || len(got.Instructions) != len(ref.Instructions) {
					t.Errorf("%s: selection diverged: merit %d (%d instructions) vs reference %d (%d)",
						label, got.TotalMerit, len(got.Instructions), ref.TotalMerit, len(ref.Instructions))
				}
			}
		}
	}
}

// TestISEGenRacerProbes checks the racer's telemetry: restarts and
// publications land in the metrics registry and the flight recorder
// when a racer demonstrably ran.
func TestISEGenRacerProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(t, rng, 20)
	probe := &obs.Probe{
		Rec: obs.NewRecorder(obs.DefaultRingCap),
		Met: obs.NewMetrics(obs.NewRegistry()),
	}
	cfg := Config{Nin: 4, Nout: 2, Probe: probe}
	rh := startRacer(context.Background(), g, cfg, "t/probes")
	deadline := time.Now().Add(5 * time.Second)
	for rh.boundLoad() <= 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rh.halt()
	if _, _, ok := rh.best(); !ok {
		t.Fatal("racer published nothing; probe assertions would be vacuous")
	}
	if n := probe.Met.RacerRestarts.Value(); n < 1 {
		t.Errorf("racer_restarts_total = %d, want >= 1", n)
	}
	if n := probe.Met.RacerPublished.Value(); n < 1 {
		t.Errorf("racer_incumbents_published_total = %d, want >= 1", n)
	}
	var sawRestart, sawPublish bool
	for _, ev := range probe.Rec.Merge() {
		switch ev.Kind {
		case obs.KRestart:
			sawRestart = true
		case obs.KRacerPublish:
			sawPublish = true
		}
	}
	if !sawRestart || !sawPublish {
		t.Errorf("flight recorder missing racer events: restart=%v publish=%v", sawRestart, sawPublish)
	}
}

// TestISEGenMultiTerminatingBitIdentical is the multi-cut counterpart
// of the bit-identical sweep.
func TestISEGenMultiTerminatingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randomGraph(t, rng, 14)
	cfg := Config{Nin: 3, Nout: 2}
	off, _ := searchBlockMultiSafe(context.Background(), g, 2, cfg)
	if off.Status != Exhaustive {
		t.Fatalf("racer-off reference did not terminate: %v", off.Status)
	}
	cfg.ISEGen = true
	on, obsOn := searchBlockMultiSafe(context.Background(), g, 2, cfg)
	if on.Status != Exhaustive {
		t.Errorf("racer-on search did not terminate: %v", on.Status)
	}
	if on.Found != off.Found || on.TotalMerit != off.TotalMerit {
		t.Errorf("racer-on multi diverged: merit %d vs %d", on.TotalMerit, off.TotalMerit)
	}
	if obsOn.Rung != RungExact {
		t.Errorf("rung %v on a terminating block", obsOn.Rung)
	}
}
