package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"isex/internal/obs"
)

// Tests for the ISEGEN-style Kernighan–Lin racer (isegen.go). The two
// hard guarantees under test:
//
//  1. Soundness: everything the racer publishes is a Legal cut whose
//     Evaluate merit equals the published merit — an achievable lower
//     bound of the optimum, never above it.
//  2. Determinism: on blocks where the exact search terminates, results
//     are bit-identical with the racer on or off, with and without the
//     merit bound, the Parallel driver, speculation and dedup.

// TestISEGenTerminatingBitIdentical sweeps pruning with ISEGen on and
// off: wherever the exact search runs to completion, the racer must
// change nothing — same cut, same merit, same status, same rung.
func TestISEGenTerminatingBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 5, 9} {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng, 16+rng.Intn(6))
		for _, pruned := range []bool{false, true} {
			label := fmt.Sprintf("seed=%d/pruned=%v", seed, pruned)
			cfg := Config{Nin: 4, Nout: 2, PruneMerit: pruned}
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

// TestISEGenAdoptionOnBudgetStop starves the exact search with a tiny
// cut budget on a large block: the ladder must still return a sound,
// legal answer, the racer's published merit must be recorded, and —
// since the adoption rung takes the best of all rungs — the returned
// merit must never fall below it.
func TestISEGenAdoptionOnBudgetStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(t, rng, 34)
	cfg := Config{Nin: 4, Nout: 2, MaxCuts: 64, ISEGen: true, PruneMerit: true}
	res, bs := searchBlockSafe(context.Background(), g, cfg)
	if bs.Status == Exhaustive {
		t.Fatalf("budget of 64 cuts did not trip on a 34-op block (status %v)", bs.Status)
	}
	if !res.Found {
		t.Fatalf("ladder came back empty (status %v)", bs.Status)
	}
	if !g.Legal(res.Cut, cfg.Nin, cfg.Nout) || res.Est.Merit <= 0 {
		t.Fatalf("ladder returned an illegal or worthless cut %v (merit %d)", res.Cut, res.Est.Merit)
	}
	if bs.RacerMerit > 0 && res.Est.Merit < bs.RacerMerit {
		t.Errorf("returned merit %d below the racer's published %d — adoption rung skipped a better answer",
			res.Est.Merit, bs.RacerMerit)
	}
	if bs.Rung == RungIterative && res.Est.Merit != bs.RacerMerit {
		t.Errorf("rung says iterative but merit %d != racer merit %d", res.Est.Merit, bs.RacerMerit)
	}
	if bs.GapKnown {
		t.Errorf("gap reported on a non-terminating block")
	}
}

// TestISEGenGapOnTerminating: when the exact search terminates while a
// racer published, the gap must be recorded against the proven optimum
// and lie in [0, 1).
func TestISEGenGapOnTerminating(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(t, rng, 20)
	cfg := Config{Nin: 4, Nout: 2, ISEGen: true, PruneMerit: true}
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
	base := Config{Nin: 4, Nout: 2, PruneMerit: true}
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
	cfg := Config{Nin: 3, Nout: 2, PruneMerit: true}
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
