package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"isex/internal/dfg"
	"isex/internal/obs"
)

// This file is the differential suite for the telemetry subsystem: every
// search must return the bit-identical result — and, where the search
// contract promises deterministic Stats, the bit-identical Stats — with
// full tracing enabled as with the probe nil. Observation must never
// change the search.

// fullProbe returns a probe with both the flight recorder and the metrics
// registry enabled — the most invasive configuration the subsystem has.
func fullProbe() *obs.Probe {
	return &obs.Probe{
		Rec: obs.NewRecorder(obs.DefaultRingCap),
		Met: obs.NewMetrics(obs.NewRegistry()),
	}
}

// diffConfig builds the search config for one sweep point: the paper's
// unpruned search, or the default pruned search plus warm start.
func diffConfig(pruned bool) Config {
	cfg := Config{Nin: 6, Nout: 2, Paper: !pruned}
	if pruned {
		cfg.WarmStart = true
	}
	return cfg
}

// TestObsDifferentialSingle covers a random block at 6/2 and the hot
// blocks of g721 (a large tree under the paper's search) and fir at 2/1.
func TestObsDifferentialSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, row := range []struct {
		name      string
		g         *dfg.Graph
		nin, nout int
	}{
		{"random", randomGraph(t, rng, 30), 6, 2},
		{"g721/hot", hotBlock(t, "g721"), 2, 1},
		{"fir/hot", hotBlock(t, "fir"), 2, 1},
	} {
		for _, pruned := range []bool{false, true} {
			label := fmt.Sprintf("%s/pruned=%v", row.name, pruned)
			cfg := diffConfig(pruned)
			cfg.Nin, cfg.Nout = row.nin, row.nout
			base := FindBestCutCtx(context.Background(), row.g, cfg)
			probe := fullProbe()
			cfg.Probe = probe
			traced := FindBestCutCtx(context.Background(), row.g, cfg)

			if base.Found != traced.Found || !reflect.DeepEqual(base.Cut, traced.Cut) ||
				base.Est != traced.Est || base.Status != traced.Status {
				t.Errorf("%s: traced result diverged:\n base=%+v\ntraced=%+v",
					label, base, traced)
			}
			if base.Stats != traced.Stats {
				t.Errorf("%s: traced Stats diverged: base=%+v traced=%+v",
					label, base.Stats, traced.Stats)
			}
			// The probe must actually have observed the search — a silent
			// no-op probe would make this whole suite vacuous. Exact
			// registry parity holds only for the unpruned search (a warm
			// pass flushes its own cuts into the registry without charging
			// the result's Stats).
			snap := probe.Met.Registry().Snapshot()
			c, _ := snap["search_cuts_considered_total"].(int64)
			if !pruned && c != base.Stats.CutsConsidered {
				t.Errorf("%s: registry saw %d considered cuts, Stats say %d",
					label, c, base.Stats.CutsConsidered)
			}
			if c < traced.Stats.CutsConsidered {
				t.Errorf("%s: registry saw %d considered cuts, below Stats %d",
					label, c, traced.Stats.CutsConsidered)
			}
			if len(probe.Rec.Merge()) == 0 {
				t.Errorf("%s: flight recorder captured no events", label)
			}
		}
	}
}

func TestObsDifferentialMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// The (M+1)-ary tree is far bigger than the binary one; the multi
	// sweep uses the graph size the exhaustive multi unit tests use.
	g := randomGraph(t, rng, 16)
	for _, pruned := range []bool{false, true} {
		cfg := diffConfig(pruned)
		cfg.Nin = 4
		base := FindBestCutsCtx(context.Background(), g, 2, cfg)
		cfg.Probe = fullProbe()
		traced := FindBestCutsCtx(context.Background(), g, 2, cfg)

		if base.Found != traced.Found || !reflect.DeepEqual(base.Cuts, traced.Cuts) ||
			!reflect.DeepEqual(base.Ests, traced.Ests) ||
			base.TotalMerit != traced.TotalMerit || base.Status != traced.Status {
			t.Errorf("pruned=%v: traced multi result diverged:\n base=%+v\ntraced=%+v",
				pruned, base, traced)
		}
		if base.Stats != traced.Stats {
			t.Errorf("pruned=%v: traced multi Stats diverged: base=%+v traced=%+v",
				pruned, base.Stats, traced.Stats)
		}
	}
}

// TestObsDifferentialSelection runs the full iterative selection — the
// serial driver, and the Parallel driver with the speculative scheduler
// — with and without tracing and demands identical selections, merits,
// per-block statuses and call accounting.
func TestObsDifferentialSelection(t *testing.T) {
	mod := compileAndProfile(t, threeKernels)
	for _, pruned := range []bool{false, true} {
		for _, concurrent := range []bool{false, true} {
			label := fmt.Sprintf("pruned=%v concurrent=%v", pruned, concurrent)
			cfg := diffConfig(pruned)
			cfg.Nin, cfg.Nout = 4, 2
			cfg.Parallel = concurrent
			cfg.Speculate = concurrent
			base := SelectIterativeCtx(context.Background(), mod, 4, cfg)
			cfg.Probe = fullProbe()
			traced := SelectIterativeCtx(context.Background(), mod, 4, cfg)

			if !reflect.DeepEqual(base.Instructions, traced.Instructions) {
				t.Errorf("%s: traced selection chose different instructions", label)
			}
			if base.TotalMerit != traced.TotalMerit || base.Status != traced.Status ||
				base.IdentCalls != traced.IdentCalls {
				t.Errorf("%s: merit/status/calls diverged: base=(%d,%v,%d) traced=(%d,%v,%d)",
					label, base.TotalMerit, base.Status, base.IdentCalls,
					traced.TotalMerit, traced.Status, traced.IdentCalls)
			}
			if !reflect.DeepEqual(base.Blocks, traced.Blocks) {
				t.Errorf("%s: per-block statuses diverged:\n base=%+v\ntraced=%+v",
					label, base.Blocks, traced.Blocks)
			}
			if !cfg.Speculate && base.Stats != traced.Stats {
				t.Errorf("%s: selection Stats diverged: base=%+v traced=%+v",
					label, base.Stats, traced.Stats)
			}
		}
	}
}

// TestObsDifferentialISEGen: with the iterative racer on, tracing must
// still not change what a terminating block search returns. Stats are
// compared only on the paper's unpruned search — the racer's bound arrives at
// timing-dependent polls, which may change visit counts but never the
// result. BlockStatus.RacerMerit is likewise timing-dependent and
// excluded.
func TestObsDifferentialISEGen(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(t, rng, 22)
	for _, pruned := range []bool{false, true} {
		cfg := diffConfig(pruned)
		cfg.ISEGen = true
		base, bbs := searchBlockSafe(context.Background(), g, cfg)
		probe := fullProbe()
		cfg.Probe = probe
		traced, tbs := searchBlockSafe(context.Background(), g, cfg)

		if base.Status != Exhaustive {
			t.Fatalf("pruned=%v: fixture block did not terminate: %v", pruned, base.Status)
		}
		if base.Found != traced.Found || !reflect.DeepEqual(base.Cut, traced.Cut) ||
			base.Est != traced.Est || base.Status != traced.Status {
			t.Errorf("pruned=%v: traced racer result diverged:\n base=%+v\ntraced=%+v",
				pruned, base, traced)
		}
		if bbs.Status != tbs.Status || bbs.Rung != tbs.Rung || bbs.Fallback != tbs.Fallback {
			t.Errorf("pruned=%v: traced block status diverged: base=%+v traced=%+v",
				pruned, bbs, tbs)
		}
		if !pruned && base.Stats != traced.Stats {
			t.Errorf("pruned=%v: traced Stats diverged: base=%+v traced=%+v",
				pruned, base.Stats, traced.Stats)
		}
	}
}

// TestObsMetricsOnlyDifferential: the MetricsOnly stripping used by the
// windowed rescue and warm passes must not perturb results either.
func TestObsMetricsOnlyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(t, rng, 30)
	cfg := Config{Nin: 6, Nout: 2, MaxCuts: 32}
	base, bbs := searchBlockSafe(context.Background(), g, cfg)
	cfg.Probe = fullProbe()
	traced, tbs := searchBlockSafe(context.Background(), g, cfg)
	if base.Found != traced.Found || !reflect.DeepEqual(base.Cut, traced.Cut) ||
		base.Est != traced.Est || base.Status != traced.Status || base.Stats != traced.Stats {
		t.Errorf("traced rescue diverged:\n base=%+v\ntraced=%+v", base, traced)
	}
	if bbs.Status != tbs.Status || bbs.Fallback != tbs.Fallback {
		t.Errorf("traced block status diverged: base=%+v traced=%+v", bbs, tbs)
	}
}
