package core

import (
	"math/rand"
	"testing"

	"isex/internal/workload"
)

func TestWindowedSoundAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(t, rng, 8+rng.Intn(8))
		for _, c := range []struct{ nin, nout int }{{2, 1}, {4, 2}} {
			cfg := Config{Nin: c.nin, Nout: c.nout}
			exact := FindBestCut(g, cfg)
			for _, w := range []int{3, 5, 8} {
				heur := FindBestCutWindowed(g, cfg, w)
				if heur.Found {
					// Soundness: the cut is legal on the FULL graph.
					if !g.Legal(heur.Cut, c.nin, c.nout) {
						t.Fatalf("trial %d w=%d: illegal windowed cut %v", trial, w, heur.Cut)
					}
					if !exact.Found || heur.Est.Merit > exact.Est.Merit {
						t.Fatalf("trial %d w=%d: heuristic %d beats exact %v",
							trial, w, heur.Est.Merit, exact.Est)
					}
				}
			}
			// A window covering the whole graph equals the exact search.
			full := FindBestCutWindowed(g, cfg, g.NumOps())
			if full.Found != exact.Found || (full.Found && full.Est.Merit != exact.Est.Merit) {
				t.Fatalf("trial %d: full window diverges from exact", trial)
			}
		}
	}
}

func TestWindowedViaConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomGraph(t, rng, 12)
	cfg := Config{Nin: 3, Nout: 2, Window: 5}
	viaConfig := FindBestCut(g, cfg)
	direct := FindBestCutWindowed(g, Config{Nin: 3, Nout: 2}, 5)
	if viaConfig.Found != direct.Found ||
		(viaConfig.Found && viaConfig.Est.Merit != direct.Est.Merit) {
		t.Error("Config.Window dispatch diverges from direct call")
	}
}

// TestWindowedIgnoresConfigWindow: regression for the re-entrant window
// bug. A direct call like FindBestCutWindowed(g, Config{Window: 20}, 50)
// used to forward the non-zero cfg.Window into each per-window
// FindBestCutCtx, which re-entered the windowed heuristic inside every
// window — inflating Stats and wall time. The explicit window argument
// must win: results AND stats must match the same call with a zeroed
// cfg.Window.
func TestWindowedIgnoresConfigWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(t, rng, 14+rng.Intn(10))
		clean := FindBestCutWindowed(g, Config{Nin: 3, Nout: 2}, 8)
		dirty := FindBestCutWindowed(g, Config{Nin: 3, Nout: 2, Window: 4}, 8)
		if clean.Found != dirty.Found ||
			(clean.Found && clean.Est.Merit != dirty.Est.Merit) {
			t.Fatalf("trial %d: cfg.Window changed the windowed result: %+v vs %+v",
				trial, clean.Est, dirty.Est)
		}
		if clean.Stats != dirty.Stats {
			t.Fatalf("trial %d: cfg.Window inflated the windowed stats: %+v vs %+v",
				trial, clean.Stats, dirty.Stats)
		}
	}
}

// TestWindowedOnLargeBlock: on the adpcm decoder body (which the paper's
// exact search needs ~1.6M cuts for at (2,1)), the windowed heuristic
// finds a high-quality cut with a small fraction of the effort.
func TestWindowedOnLargeBlock(t *testing.T) {
	k := workload.ByName("adpcmdecode")
	m, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	var hot *workload.BlockInfo
	for i := range graphs {
		if graphs[i].Kernel == "adpcmdecode" && (hot == nil || graphs[i].Graph.NumOps() > hot.Graph.NumOps()) {
			hot = &graphs[i]
		}
	}
	cfg := Config{Nin: 2, Nout: 1, Paper: true}
	exact := FindBestCut(hot.Graph, cfg)
	heur := FindBestCutWindowed(hot.Graph, cfg, 24)
	if !heur.Found {
		t.Fatal("windowed found nothing")
	}
	if heur.Stats.CutsConsidered*4 > exact.Stats.CutsConsidered {
		t.Errorf("windowed considered %d cuts, exact %d; expected a big reduction",
			heur.Stats.CutsConsidered, exact.Stats.CutsConsidered)
	}
	quality := float64(heur.Est.Merit) / float64(exact.Est.Merit)
	if quality < 0.5 {
		t.Errorf("windowed quality only %.2f of optimum", quality)
	}
	t.Logf("windowed: %.0f%% of optimal merit at %.1f%% of the search effort",
		quality*100, 100*float64(heur.Stats.CutsConsidered)/float64(exact.Stats.CutsConsidered))
}

func TestWindowedSelectionEndToEnd(t *testing.T) {
	k := workload.ByName("adpcmdecode")
	m, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nin: 4, Nout: 2, Window: 20}
	sel := SelectIterative(m, 4, cfg)
	if len(sel.Instructions) == 0 {
		t.Fatal("windowed selection found nothing")
	}
	if _, _, err := ApplySelection(m, sel.Instructions, nil); err != nil {
		t.Fatal(err)
	}
}
