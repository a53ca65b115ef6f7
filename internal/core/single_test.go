package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/workload"
)

// mustBuildGraph, mustEnumerateBest and mustCountLegalCuts unwrap the
// error returns of the production API for test inputs that are valid by
// construction.
func mustBuildGraph(t testing.TB, f *ir.Function, b *ir.Block, li *ir.LiveInfo) *dfg.Graph {
	t.Helper()
	g, err := dfg.Build(f, b, li)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustEnumerateBest(t testing.TB, g *dfg.Graph, cfg Config) Result {
	t.Helper()
	r, err := EnumerateBest(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustCountLegalCuts(t testing.TB, g *dfg.Graph, cfg Config) (outConvex, legal int64) {
	t.Helper()
	oc, l, err := CountLegalCuts(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return oc, l
}

// fig4Graph reconstructs the four-node example of Fig. 4 of the paper:
//
//	node 3 (+):  t = a + b      — feeds nodes 1 and 2
//	node 2 (>>): u = t >> c     — feeds node 0
//	node 1 (*):  v = t * d      — block output
//	node 0 (+):  w = u + e      — block output
//
// Numbers are the paper's topological indices (the search order:
// consumers first). The cut {0,3} is the paper's non-convex example: the
// path 3→2→0 leaves and re-enters it.
func fig4Graph(t testing.TB) (*dfg.Graph, [4]int) {
	b := ir.NewBuilder("fig4", 5)
	a, bb, c, d, e := b.Fn.Params[0], b.Fn.Params[1], b.Fn.Params[2], b.Fn.Params[3], b.Fn.Params[4]
	tt := b.Op(ir.OpAdd, a, bb) // node 3
	u := b.Op(ir.OpAShr, tt, c) // node 2
	v := b.Op(ir.OpMul, tt, d)  // node 1
	w := b.Op(ir.OpAdd, u, e)   // node 0
	next := b.NewBlock("next")
	b.Jump(next)
	b.SetBlock(next)
	b.Ret(b.Op(ir.OpXor, v, w)) // keeps v and w live out of the first block
	f := b.Finish()
	if err := ir.VerifyFunction(f, nil); err != nil {
		t.Fatal(err)
	}
	g := mustBuildGraph(t, f, f.Entry(), ir.Liveness(f))
	// Identify nodes by instruction index: instr 0 is paper-node 3, etc.
	var ids [4]int
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind == dfg.KindOp {
			ids[3-n.InstrIndex] = n.ID
		}
	}
	return g, ids
}

// TestFig4SearchOrder checks that the search order reproduces the paper's
// topological indices.
func TestFig4SearchOrder(t *testing.T) {
	g, ids := fig4Graph(t)
	if g.NumOps() != 4 {
		t.Fatalf("ops = %d, want 4", g.NumOps())
	}
	for paperIdx, id := range ids {
		if g.Pos(id) != paperIdx {
			t.Errorf("paper node %d has search rank %d", paperIdx, g.Pos(id))
		}
	}
}

// TestFig4Convexity reproduces the convexity discussion of §5/§6.1.
func TestFig4Convexity(t *testing.T) {
	g, ids := fig4Graph(t)
	if g.Convex(dfg.Cut{ids[0], ids[3]}) {
		t.Error("cut {0,3} must be non-convex (path 3→2→0)")
	}
	if !g.Convex(dfg.Cut{ids[0], ids[2], ids[3]}) {
		t.Error("cut {0,2,3} must be convex")
	}
	if !g.Convex(dfg.Cut{ids[1], ids[3]}) {
		t.Error("cut {1,3} must be convex (direct edge)")
	}
}

// TestFig7TraceCounts reproduces the execution trace of Fig. 7: with
// Nout=1 (and unconstrained Nin), the algorithm considers 11 of the 16
// possible cuts; 5 pass both checks and 6 fail, eliminating 4 more.
func TestFig7TraceCounts(t *testing.T) {
	g, _ := fig4Graph(t)
	cfg := Config{Nin: 100, Nout: 1, Paper: true}
	res := FindBestCut(g, cfg)
	if res.Stats.CutsConsidered != 11 {
		t.Errorf("cuts considered = %d, want 11", res.Stats.CutsConsidered)
	}
	if res.Stats.Passed != 5 {
		t.Errorf("passed = %d, want 5", res.Stats.Passed)
	}
	if res.Stats.Pruned != 6 {
		t.Errorf("failed checks = %d, want 6", res.Stats.Pruned)
	}
	// Eliminated = 15 non-empty subsets − 11 considered = 4.
	if got := 15 - res.Stats.CutsConsidered; got != 4 {
		t.Errorf("eliminated = %d, want 4", got)
	}
	// Cross-check the passed count against brute force.
	outConvex, _ := mustCountLegalCuts(t, g, cfg)
	if outConvex != res.Stats.Passed {
		t.Errorf("brute force says %d cuts pass, search passed %d", outConvex, res.Stats.Passed)
	}
}

// TestFig4BestCut: with Nout=2 the whole graph is takeable; with Nout=1
// the best single cut must still be found.
func TestFig4BestCuts(t *testing.T) {
	g, ids := fig4Graph(t)
	model := latency.Default()
	res := FindBestCut(g, Config{Nin: 8, Nout: 2, Model: model})
	if !res.Found {
		t.Fatal("no cut found at (8,2)")
	}
	// Two optima tie at saved=3 ({>>,*,+bottom} with crit 0.9 and the full
	// graph with crit 1.2 → both 3 software cycles saved).
	if res.Est.Saved != 3 {
		t.Errorf("best cut at (8,2) saves %d cycles, want 3 (cut %v)", res.Est.Saved, res.Cut)
	}
	ref := mustEnumerateBest(t, g, Config{Nin: 8, Nout: 2, Model: model})
	if res.Est.Merit != ref.Est.Merit {
		t.Errorf("merit %d != brute force %d", res.Est.Merit, ref.Est.Merit)
	}
	res1 := FindBestCut(g, Config{Nin: 8, Nout: 1, Model: model})
	ref1 := mustEnumerateBest(t, g, Config{Nin: 8, Nout: 1, Model: model})
	if res1.Est.Merit != ref1.Est.Merit {
		t.Errorf("Nout=1: merit %d != brute force %d", res1.Est.Merit, ref1.Est.Merit)
	}
	// At Nout=1 the full graph (2 outputs) is illegal and the gain drops.
	if len(res1.Cut) == 4 {
		t.Error("full graph selected despite Nout=1")
	}
	if res1.Est.Saved >= res.Est.Saved {
		t.Errorf("Nout=1 saved %d, should be below Nout=2's %d", res1.Est.Saved, res.Est.Saved)
	}
	_ = ids
}

// randomGraph builds a random single-block function with nOps operations,
// some forbidden (loads), multiple live-outs, and returns its graph.
func randomGraph(t testing.TB, rng *rand.Rand, nOps int) *dfg.Graph {
	t.Helper()
	b := ir.NewBuilder("rand", 3)
	vals := append([]ir.Reg{}, b.Fn.Params...)
	pick := func() ir.Reg { return vals[rng.Intn(len(vals))] }
	pureOps := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpAShr, ir.OpMin, ir.OpMax, ir.OpEq, ir.OpLt}
	for i := 0; i < nOps; i++ {
		switch rng.Intn(10) {
		case 0:
			vals = append(vals, b.Const(int32(rng.Intn(100))))
		case 1:
			// A load: forbidden node.
			vals = append(vals, b.Load(pick()))
		case 2:
			vals = append(vals, b.Op(ir.OpSelect, pick(), pick(), pick()))
		case 3:
			vals = append(vals, b.Op(ir.OpNeg, pick()))
		default:
			op := pureOps[rng.Intn(len(pureOps))]
			vals = append(vals, b.Op(op, pick(), pick()))
		}
	}
	// Keep a random subset of values live-out via a second block.
	next := b.NewBlock("next")
	b.Jump(next)
	b.SetBlock(next)
	acc := vals[len(vals)-1]
	for i := 0; i < 3 && len(vals) > 1; i++ {
		acc2 := b.Op(ir.OpAdd, acc, vals[rng.Intn(len(vals))])
		acc = acc2
	}
	b.Ret(acc)
	f := b.Finish()
	if err := ir.VerifyFunction(f, nil); err != nil {
		t.Fatal(err)
	}
	f.Entry().Freq = int64(rng.Intn(1000) + 1)
	return mustBuildGraph(t, f, f.Entry(), ir.Liveness(f))
}

// TestSearchMatchesBruteForce is the central correctness property: on
// random graphs, the pruned search of §6.1 finds exactly the brute-force
// optimum for a range of port constraints, and its Passed statistic
// equals the brute-force count of output/convexity-feasible cuts. The
// default search, with its further prunings, finds the same optimum.
func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	constraints := []struct{ nin, nout int }{
		{2, 1}, {3, 1}, {4, 2}, {4, 3}, {8, 4}, {1, 1},
	}
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(t, rng, 4+rng.Intn(10))
		for _, c := range constraints {
			cfg := Config{Nin: c.nin, Nout: c.nout, Paper: true}
			got := FindBestCut(g, cfg)
			want := mustEnumerateBest(t, g, cfg)
			if def := FindBestCut(g, Config{Nin: c.nin, Nout: c.nout}); def.Found != got.Found ||
				def.Est.Merit != got.Est.Merit || !def.Cut.Equal(got.Cut) {
				t.Fatalf("trial %d (%d,%d): default search %v/%d, paper search %v/%d",
					trial, c.nin, c.nout, def.Cut, def.Est.Merit, got.Cut, got.Est.Merit)
			}
			if got.Found != want.Found {
				t.Fatalf("trial %d (%d,%d): found %v, brute force %v\ncut=%v",
					trial, c.nin, c.nout, got.Found, want.Found, want.Cut)
			}
			if got.Found && got.Est.Merit != want.Est.Merit {
				t.Fatalf("trial %d (%d,%d): merit %d, brute force %d\ngot cut %v est %v\nwant cut %v est %v",
					trial, c.nin, c.nout, got.Est.Merit, want.Est.Merit, got.Cut, got.Est, want.Cut, want.Est)
			}
			if got.Found && !g.Legal(got.Cut, c.nin, c.nout) {
				t.Fatalf("trial %d: returned illegal cut %v", trial, got.Cut)
			}
			outConvex, _ := mustCountLegalCuts(t, g, cfg)
			if got.Stats.Passed != outConvex {
				t.Fatalf("trial %d (%d,%d): passed %d, brute force %d",
					trial, c.nin, c.nout, got.Stats.Passed, outConvex)
			}
		}
	}
}

// TestDefaultPruningMatchesPaper is the prunings' bit-identity property:
// on every built-in kernel, at tight and loose ports, under both
// selection drivers, a default (pruned) selection whose searches all
// terminate selects exactly the instructions the paper's unpruned search
// selects, and examines no more cuts. Cases where either run hits the
// budget are skipped; the pruned search is the one that terminates more
// often, so it may legitimately return a better answer there.
func TestDefaultPruningMatchesPaper(t *testing.T) {
	const ninstr, budget = 4, 50_000
	drivers := []struct {
		name string
		sel  func(context.Context, *ir.Module, int, Config) SelectionResult
	}{
		{"iterative", SelectIterativeCtx},
		{"optimal", SelectOptimalCtx},
	}
	compared := 0
	for _, k := range workload.All() {
		m, err := k.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range [][2]int{{2, 1}, {4, 2}} {
			for _, d := range drivers {
				label := fmt.Sprintf("%s/%d-%d/%s", k.Name, c[0], c[1], d.name)
				cfg := Config{Nin: c[0], Nout: c[1], MaxCuts: budget}
				def := d.sel(context.Background(), m, ninstr, cfg)
				cfg.Paper = true
				paper := d.sel(context.Background(), m, ninstr, cfg)
				if def.Status != Exhaustive || paper.Status != Exhaustive {
					continue
				}
				compared++
				assertSelectionsEqual(t, label, paper, def, false)
				if def.Stats.CutsConsidered > paper.Stats.CutsConsidered {
					t.Errorf("%s: default search considered %d cuts, paper search %d",
						label, def.Stats.CutsConsidered, paper.Stats.CutsConsidered)
				}
			}
		}
	}
	// 14 cases terminate under both searches at this budget; the floor
	// keeps the property from passing vacuously.
	if compared < 12 {
		t.Errorf("only %d of 48 cases terminated under both searches", compared)
	}
	t.Logf("%d of 48 cases compared", compared)
}

func TestForbiddenNodesNeverChosen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(t, rng, 12)
		res := FindBestCut(g, Config{Nin: 6, Nout: 3})
		if !res.Found {
			continue
		}
		for _, id := range res.Cut {
			if g.Nodes[id].Forbidden {
				t.Fatalf("trial %d: forbidden node %d in cut", trial, id)
			}
		}
	}
}

func TestMaxCutsAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(t, rng, 18)
	res := FindBestCut(g, Config{Nin: 8, Nout: 4, MaxCuts: 10})
	if !res.Stats.Aborted {
		t.Error("search did not abort at MaxCuts")
	}
	if res.Stats.CutsConsidered > 10 {
		t.Errorf("considered %d cuts despite MaxCuts=10", res.Stats.CutsConsidered)
	}
}

func TestMeritWeighting(t *testing.T) {
	g, _ := fig4Graph(t)
	r1 := FindBestCut(g, Config{Nin: 8, Nout: 2})
	g.Block.Freq = 500
	r2 := FindBestCut(g, Config{Nin: 8, Nout: 2})
	if r2.Est.Merit != 500*r1.Est.Merit {
		t.Errorf("frequency weighting wrong: %d vs 500×%d", r2.Est.Merit, r1.Est.Merit)
	}
	g.Block.Freq = 0
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	// A block with only forbidden nodes yields no cut.
	b := ir.NewBuilder("f", 1)
	v := b.Load(b.Fn.Params[0])
	b.Store(b.Fn.Params[0], v)
	b.RetVoid()
	f := b.Finish()
	g := mustBuildGraph(t, f, f.Entry(), ir.Liveness(f))
	res := FindBestCut(g, Config{Nin: 4, Nout: 2})
	if res.Found {
		t.Error("found a cut among forbidden nodes")
	}
	// A single pure op saves nothing (1 software cycle vs 1 AFU cycle),
	// so no instruction is identified — exactly why the paper targets
	// larger clusters.
	b2 := ir.NewBuilder("g", 2)
	b2.Ret(b2.Op(ir.OpAdd, b2.Fn.Params[0], b2.Fn.Params[1]))
	f2 := b2.Finish()
	g2 := mustBuildGraph(t, f2, f2.Entry(), ir.Liveness(f2))
	res2 := FindBestCut(g2, Config{Nin: 2, Nout: 1})
	if res2.Found {
		t.Errorf("zero-gain single add selected: %+v", res2)
	}
	// Two chained adds fit in one cycle: one cycle saved.
	b3 := ir.NewBuilder("h", 3)
	s1 := b3.Op(ir.OpAdd, b3.Fn.Params[0], b3.Fn.Params[1])
	b3.Ret(b3.Op(ir.OpAdd, s1, b3.Fn.Params[2]))
	f3 := b3.Finish()
	g3 := mustBuildGraph(t, f3, f3.Entry(), ir.Liveness(f3))
	res3 := FindBestCut(g3, Config{Nin: 3, Nout: 1})
	if !res3.Found || len(res3.Cut) != 2 || res3.Est.Saved != 1 {
		t.Errorf("chained-add graph: %+v", res3)
	}
}

// TestIncrementalMatchesEvaluate: the estimate reported by the search must
// equal the reference Evaluate on the returned cut.
func TestIncrementalMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, rng, 10)
		res := FindBestCut(g, Config{Nin: 4, Nout: 2})
		if !res.Found {
			continue
		}
		ref := Evaluate(g, res.Cut, latency.Default())
		if ref != res.Est {
			t.Fatalf("estimate mismatch: search %v, reference %v", res.Est, ref)
		}
	}
}

// allForbiddenGraph builds a block whose operation nodes are all loads
// (forbidden), so the search tree consists purely of 0-branches.
func allForbiddenGraph(t *testing.T, nOps int) *dfg.Graph {
	t.Helper()
	b := ir.NewBuilder("forb", 2)
	v := b.Fn.Params[0]
	for i := 0; i < nOps; i++ {
		v = b.Load(v)
	}
	b.Ret(v)
	f := b.Finish()
	if err := ir.VerifyFunction(f, nil); err != nil {
		t.Fatal(err)
	}
	f.Entry().Freq = 10
	return mustBuildGraph(t, f, f.Entry(), ir.Liveness(f))
}

// TestCancelObservedOnZeroBranches is the regression for the old poll,
// which fired only on 1-branches: on a graph whose nodes are all
// forbidden the search used to run to completion under a canceled
// context without ever observing it. The per-visit tick poll (plus the
// entry poll) must observe the cancellation regardless of branch mix.
func TestCancelObservedOnZeroBranches(t *testing.T) {
	g := allForbiddenGraph(t, 2*ctxCheckInterval)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := FindBestCutCtx(ctx, g, Config{Nin: 3, Nout: 2})
	if res.Status != Canceled {
		t.Errorf("single: status %v, want Canceled", res.Status)
	}
	if res.Stats.CutsConsidered != 0 {
		t.Errorf("single: %d cuts considered under pre-canceled ctx", res.Stats.CutsConsidered)
	}
	mres := FindBestCutsCtx(ctx, g, 2, Config{Nin: 3, Nout: 2})
	if mres.Status != Canceled {
		t.Errorf("multi: status %v, want Canceled", mres.Status)
	}
	if mres.Stats.CutsConsidered != 0 {
		t.Errorf("multi: %d cuts considered under pre-canceled ctx", mres.Stats.CutsConsidered)
	}
}

// TestWarmStartSerialIdentical: the serial WarmStart path must return
// exactly the cold search's cut and merit (the seed sits one merit unit
// below the heuristic incumbent, so the DFS-first optimum still wins).
func TestWarmStartSerialIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(t, rng, 16+rng.Intn(8))
		cold := FindBestCut(g, Config{Nin: 3, Nout: 2})
		warm := FindBestCut(g, Config{Nin: 3, Nout: 2, WarmStart: true})
		if cold.Found != warm.Found || cold.Est.Merit != warm.Est.Merit ||
			!cold.Cut.Equal(warm.Cut) {
			t.Fatalf("trial %d: warm %v/%d diverges from cold %v/%d",
				trial, warm.Cut, warm.Est.Merit, cold.Cut, cold.Est.Merit)
		}
	}
}

// TestWarmStartAdpcm is the paper-scale warm-start contract: on the
// adpcm decoder's hot block the warm-started pruned search must return
// the identical optimal cut while strictly shrinking the explored tree.
// Stats count the exact search alone (the bounded warm pass is charged
// to neither Stats nor MaxCuts), so the two counters compare the same
// tree under cold vs seeded incumbents.
func TestWarmStartAdpcm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exact search")
	}
	g := hotBlock(t, "adpcmdecode")
	cfg := Config{Nin: 2, Nout: 1}
	cold := FindBestCut(g, cfg)
	wcfg := cfg
	wcfg.WarmStart = true
	warm := FindBestCut(g, wcfg)
	if !cold.Found || !warm.Found {
		t.Fatal("search found nothing")
	}
	if cold.Est.Merit != warm.Est.Merit || !cold.Cut.Equal(warm.Cut) {
		t.Fatalf("warm %v/%d diverges from cold %v/%d",
			warm.Cut, warm.Est.Merit, cold.Cut, cold.Est.Merit)
	}
	if warm.Stats.CutsConsidered >= cold.Stats.CutsConsidered {
		t.Errorf("warm start did not shrink the search: %d >= %d",
			warm.Stats.CutsConsidered, cold.Stats.CutsConsidered)
	}
	t.Logf("cold %d cuts, warm %d cuts (%.1f%%)", cold.Stats.CutsConsidered,
		warm.Stats.CutsConsidered,
		100*float64(warm.Stats.CutsConsidered)/float64(cold.Stats.CutsConsidered))
}

// hotBlock returns the largest block graph of the named kernel.
func hotBlock(t *testing.T, kernel string) *dfg.Graph {
	t.Helper()
	k := workload.ByName(kernel)
	if _, err := k.Prepare(); err != nil {
		t.Fatal(err)
	}
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		t.Fatal(err)
	}
	var hot *workload.BlockInfo
	for i := range graphs {
		if graphs[i].Kernel == kernel && (hot == nil || graphs[i].Graph.NumOps() > hot.Graph.NumOps()) {
			hot = &graphs[i]
		}
	}
	if hot == nil {
		t.Fatalf("no blocks for kernel %s", kernel)
	}
	return hot.Graph
}
