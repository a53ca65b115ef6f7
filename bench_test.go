// Package isex's root benchmark harness regenerates every figure of the
// paper's evaluation as `go test -bench` targets (one per figure, plus
// scalability and ablation benches). Each benchmark prints its table or
// series once, then reports timing metrics; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Budgets are deliberately modest so `go test -bench=. ./...` finishes in
// minutes; raise ISEX_BENCH_BUDGET (cuts per identification call) for
// tighter bounds, or run `go run ./cmd/isebench` for the full sweep.
package isex

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"isex/internal/core"
	"isex/internal/experiments"
	"isex/internal/latency"
	"isex/internal/workload"
)

func benchBudget() int64 {
	if s := os.Getenv("ISEX_BENCH_BUDGET"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 400_000
}

var printOnce sync.Map

// printFigure emits a figure's text once per process, so repeated bench
// iterations do not spam the output.
func printFigure(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

// BenchmarkFig3Motivation regenerates the Fig. 3 analysis: the best cut
// of the adpcmdecode hot block at increasing port constraints (M1, M2,
// M2+M3).
func BenchmarkFig3Motivation(b *testing.B) {
	// Reproducing the exact M1/M2 cuts of Fig. 3 needs the full (2,1)
	// and (3,1) searches (~1.6M cuts), so this figure gets a floor on
	// its budget.
	budget := benchBudget()
	if budget < 3_000_000 {
		budget = 3_000_000
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(budget)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig3", experiments.Fig3Table(rows))
		if len(rows) > 0 {
			b.ReportMetric(float64(rows[0].Size), "M1-ops")
		}
	}
}

// BenchmarkFig7Example regenerates the Fig. 7 search trace (paper:
// 11 considered / 5 passed / 6 failed / 4 eliminated).
func BenchmarkFig7Example(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig7", experiments.Fig7Table(r))
		if r.Considered != 11 || r.Passed != 5 || r.Failed != 6 || r.Eliminated != 4 {
			b.Fatalf("trace diverged from the paper: %+v", r)
		}
	}
}

// BenchmarkFig8CutsConsidered regenerates the Fig. 8 scaling study:
// cuts considered vs. graph size at Nout=2, any Nin, over every basic
// block of the benchmark suite.
func BenchmarkFig8CutsConsidered(b *testing.B) {
	budget := benchBudget()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig8(budget)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig8", experiments.Fig8Series(points))
		within, total := experiments.Fig8WithinPolynomialBand(points)
		b.ReportMetric(float64(total), "blocks")
		b.ReportMetric(float64(within)/float64(total)*100, "%within-N^4")
	}
}

// BenchmarkFig11Speedup regenerates the Fig. 11 comparison: estimated
// speedup of Iterative vs Clubbing vs MaxMISO on the three benchmarks
// for several port constraints and instruction counts. (The Optimal
// selection is exercised separately below; the paper could not run it on
// adpcmdecode either.)
func BenchmarkFig11Speedup(b *testing.B) {
	opt := experiments.CompareOptions{
		Benchmarks:  []string{"adpcmdecode", "adpcmencode", "gsmlpc"},
		Constraints: [][2]int{{2, 1}, {4, 2}, {8, 4}},
		Ninstr:      []int{1, 4, 16},
		Budget:      benchBudget(),
		Methods: []experiments.Method{
			experiments.MethodIterative, experiments.MethodClubbing, experiments.MethodMaxMISO,
		},
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Compare(opt)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig11", experiments.ComparisonTable(rows, opt.Methods, false))
		// Headline metric: Iterative speedup at (4,2), Ninstr=16 on
		// adpcmdecode.
		for _, r := range rows {
			if r.Benchmark == "adpcmdecode" && r.Nin == 4 && r.Nout == 2 && r.Ninstr == 16 {
				b.ReportMetric(r.Cells[experiments.MethodIterative].Speedup, "speedup")
			}
		}
	}
}

// BenchmarkFig11Optimal runs the Optimal (multi-cut) selection head to
// head with Iterative on the small-block benchmark, where it is
// feasible — §8 found the two equal almost everywhere.
func BenchmarkFig11Optimal(b *testing.B) {
	k := workload.ByName("gsmlpc")
	m, err := k.Prepare()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Nin: 2, Nout: 1, MaxCuts: benchBudget()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := core.SelectOptimal(m, 4, cfg)
		it := core.SelectIterative(m, 4, cfg)
		if opt.TotalMerit < it.TotalMerit {
			b.Fatalf("optimal %d < iterative %d", opt.TotalMerit, it.TotalMerit)
		}
		printFigure("fig11opt", fmt.Sprintf(
			"Optimal vs Iterative on gsmlpc (2,1), 4 instructions:\n  optimal merit   %d\n  iterative merit %d\n",
			opt.TotalMerit, it.TotalMerit))
	}
}

// BenchmarkRuntimeByConstraint regenerates the §8 run-time discussion:
// identification time per benchmark and constraint (seconds typical,
// budget-bounded where the paper saw hours).
func BenchmarkRuntimeByConstraint(b *testing.B) {
	budget := benchBudget()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Runtime(
			[]string{"adpcmdecode", "adpcmencode", "gsmlpc"},
			[][2]int{{2, 1}, {4, 2}, {8, 4}}, 16, budget)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("runtime", experiments.RuntimeTable(rows))
	}
}

// BenchmarkAreaReport regenerates the §8 area claim: total datapath area
// of the selected instructions stays within a couple of MAC equivalents.
func BenchmarkAreaReport(b *testing.B) {
	budget := benchBudget()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Area(
			[]string{"adpcmdecode", "adpcmencode", "gsmlpc"}, 4, 2, 16, budget)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("area", experiments.AreaTable(rows))
		// The paper's claim is about the largest chosen datapaths: each
		// stays "within the area of a couple of multiply-accumulators".
		for _, r := range rows {
			if r.MaxArea > 2.5 {
				b.Fatalf("%s: largest AFU %.2f MACs exceeds the paper's claim", r.Benchmark, r.MaxArea)
			}
		}
	}
}

// BenchmarkAblationPruning measures the default prunings against the
// paper's search (extensions beyond the paper; they never change the
// result of a terminating search — see core's tests — only search effort).
func BenchmarkAblationPruning(b *testing.B) {
	budget := benchBudget()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(
			[]string{"adpcmdecode", "adpcmencode"},
			[][2]int{{2, 1}, {4, 2}}, budget)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("ablation", experiments.AblationTable(rows))
	}
}

// hotAdpcmBlock returns the largest adpcmdecode block — the paper's
// flagship workload, shared by the kernel, single-cut and windowed
// benchmarks below.
func hotAdpcmBlock(b *testing.B) *workload.BlockInfo {
	b.Helper()
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		b.Fatal(err)
	}
	var hot *workload.BlockInfo
	for i := range graphs {
		if graphs[i].Kernel == "adpcmdecode" && (hot == nil || graphs[i].Graph.NumOps() > hot.Graph.NumOps()) {
			hot = &graphs[i]
		}
	}
	if hot == nil {
		b.Fatal("no adpcmdecode block found")
	}
	return hot
}

// BenchmarkConstraintKernel measures the §5 constraint predicates —
// the inner loop of every identification algorithm — on the adpcmdecode
// hot block: the specification implementations (allocating a membership
// slice and a map per call) against the word-parallel bitset kernel
// (O(V/64) word operations, zero allocations). The cut measured is the
// §9 windowed heuristic's best (2,1) cut: deterministic, cheap to find
// and realistically sized.
func BenchmarkConstraintKernel(b *testing.B) {
	hot := hotAdpcmBlock(b)
	g := hot.Graph
	cut := core.FindBestCutWindowed(g, core.Config{Nin: 2, Nout: 1}, 12).Cut
	if len(cut) == 0 {
		b.Fatal("no representative cut found")
	}
	b.Logf("block %s/%s: %d ops, cut size %d", hot.Fn, hot.Block, g.NumOps(), len(cut))
	model := latency.Default()
	for _, bench := range []struct {
		name string
		fn   func()
	}{
		{"Inputs/spec", func() { g.InputsSpec(cut) }},
		{"Inputs/bitset", func() { g.Inputs(cut) }},
		{"Outputs/spec", func() { g.OutputsSpec(cut) }},
		{"Outputs/bitset", func() { g.Outputs(cut) }},
		{"Convex/spec", func() { g.ConvexSpec(cut) }},
		{"Convex/bitset", func() { g.Convex(cut) }},
		{"Legal/spec", func() { g.LegalSpec(cut, 2, 1) }},
		{"Legal/bitset", func() { g.Legal(cut, 2, 1) }},
		{"Components/spec", func() { g.ComponentsSpec(cut) }},
		{"Components/bitset", func() { g.Components(cut) }},
		{"Evaluate", func() { core.Evaluate(g, cut, model) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.fn()
			}
		})
	}
}

// BenchmarkSingleCutAdpcm is a plain performance benchmark of the core
// identification algorithm on the paper's flagship block.
func BenchmarkSingleCutAdpcm(b *testing.B) {
	hot := hotAdpcmBlock(b)
	cfg := core.Config{Nin: 2, Nout: 1}
	b.ResetTimer()
	var cuts int64
	for i := 0; i < b.N; i++ {
		res := core.FindBestCut(hot.Graph, cfg)
		cuts = res.Stats.CutsConsidered
	}
	b.ReportMetric(float64(cuts), "cuts")
}

// BenchmarkSingleCutSynthetic sweeps synthetic DAG sizes, reporting how
// the exact search scales (the Fig. 8 trend under controlled shape).
func BenchmarkSingleCutSynthetic(b *testing.B) {
	for _, n := range []int{10, 20, 30, 40, 60} {
		g := workload.MustSynthesize(workload.SyntheticSpec{
			Ops: n, BarrierRatio: 0.15, FanoutBias: 0.6, LiveOuts: 3, Seed: int64(n),
		})
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := core.Config{Nin: 1 << 30, Nout: 2, MaxCuts: benchBudget()}
			var cuts int64
			for i := 0; i < b.N; i++ {
				res := core.FindBestCut(g, cfg)
				cuts = res.Stats.CutsConsidered
			}
			b.ReportMetric(float64(cuts), "cuts")
		})
	}
}

// BenchmarkPerturbedModel checks (and times) identification under a
// ±30%-perturbed hardware model — the DESIGN.md robustness claim that
// result shapes do not hinge on exact synthesis numbers.
func BenchmarkPerturbedModel(b *testing.B) {
	k := workload.ByName("adpcmdecode")
	m, err := k.Prepare()
	if err != nil {
		b.Fatal(err)
	}
	base := core.SelectIterative(m, 4, core.Config{Nin: 2, Nout: 1, MaxCuts: benchBudget()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pert := latency.Default().Perturbed(int64(i)+1, 0.3)
		sel := core.SelectIterative(m, 4, core.Config{Nin: 2, Nout: 1, Model: pert, MaxCuts: benchBudget()})
		if len(sel.Instructions) == 0 || len(base.Instructions) == 0 {
			b.Fatal("perturbation broke identification")
		}
	}
}

// BenchmarkAreaConstrainedSelection sweeps the §9 future-work extension:
// selection under an explicit silicon budget (knapsack over the
// iterative candidate pool), printing the speedup-vs-area curve.
func BenchmarkAreaConstrainedSelection(b *testing.B) {
	budgets := []float64{0.1, 0.25, 0.5, 1.0, 2.0}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AreaTradeoff("adpcmdecode", 4, 2, 8, budgets, benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		printFigure("tradeoff", experiments.AreaTradeoffTable(rows))
		// Monotone: more silicon never hurts.
		for j := 1; j < len(rows); j++ {
			if rows[j].Speedup+1e-9 < rows[j-1].Speedup {
				b.Fatalf("speedup not monotone in area budget: %+v", rows)
			}
		}
	}
}

// BenchmarkVLIWStudy quantifies the §9 caveat: the same selected
// instructions gain less on wider-issue machines.
func BenchmarkVLIWStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.VLIWStudy("adpcmdecode", 4, 2, 8, []int{1, 2, 4, 8}, benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		printFigure("vliw", experiments.VLIWTable(rows))
		for j := 1; j < len(rows); j++ {
			if rows[j].Speedup > rows[j-1].Speedup+1e-9 {
				b.Fatalf("ISE speedup grew with width: %+v", rows)
			}
		}
		b.ReportMetric(rows[0].Speedup, "speedup-w1")
		b.ReportMetric(rows[len(rows)-1].Speedup, "speedup-w8")
	}
}

// BenchmarkMotivationRecurrence quantifies §4's claim that recurrence-
// based template generation finds only small clusters, while the exact
// search grows cuts an order of magnitude larger.
func BenchmarkMotivationRecurrence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Motivation(
			[]string{"adpcmdecode", "adpcmencode", "gsmlpc"}, 4, 2, 8, benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		printFigure("motivation", experiments.MotivationTable(rows))
		for _, r := range rows {
			if r.ExactMax <= r.RecurrenceMax {
				b.Fatalf("%s: exact max %d should exceed recurrence max %d",
					r.Benchmark, r.ExactMax, r.RecurrenceMax)
			}
		}
	}
}

// BenchmarkWindowedHeuristic sweeps the §9 heuristic's window size on the
// adpcm decoder body, printing the quality/effort trade-off against the
// exact search.
func BenchmarkWindowedHeuristic(b *testing.B) {
	hot := hotAdpcmBlock(b)
	cfg := core.Config{Nin: 2, Nout: 1}
	exact := core.FindBestCut(hot.Graph, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "§9 heuristic — windowed search on the adpcm decoder body (%d nodes, (2,1))\n", hot.Graph.NumOps())
		fmt.Fprintf(&sb, "%-8s %-14s %-14s %s\n", "window", "merit", "cuts", "quality vs exact")
		fmt.Fprintf(&sb, "%-8s %-14d %-14d 100%%\n", "exact", exact.Est.Merit, exact.Stats.CutsConsidered)
		for _, w := range []int{12, 16, 24, 32, 40} {
			h := core.FindBestCutWindowed(hot.Graph, cfg, w)
			q := 0.0
			if exact.Found && h.Found {
				q = 100 * float64(h.Est.Merit) / float64(exact.Est.Merit)
			}
			fmt.Fprintf(&sb, "%-8d %-14d %-14d %.0f%%\n", w, h.Est.Merit, h.Stats.CutsConsidered, q)
			if h.Found && h.Est.Merit > exact.Est.Merit {
				b.Fatal("heuristic beat the exact search")
			}
		}
		printFigure("windowed", sb.String())
	}
}

// BenchmarkIfConvAblation quantifies the §8 preprocessing choice: without
// if-conversion the conditional update chains split into small blocks and
// the identifiable speedup collapses.
func BenchmarkIfConvAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.IfConvAblation(
			[]string{"adpcmdecode", "adpcmencode"}, 4, 2, 8, benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		printFigure("ifconv", experiments.IfConvTable(rows))
		for _, r := range rows {
			if r.WithIfConv < r.WithoutIfConv {
				b.Fatalf("%s: if-conversion hurt: %.3f vs %.3f",
					r.Benchmark, r.WithIfConv, r.WithoutIfConv)
			}
		}
	}
}
