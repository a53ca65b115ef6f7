// Command isebench regenerates the paper's evaluation: the Fig. 3
// motivational analysis, the Fig. 7 search trace, the Fig. 8 scaling
// study, the Fig. 11 algorithm comparison, and the §8 run-time and area
// summaries, plus the pruning ablation (an extension). Output is plain
// text, one section per figure.
//
// Usage:
//
//	isebench                  # everything, default budgets
//	isebench -fig 11 -measure # only Fig. 11, with simulator validation
//	isebench -fig 7,8,runtime # several figures in one run
//	isebench -budget 10000000 # spend more search effort
//	isebench -fig dse -dsejson PARETO.json
//	                          # design-space-exploration sweep over the
//	                          # (constraints × ninstr × benchmark ×
//	                          # target) grid; the JSON is deterministic
//	                          # (byte-identical across -workers values)
//
// An unknown -fig name or -sweepmode value exits 1 with the list of
// valid values. Search-cost measurements live in the repository
// benchmark (perfbench/) and the `go test -bench` targets of the root
// package, not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"isex/internal/dse"
	"isex/internal/experiments"
	"isex/internal/latency"
)

// figures lists every -fig name, in output order; "all" selects them
// all.
var figures = []string{"dse", "3", "5", "7", "8", "11", "runtime", "area", "tradeoff", "vliw", "ifconv", "ablation"}

// cliOpts carries every flag value; one struct instead of a parameter
// per figure keeps run() extensible.
type cliOpts struct {
	figs     []string
	budget   int64
	measure  bool
	optimal  bool
	benches  []string
	benchSet bool // -benchmarks given explicitly
	deadline time.Duration

	// DSE sweep admission-pool size.
	workers int

	// Fig. 11 / DSE: race the Kernighan–Lin toggle engine.
	isegen bool

	// DSE sweep axes.
	targets []string
	cold    bool
	dseJSON string
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "isebench:", err)
		os.Exit(1)
	}
}

// parseArgs parses the command line and rejects unknown figure names
// and sweep modes. Malformed flags exit 2, as with the flag package.
func parseArgs(args []string) (cliOpts, error) {
	var o cliOpts
	fs := flag.NewFlagSet("isebench", flag.ExitOnError)
	fig := fs.String("fig", "all", "which figures to regenerate, comma-separated: "+strings.Join(figures, ", ")+", all")
	fs.Int64Var(&o.budget, "budget", experiments.DefaultBudget, "cut budget per identification call")
	fs.BoolVar(&o.measure, "measure", false, "Fig. 11: additionally patch and measure on the cycle simulator")
	fs.BoolVar(&o.optimal, "optimal", false, "Fig. 11: include the Optimal selection (slow on large blocks)")
	benches := fs.String("benchmarks", "adpcmdecode,adpcmencode,gsmlpc", "comma-separated benchmark list for Fig. 11 and the DSE sweep (sweep default: adpcmdecode,adpcmencode)")
	fs.DurationVar(&o.deadline, "deadline", 0, "Fig. 11: wall-clock budget per selection call (e.g. 2s; 0 = none); tripped cells are marked * as lower bounds")
	fs.IntVar(&o.workers, "workers", 0, "DSE sweep: admission-pool size (0 = the sweep default, runtime.NumCPU())")
	fs.BoolVar(&o.isegen, "isegen", false, "Fig. 11 / DSE: race the Kernighan-Lin toggle engine on exploding blocks (DSE: trades strict reproducibility for anytime quality)")
	targets := fs.String("targets", "paper", "comma-separated hardware-target profiles for the DSE sweep (among "+strings.Join(latency.TargetNames(), ",")+")")
	mode := fs.String("sweepmode", "warm", "DSE sweep mode: warm (shared seeds/dedup, parallel) or cold (dedicated serial reference)")
	fs.StringVar(&o.dseJSON, "dsejson", "", "with -fig dse (or all): write the deterministic sweep/Pareto report to this file as JSON")
	fs.Parse(args)
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "benchmarks" {
			o.benchSet = true
		}
	})
	o.benches = splitList(*benches)
	o.targets = splitList(*targets)
	o.figs = splitList(*fig)
	valid := "want a comma-separated list of " + strings.Join(figures, ", ") + ", all"
	if len(o.figs) == 0 {
		return o, fmt.Errorf("empty -fig (%s)", valid)
	}
	for _, f := range o.figs {
		if f != "all" && !slices.Contains(figures, f) {
			return o, fmt.Errorf("bad -fig %q (%s)", f, valid)
		}
	}
	switch *mode {
	case "warm":
	case "cold":
		o.cold = true
	default:
		return o, fmt.Errorf("bad -sweepmode %q (want warm or cold)", *mode)
	}
	return o, nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func run(o cliOpts) error {
	want := func(name string) bool { return slices.Contains(o.figs, "all") || slices.Contains(o.figs, name) }
	section := func(s string) { fmt.Println(); fmt.Println(s); fmt.Println() }

	if want("dse") || o.dseJSON != "" {
		opt := dseOptions(o)
		rep, stats, err := dse.Sweep(context.Background(), opt)
		if err != nil {
			return err
		}
		section(experiments.DSETable(rep, stats))
		if o.dseJSON != "" {
			data, err := rep.Bytes()
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.dseJSON, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.dseJSON)
		}
	}

	if want("3") {
		rows, err := experiments.Fig3(o.budget)
		if err != nil {
			return err
		}
		section(experiments.Fig3Table(rows))
	}
	if want("5") {
		tree, err := experiments.Fig5Tree()
		if err != nil {
			return err
		}
		section("Fig. 5/7 — the search tree on the Fig. 4 example (Nout=1)\n\n" + tree)
	}
	if want("7") {
		r, err := experiments.Fig7()
		if err != nil {
			return err
		}
		section(experiments.Fig7Table(r))
	}
	if want("8") {
		points, err := experiments.Fig8(o.budget)
		if err != nil {
			return err
		}
		section(experiments.Fig8Series(points))
		within, total := experiments.Fig8WithinPolynomialBand(points)
		fmt.Printf("%d/%d blocks within the N^4 band (paper: all practical cases polynomial)\n", within, total)
	}
	if want("11") {
		opt := experiments.DefaultCompareOptions()
		opt.Benchmarks = o.benches
		opt.Budget = o.budget
		opt.Measure = o.measure
		opt.Deadline = o.deadline
		opt.ISEGen = o.isegen
		if !o.optimal {
			opt.Methods = []experiments.Method{
				experiments.MethodIterative, experiments.MethodClubbing, experiments.MethodMaxMISO,
			}
		}
		rows, err := experiments.Compare(opt)
		if err != nil {
			return err
		}
		section(experiments.ComparisonTable(rows, opt.Methods, o.measure))
	}
	if want("runtime") {
		rows, err := experiments.Runtime(
			[]string{"adpcmdecode", "adpcmencode", "gsmlpc"},
			[][2]int{{2, 1}, {4, 2}, {8, 4}}, 16, o.budget)
		if err != nil {
			return err
		}
		section(experiments.RuntimeTable(rows))
	}
	if want("area") {
		rows, err := experiments.Area(
			[]string{"adpcmdecode", "adpcmencode", "gsmlpc"}, 4, 2, 16, o.budget)
		if err != nil {
			return err
		}
		section(experiments.AreaTable(rows))
	}
	if want("tradeoff") {
		rows, err := experiments.AreaTradeoff("adpcmdecode", 4, 2, 8,
			[]float64{0.1, 0.25, 0.5, 1.0, 2.0, 4.0}, o.budget)
		if err != nil {
			return err
		}
		section(experiments.AreaTradeoffTable(rows))
	}
	if want("vliw") {
		rows, err := experiments.VLIWStudy("adpcmdecode", 4, 2, 8, []int{1, 2, 4, 8}, o.budget)
		if err != nil {
			return err
		}
		section(experiments.VLIWTable(rows))
	}
	if want("ifconv") {
		rows, err := experiments.IfConvAblation(
			[]string{"adpcmdecode", "adpcmencode"}, 4, 2, 8, o.budget)
		if err != nil {
			return err
		}
		section(experiments.IfConvTable(rows))
	}
	if want("ablation") {
		rows, err := experiments.Ablation(
			[]string{"adpcmdecode", "adpcmencode"},
			[][2]int{{2, 1}, {4, 2}}, o.budget)
		if err != nil {
			return err
		}
		section(experiments.AblationTable(rows))
	}
	fmt.Println(strings.Repeat("-", 72))
	return nil
}

// dseOptions maps the CLI flags onto a sweep configuration, starting
// from the sweep defaults: the Fig. 11 benchmark list only overrides
// the sweep's own default when given explicitly (the sweep defaults to
// the ADPCM pair; gsmlpc is expensive at loose constraints).
func dseOptions(o cliOpts) dse.Options {
	opt := dse.DefaultOptions()
	if o.benchSet {
		opt.Benchmarks = o.benches
	}
	if len(o.targets) > 0 {
		opt.Targets = o.targets
	}
	opt.Budget = o.budget
	if o.workers > 0 {
		opt.Workers = o.workers
	}
	opt.Cold = o.cold
	opt.ISEGen = o.isegen
	return opt
}
