// Command isex is the tool-chain driver: it compiles a MiniC program (or
// loads a built-in benchmark kernel), profiles it, identifies
// instruction-set extensions under the given port constraints, and
// reports the chosen custom instructions. Optionally it patches the
// program, validates it on the cycle simulator, and emits Verilog for
// every AFU.
//
// Usage:
//
//	isex -kernel adpcmdecode -nin 4 -nout 2 -ninstr 8 -simulate
//	isex -src prog.mc -entry main -nin 2 -nout 1 -verilog out/
//
// Exit codes:
//
//	0  success
//	1  error (bad flags, compile/profile failure, I/O failure, a
//	   -simulate output check that finds the patched program computing
//	   something else, ...)
//	2  -strict was set and the selection degraded below the exact
//	   search (any per-block status other than "exhaustive": budget,
//	   deadline, cancellation, or a recovered failure).
//	   A block whose answer came from the -isegen iterative racer (rung
//	   "iterative") is by construction degraded — the racer only ever
//	   stands in when the exact search did not terminate — so -strict
//	   exits 2 for it too, even though the cut itself is sound.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"isex/internal/baseline"
	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/minic"
	"isex/internal/obs"
	"isex/internal/passes"
	"isex/internal/report"
	"isex/internal/rtl"
	"isex/internal/sim"
	"isex/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "isex:", err)
		if errors.Is(err, errStrictDegraded) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errStrictDegraded is returned by run when -strict is set and the
// selection is not exact; main translates it into exit code 2 so CI can
// distinguish "degraded result" from a hard failure.
var errStrictDegraded = errors.New("selection degraded below the exact search (-strict)")

func run() error {
	var (
		srcPath   = flag.String("src", "", "MiniC source file to compile")
		kernel    = flag.String("kernel", "", "built-in benchmark kernel (adpcmdecode, adpcmencode, gsmlpc, fir, viterbi, crc32, sha, fft)")
		entry     = flag.String("entry", "main", "entry function for profiling (-src mode)")
		argList   = flag.String("args", "", "comma-separated integer arguments for the entry function")
		nin       = flag.Int("nin", 4, "register-file read ports available to a special instruction")
		nout      = flag.Int("nout", 2, "register-file write ports available to a special instruction")
		ninstr    = flag.Int("ninstr", 8, "maximum number of special instructions to select")
		method    = flag.String("method", "iterative", "selection algorithm: iterative, optimal, clubbing, maxmiso")
		budget    = flag.Int64("budget", 2_000_000, "cut budget per identification call (0 = unlimited)")
		workers   = flag.Int("workers", 0, "-sweep: admission-pool size, the number of block searches the sweep runs at once (0 = runtime.NumCPU())")
		speculate = flag.Bool("speculate", false, "route iterative/optimal selection through the speculative scheduler: idle CPUs (up to GOMAXPROCS concurrent searches) pre-identify likely next-round winners and every search is warm-seeded (bit-identical selections)")
		dedup     = flag.Bool("dedup", true, "share identification results between isomorphic basic blocks: canonical graph hashing finds repeated structure, adopted cuts are translated and revalidated on the adopting block (bit-identical selections modulo node renaming; see dedup_hits and shared_instructions in -json)")
		isegen    = flag.Bool("isegen", true, "race an ISEGEN-style Kernighan-Lin toggle heuristic against the exact search on exploding blocks: sound incumbents tighten the merit bound, and the best racer answer stands in when the exact search trips its budget or deadline (terminating blocks are bit-identical either way; see racer_merit and gap in -json)")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget for identification (e.g. 500ms; 0 = none); on expiry the best selection found so far is reported")
		strict    = flag.Bool("strict", false, "exit with code 2 when any block's search degraded below the exact algorithm (the report is still written); for CI gates that must not accept lower bounds")
		unroll    = flag.Int("unroll", 0, "fully unroll counted loops up to this trip count (-src mode)")
		simulate  = flag.Bool("simulate", false, "patch the selection in, measure the speedup on the cycle simulator and check the outputs against the unpatched program")
		verilogTo = flag.String("verilog", "", "directory to write one Verilog file (+ testbench) per AFU")
		dotTo     = flag.String("dot", "", "write the hottest block's dataflow graph (best cut highlighted) to this file")
		showIR    = flag.Bool("ir", false, "dump the preprocessed IR")
		emitIR    = flag.String("emit-ir", "", "write the final module (custom instructions included, if patched) in textual IR form to this file")
		list      = flag.Bool("list", false, "list the built-in benchmark kernels and exit")

		sweep            = flag.Bool("sweep", false, "run a design-space-exploration sweep over the (constraints x ninstr x kernel x target) grid and exit; -kernel may list several kernels comma-separated (default adpcmdecode,adpcmencode)")
		sweepTargets     = flag.String("targets", "paper", "-sweep: comma-separated hardware-target profiles (paper, pipelined, fwdcost)")
		sweepConstraints = flag.String("constraints", "", "-sweep: comma-separated nin/nout grid points, e.g. 2/1,4/2,4/3,8/4 (default: those four)")
		sweepNinstr      = flag.String("ninstrs", "", "-sweep: comma-separated instruction budgets (default 1,2,4,8,16)")
		sweepMode        = flag.String("sweep-mode", "warm", "-sweep: warm (monotone seeding, shared dedup, pool-gated parallelism) or cold (dedicated serial reference; bit-identical cells)")
		sweepJSON        = flag.String("sweep-json", "", "-sweep: write the deterministic sweep/Pareto report to this file as JSON (with -trace, an attribution section derived from the cell spans is merged in)")
		sweepProgress    = flag.Bool("progress", false, "-sweep: render live per-chain/per-cell progress (queued/searching/done, current block and rung, ETA from completed-cell rates) to stderr; also served as JSON at /sweep/status when -metrics-addr is set")

		tracePath   = flag.String("trace", "", "record the search's flight-recorder timeline and write it as JSONL (one event per line) to this file; works for single runs and -sweep")
		traceChrome = flag.String("trace-chrome", "", "record the search timeline and write it in Chrome trace_event format (load in Perfetto / chrome://tracing)")
		metricsAddr = flag.String("metrics-addr", "", "serve live search metrics over HTTP on this address (e.g. :6060): Prometheus text on /metrics, expvar JSON on /debug/vars, pprof on /debug/pprof/, and with -sweep the live sweep status on /sweep/status")
		jsonOut     = flag.Bool("json", false, "emit the selection report as JSON on stdout instead of the table (includes per-block statuses, Stats, and telemetry counters)")

		explainPath = flag.String("explain", "", "read a recorded flight-recorder JSONL trace (from -trace), lift it into the causal span tree, and print the deterministic search-attribution report; exits afterwards")
		explainJSON = flag.Bool("explain-json", false, "with -explain: emit the attribution report as JSON instead of text")
	)
	flag.Parse()

	if *explainPath != "" {
		return runExplain(*explainPath, *explainJSON)
	}

	if *list {
		for _, k := range workload.All() {
			fmt.Printf("%-12s entry %s(%v), outputs %v\n", k.Name, k.Entry, k.Args, k.Outputs)
		}
		return nil
	}

	if *sweep {
		// -isegen defaults to true for single selections, but racer
		// adoption on budget-tripped blocks is timing-dependent and the
		// sweep's contract is byte-determinism — so the sweep only
		// races when the flag is given explicitly.
		isegenSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "isegen" {
				isegenSet = true
			}
		})
		return runSweep(*kernel, *sweepTargets, *sweepConstraints, *sweepNinstr,
			*sweepMode, *sweepJSON, *budget, *workers, isegenSet && *isegen, *deadline,
			sweepIO{tracePath: *tracePath, traceChrome: *traceChrome,
				metricsAddr: *metricsAddr, progress: *sweepProgress})
	}

	var (
		m    *ir.Module
		k    *workload.Kernel
		args []int32
		err  error
	)
	switch {
	case *kernel != "":
		k = workload.ByName(*kernel)
		if k == nil {
			return fmt.Errorf("unknown kernel %q", *kernel)
		}
		m, err = k.Prepare()
		if err != nil {
			return err
		}
	case *srcPath != "":
		src, rerr := os.ReadFile(*srcPath)
		if rerr != nil {
			return rerr
		}
		m, err = minic.Compile(string(src), minic.Options{UnrollLimit: *unroll})
		if err != nil {
			return err
		}
		if err := passes.Run(m, passes.Options{}); err != nil {
			return err
		}
		for _, s := range strings.Split(*argList, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			v, perr := strconv.ParseInt(s, 0, 32)
			if perr != nil {
				return fmt.Errorf("bad -args value %q: %v", s, perr)
			}
			args = append(args, int32(v))
		}
		env := interp.NewEnv(m)
		env.Profile = true
		if _, _, err := env.Call(*entry, args...); err != nil {
			return fmt.Errorf("profiling run: %w", err)
		}
	default:
		return fmt.Errorf("one of -src or -kernel is required")
	}

	if *showIR {
		fmt.Print(m.String())
	}

	model := latency.Default()
	cfg := core.Config{Nin: *nin, Nout: *nout, Model: model, MaxCuts: *budget,
		Speculate: *speculate, Dedup: *dedup, ISEGen: *isegen}

	// Telemetry: the flight recorder is on when a trace output is wanted,
	// the metrics registry when anything will read it (the HTTP endpoint
	// or the JSON report). A nil probe keeps the search byte-for-byte on
	// its fast path.
	var probe *obs.Probe
	wantRec := *tracePath != "" || *traceChrome != ""
	wantMet := *metricsAddr != "" || *jsonOut
	if wantRec || wantMet {
		probe = &obs.Probe{}
		if wantRec {
			probe.Rec = obs.NewRecorder(obs.DefaultRingCap)
		}
		if wantMet {
			probe.Met = obs.NewMetrics(obs.NewRegistry())
		}
		cfg.Probe = probe
	}
	if *metricsAddr != "" {
		reg := probe.Met.Registry()
		expvar.Publish("isex", expvar.Func(func() any { return reg.Snapshot() }))
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w)
		})
		go func() {
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "isex: metrics server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving live metrics on %s (/metrics, /debug/vars, /debug/pprof/)\n", *metricsAddr)
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	var sel core.SelectionResult
	switch *method {
	case "iterative":
		sel = core.SelectIterativeCtx(ctx, m, *ninstr, cfg)
	case "optimal":
		sel = core.SelectOptimalCtx(ctx, m, *ninstr, cfg)
	case "clubbing":
		sel = baseline.SelectClubbing(m, *ninstr, cfg)
	case "maxmiso":
		sel = baseline.SelectMaxMISO(m, *ninstr, cfg)
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	if wantRec {
		events := probe.Rec.Merge()
		if n := probe.Rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "isex: flight recorder dropped %d oldest events (raise ring capacity to keep them)\n", n)
		}
		if *tracePath != "" {
			if err := writeTrace(*tracePath, events, obs.WriteJSONL); err != nil {
				return fmt.Errorf("writing -trace: %w", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d events, JSONL)\n", *tracePath, len(events))
		}
		if *traceChrome != "" {
			if err := writeTrace(*traceChrome, events, obs.WriteChromeTrace); err != nil {
				return fmt.Errorf("writing -trace-chrome: %w", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d events, Chrome trace_event)\n", *traceChrome, len(events))
		}
	}
	if *jsonOut {
		if err := writeJSONReport(os.Stdout, *method, *nin, *nout, *ninstr, sel, probe); err != nil {
			return err
		}
	} else {
		t := &report.Table{
			Title:  fmt.Sprintf("Selected instruction-set extensions (%s, Nin=%d, Nout=%d)", *method, *nin, *nout),
			Header: []string{"#", "function", "block", "size", "in", "out", "comps", "hw cyc", "saved/exec", "freq", "merit", "area"},
		}
		for i, s := range sel.Instructions {
			t.AddRow(i, s.Fn.Name, s.Block.Name, s.Est.Size, s.Est.In, s.Est.Out,
				s.Est.Components, s.Est.HWCycles, s.Est.Saved, s.Est.Freq, s.Est.Merit,
				fmt.Sprintf("%.3f", s.Est.Area))
		}
		fmt.Print(t.String())
		fmt.Printf("total estimated merit: %d cycles; identification calls: %d; cuts considered: %d (%d passed, %d pruned)",
			sel.TotalMerit, sel.IdentCalls, sel.Stats.CutsConsidered, sel.Stats.Passed, sel.Stats.Pruned)
		if sel.SpeculativeCalls > 0 {
			fmt.Printf("; speculative calls: %d (%d cache hit(s))", sel.SpeculativeCalls, sel.CacheHits)
		}
		if sel.DedupHits > 0 {
			fmt.Printf("; dedup hits: %d", sel.DedupHits)
		}
		fmt.Printf("; status: %s", sel.Status)
		if sel.Degraded() {
			fmt.Printf(" (search degraded; results are lower bounds)")
		}
		fmt.Println()
		for _, sh := range sel.SharedInstructions {
			fmt.Printf("  shared datapath %s: %d instruction(s) (%s)\n",
				sh.Hash[:16], sh.Count, strings.Join(sh.Blocks, ", "))
		}
		if sel.Degraded() {
			for _, b := range sel.Blocks {
				if b.Status == core.Exhaustive {
					continue
				}
				line := fmt.Sprintf("  block %s/%s: %s", b.Fn, b.Block, b.Status)
				switch b.Rung {
				case core.RungWindowed:
					line += " (rescued with the windowed heuristic)"
				case core.RungIterative:
					line += " (best answer from the iterative racer)"
				case core.RungGreedy:
					line += " (rescued with the greedy last resort)"
				}
				if b.RacerMerit > 0 {
					line += fmt.Sprintf(" [racer merit %d]", b.RacerMerit)
				}
				if b.Err != nil {
					line += fmt.Sprintf(" — %v", b.Err)
				}
				fmt.Println(line)
			}
		}
	}

	if *strict && sel.Degraded() {
		// The report above was still written; the nonzero exit is the
		// machine-checkable signal that it holds lower bounds, not the
		// exact answer.
		return errStrictDegraded
	}

	if *dotTo != "" && len(sel.Instructions) > 0 {
		s := sel.Instructions[0]
		li := ir.Liveness(s.Fn)
		g, err := dfg.Build(s.Fn, s.Block, li)
		if err != nil {
			return fmt.Errorf("dot output: %w", err)
		}
		var cut dfg.Cut
		for _, id := range g.OpOrder {
			for _, idx := range s.InstrIndexes {
				if g.Nodes[id].InstrIndex == idx {
					cut = append(cut, id)
				}
			}
		}
		if err := os.WriteFile(*dotTo, []byte(g.Dot(cut)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (dataflow graph of %s/%s)\n", *dotTo, s.Fn.Name, s.Block.Name)
	}

	writeIR := func() error {
		if *emitIR == "" {
			return nil
		}
		if err := os.WriteFile(*emitIR, []byte(ir.Serialize(m)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (textual IR)\n", *emitIR)
		return nil
	}
	if !*simulate && *verilogTo == "" {
		return writeIR()
	}
	if len(sel.Instructions) == 0 {
		fmt.Println("nothing selected; skipping patch/emit")
		return writeIR()
	}

	var baseMod *ir.Module
	if *simulate {
		if baseMod, err = freshModule(k, *srcPath, *unroll); err != nil {
			return fmt.Errorf("baseline build: %w", err)
		}
	}

	afus, skipped, err := core.ApplySelection(m, sel.Instructions, model)
	if err != nil {
		return fmt.Errorf("patching: %w", err)
	}
	if len(skipped) > 0 {
		fmt.Printf("note: %d cut(s) skipped (not atomically schedulable)\n", len(skipped))
	}
	fmt.Printf("patched in %d custom instruction(s)\n", len(afus))

	if *simulate {
		interp.ClearProfile(m)
		runner := &sim.Runner{Model: model, Setup: setupFor(k), Outputs: outputsFor(k)}
		cmp, err := runner.Compare(baseMod, m, entryFor(k, *entry), argsFor(k, args)...)
		var mm *sim.Mismatch
		if err != nil && !errors.As(err, &mm) {
			return fmt.Errorf("simulation: %w", err)
		}
		fmt.Printf("cycles: %d -> %d  (measured speedup %.3fx)\n",
			cmp.Base.Cycles, cmp.Patched.Cycles, cmp.Speedup())
		if mm != nil {
			return fmt.Errorf("output check failed: %w", mm)
		}
		fmt.Println("outputs: patched module matches the baseline")
	}

	if *verilogTo != "" {
		if err := os.MkdirAll(*verilogTo, 0o755); err != nil {
			return err
		}
		for _, ai := range afus {
			d := &m.AFUs[ai]
			v, err := rtl.Verilog(d)
			if err != nil {
				return err
			}
			tb, err := rtl.Testbench(d, defaultVectors(d))
			if err != nil {
				return err
			}
			path := filepath.Join(*verilogTo, fmt.Sprintf("%s.v", d.Name))
			if err := os.WriteFile(path, []byte(v+"\n"+tb), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d in, %d out, %d cycle(s), %.3f MAC area)\n",
				path, d.NumIn, len(d.OutSlots), d.Latency, d.Area)
		}
	}
	return writeIR()
}

// writeTrace writes the merged event timeline to path in the format
// implemented by write (JSONL or Chrome trace_event).
func writeTrace(path string, events []obs.Event, write func(w io.Writer, evs []obs.Event) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonReport is the machine-readable selection report (-json).
type jsonReport struct {
	Method       string         `json:"method"`
	Nin          int            `json:"nin"`
	Nout         int            `json:"nout"`
	Ninstr       int            `json:"ninstr"`
	TotalMerit   int64          `json:"total_merit"`
	IdentCalls   int            `json:"ident_calls"`
	SpecCalls    int            `json:"speculative_calls"`
	CacheHits    int            `json:"cache_hits"`
	DedupHits    int            `json:"dedup_hits"`
	Status       string         `json:"status"`
	Degraded     bool           `json:"degraded"`
	FirstPanic   string         `json:"first_panic,omitempty"`
	Stats        jsonStats      `json:"stats"`
	Instructions []jsonInstr    `json:"instructions"`
	Shared       []jsonShared   `json:"shared_instructions,omitempty"`
	Blocks       []jsonBlock    `json:"blocks"`
	Metrics      map[string]any `json:"metrics,omitempty"`
}

// jsonShared is one group of selected instructions whose datapaths
// canonicalize identically (cross-block dedup; -dedup).
type jsonShared struct {
	Hash    string   `json:"hash"`
	Count   int      `json:"count"`
	Members []int    `json:"members"`
	Blocks  []string `json:"blocks"`
}

type jsonStats struct {
	CutsConsidered int64 `json:"cuts_considered"`
	Passed         int64 `json:"passed"`
	Pruned         int64 `json:"pruned"`
	Aborted        bool  `json:"aborted"`
}

type jsonInstr struct {
	Fn       string  `json:"fn"`
	Block    string  `json:"block"`
	Size     int     `json:"size"`
	In       int     `json:"in"`
	Out      int     `json:"out"`
	HWCycles int     `json:"hw_cycles"`
	Saved    int64   `json:"saved_per_exec"`
	Freq     int64   `json:"freq"`
	Merit    int64   `json:"merit"`
	Area     float64 `json:"area"`
}

type jsonBlock struct {
	Fn       string `json:"fn"`
	Block    string `json:"block"`
	Status   string `json:"status"`
	Rung     string `json:"rung"`
	Fallback bool   `json:"fallback,omitempty"`
	// RacerMerit is the best merit the -isegen racer proved achievable
	// for the block (omitted when no racer ran or it published nothing).
	RacerMerit int64 `json:"racer_merit,omitempty"`
	// Gap is (optimum − racer merit) / optimum on blocks where the exact
	// search terminated with a proven optimum while the racer published;
	// GapKnown distinguishes a genuine 0.0 gap from "not measured".
	Gap      float64 `json:"gap,omitempty"`
	GapKnown bool    `json:"gap_known,omitempty"`
	Err      string  `json:"err,omitempty"`
}

func writeJSONReport(w *os.File, method string, nin, nout, ninstr int, sel core.SelectionResult, probe *obs.Probe) error {
	rep := jsonReport{
		Method:     method,
		Nin:        nin,
		Nout:       nout,
		Ninstr:     ninstr,
		TotalMerit: sel.TotalMerit,
		IdentCalls: sel.IdentCalls,
		SpecCalls:  sel.SpeculativeCalls,
		CacheHits:  sel.CacheHits,
		DedupHits:  sel.DedupHits,
		Status:     sel.Status.String(),
		Degraded:   sel.Degraded(),
		FirstPanic: sel.FirstPanic,
		Stats: jsonStats{
			CutsConsidered: sel.Stats.CutsConsidered,
			Passed:         sel.Stats.Passed,
			Pruned:         sel.Stats.Pruned,
			Aborted:        sel.Stats.Aborted,
		},
	}
	for _, s := range sel.Instructions {
		rep.Instructions = append(rep.Instructions, jsonInstr{
			Fn: s.Fn.Name, Block: s.Block.Name,
			Size: s.Est.Size, In: s.Est.In, Out: s.Est.Out,
			HWCycles: s.Est.HWCycles, Saved: s.Est.Saved, Freq: s.Est.Freq,
			Merit: s.Est.Merit, Area: s.Est.Area,
		})
	}
	for _, sh := range sel.SharedInstructions {
		rep.Shared = append(rep.Shared, jsonShared{
			Hash: sh.Hash, Count: sh.Count, Members: sh.Members, Blocks: sh.Blocks,
		})
	}
	for _, b := range sel.Blocks {
		jb := jsonBlock{Fn: b.Fn, Block: b.Block, Status: b.Status.String(),
			Rung: b.Rung.String(), Fallback: b.Fallback}
		if b.RacerMerit > 0 {
			jb.RacerMerit = b.RacerMerit
		}
		if b.GapKnown {
			jb.Gap, jb.GapKnown = b.Gap, true
		}
		if b.Err != nil {
			jb.Err = b.Err.Error()
		}
		rep.Blocks = append(rep.Blocks, jb)
	}
	if probe != nil && probe.Met != nil {
		rep.Metrics = probe.Met.Registry().Snapshot()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// freshModule rebuilds an unpatched copy of the program for baseline
// simulation.
func freshModule(k *workload.Kernel, srcPath string, unroll int) (*ir.Module, error) {
	if k != nil {
		return k.Build()
	}
	src, err := os.ReadFile(srcPath)
	if err != nil {
		return nil, err
	}
	m, err := minic.Compile(string(src), minic.Options{UnrollLimit: unroll})
	if err != nil {
		return nil, err
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		return nil, err
	}
	return m, nil
}

func setupFor(k *workload.Kernel) func(*interp.Env) error {
	if k == nil {
		return nil
	}
	return func(env *interp.Env) error {
		for name, vals := range k.Inputs {
			if err := env.SetGlobal(name, vals); err != nil {
				return err
			}
		}
		return nil
	}
}

// outputsFor names the globals -simulate compares; a -src program is
// checked on its return value alone.
func outputsFor(k *workload.Kernel) []string {
	if k == nil {
		return nil
	}
	return k.Outputs
}

func entryFor(k *workload.Kernel, entry string) string {
	if k != nil {
		return k.Entry
	}
	return entry
}

func argsFor(k *workload.Kernel, args []int32) []int32 {
	if k != nil {
		return k.Args
	}
	return args
}

// defaultVectors produces a few deterministic test vectors for an AFU's
// self-checking bench.
func defaultVectors(d *ir.AFUDef) [][]int32 {
	patterns := []int32{0, 1, -1, 7, -128, 32767, -32768, 123456789}
	var out [][]int32
	for v := 0; v < 6; v++ {
		vec := make([]int32, d.NumIn)
		for i := range vec {
			vec[i] = patterns[(v+i*3)%len(patterns)]
		}
		out = append(out, vec)
	}
	return out
}
