package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/minic"
	"isex/internal/obs"
	"isex/internal/passes"
	"isex/internal/progen"
	"isex/internal/workload"
)

// This file measures the ISEGEN-style Kernighan–Lin racer (Config.ISEGen,
// DESIGN.md §15) on the blocks it exists for: bodies where the exact
// §6.1 search explodes as the port budget widens. The corpus is g721's
// 126-op hot block — the largest real benchmark body — plus progen stress
// and control blocks, each searched at 2/1, 4/2 and 8/4 ports with the
// racer off (reference) and on.
//
// Rows come in (block × ports × racer) pairs under one shared cut budget.
// On blocks where the exact search terminates, the pair must return the
// bit-identical cut and merit — the racer's determinism contract — and
// the row records the racer's optimality gap against the proven optimum
// (RacerMerit is the best publication across benchmark iterations, so the
// gap certifies the heuristic's capability rather than one lucky race).
// On budget-tripped blocks the racer-on row may only improve the merit;
// MeritVsOff carries the improvement and RacerNsToBest how quickly the
// racer reached its best answer inside a real race (flight-recorder
// timestamps). The report regenerates in CI (BENCH_PR8.json) and fails on
// any divergence, so it re-certifies the contract on every change.

// KLBenchEntry is one measured (block, ports, racer) configuration.
type KLBenchEntry struct {
	Name  string `json:"name"`
	Block string `json:"block"`
	Ops   int    `json:"ops"`
	Nin   int    `json:"nin"`
	Nout  int    `json:"nout"`
	Racer bool   `json:"racer"`
	// NsPerOp is the wall-clock cost of the full block search (every
	// ladder rung included).
	NsPerOp float64 `json:"ns_per_op"`
	Merit   int64   `json:"merit"`
	Status  string  `json:"status"`
	Rung    string  `json:"rung"`
	// RacerMerit is the racer's best publication across all benchmark
	// iterations (0 when the racer never published or is off).
	RacerMerit int64 `json:"racer_merit,omitempty"`
	// Gap is (optimum − RacerMerit) / optimum, recorded only on rows where
	// the exact search terminated with a proven optimum while the racer
	// published (GapKnown).
	Gap      float64 `json:"gap"`
	GapKnown bool    `json:"gap_known"`
	// RacerNsToBest is how long after search start the racer published its
	// best answer, measured from flight-recorder timestamps on a separate
	// instrumented run (racer-on rows only).
	RacerNsToBest float64 `json:"racer_ns_to_best,omitempty"`
	// RacerNsToBeatOff is how long after search start the racer first
	// published a merit ≥ the paired racer-off answer — the moment the
	// heuristic caught up with the budget-truncated exact search (same
	// instrumented run; 0 when it never did).
	RacerNsToBeatOff float64 `json:"racer_ns_to_beat_off,omitempty"`
	// MeritVsOff is merit ÷ the paired racer-off merit (racer-on rows).
	MeritVsOff float64 `json:"merit_vs_off,omitempty"`
	// WallVs21 is ns/op ÷ the same block's 2/1 racer-on ns/op — how the
	// wider port configs' wall-clock compares to the tightest one.
	WallVs21 float64 `json:"wall_vs_21,omitempty"`
}

// KLBenchReport is the BENCH_PR8.json payload.
type KLBenchReport struct {
	Schema    string         `json:"schema"`
	Generated string         `json:"generated"`
	GoVersion string         `json:"go"`
	GOOS      string         `json:"goos"`
	GOARCH    string         `json:"goarch"`
	NumCPU    int            `json:"num_cpu"`
	Budget    int64          `json:"budget"`
	Entries   []KLBenchEntry `json:"entries"`
}

const (
	// klBenchBudget is the cut budget of the stress rows: generous enough
	// that g721 at 2/1 terminates with a proven optimum, tight enough that
	// the wider port configs trip it and the racer's answer matters.
	klBenchBudget = 200_000
)

// klBenchPorts are the paper's three microarchitectural port budgets.
var klBenchPorts = [][2]int{{2, 1}, {4, 2}, {8, 4}}

type klBlock struct {
	name   string
	g      *dfg.Graph
	budget int64 // 0 = unbounded (terminating control rows)
}

// klBenchBlocks assembles the corpus: the g721 hot block and a progen
// stress block (budget-bounded, where the exact search explodes at wide
// ports), plus two mid-size progen control blocks that terminate at every
// port config and pin the gap measurement.
func klBenchBlocks() ([]klBlock, error) {
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		return nil, err
	}
	var hot *workload.BlockInfo
	for i := range graphs {
		if graphs[i].Kernel != "g721" {
			continue
		}
		if hot == nil || graphs[i].Graph.NumOps() > hot.Graph.NumOps() {
			hot = &graphs[i]
		}
	}
	if hot == nil {
		return nil, fmt.Errorf("experiments: g721 blocks not found")
	}
	blocks := []klBlock{{
		name:   "g721/" + hot.Fn + "/" + hot.Block,
		g:      hot.Graph,
		budget: klBenchBudget,
	}}
	for _, spec := range []struct {
		seed      int64
		fn, block string
		budget    int64
	}{
		{29, "f2", "entry", klBenchBudget}, // 76 ops: explodes at wide ports
		{1, "f1", "join5", 0},              // 17 ops: terminates everywhere
		{1, "f1", "else13", 0},             // 19 ops: terminates everywhere
	} {
		g, err := progenBlock(spec.seed, spec.fn, spec.block)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, klBlock{
			name:   fmt.Sprintf("progen%d/%s/%s", spec.seed, spec.fn, spec.block),
			g:      g,
			budget: spec.budget,
		})
	}
	return blocks, nil
}

// progenBlock compiles the progen seed's program and returns one named
// block's graph (unprofiled: every frequency weighs one execution).
func progenBlock(seed int64, fn, block string) (*dfg.Graph, error) {
	src := progen.Generate(progen.Config{Seed: seed}).Source
	m, err := minic.Compile(src, minic.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: progen seed %d: %w", seed, err)
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		return nil, fmt.Errorf("experiments: progen seed %d: %w", seed, err)
	}
	for _, f := range m.Funcs {
		if f.Name != fn {
			continue
		}
		li := ir.Liveness(f)
		for _, b := range f.Blocks {
			if b.Name != block {
				continue
			}
			g, err := dfg.Build(f, b, li)
			if err != nil {
				return nil, err
			}
			return g, nil
		}
	}
	return nil, fmt.Errorf("experiments: progen seed %d has no block %s/%s", seed, fn, block)
}

// klBenchConfig is the shared search configuration of every row: the
// default (pruned) serial search, so the only varied dimensions are the
// ports and the racer.
func klBenchConfig(b klBlock, nin, nout int, racer bool) core.Config {
	return core.Config{Nin: nin, Nout: nout, MaxCuts: b.budget, ISEGen: racer}
}

// racerTimes runs one instrumented search and reads two latencies off the
// flight recorder: nsBest is when the racer published its best incumbent,
// nsBeat when it first published a merit ≥ threshold (the paired racer-off
// merit — the moment the racer caught the budget-truncated exact search).
func racerTimes(b klBlock, cfg core.Config, threshold int64) (nsBest, nsBeat float64, ok bool) {
	probe := &obs.Probe{Rec: obs.NewRecorder(obs.DefaultRingCap)}
	cfg.Probe = probe
	core.SearchBlockCtx(context.Background(), b.g, cfg)
	t0, tBest, tBeat := int64(-1), int64(-1), int64(-1)
	var best int64
	for _, ev := range probe.Rec.Merge() {
		switch ev.Kind {
		case obs.KSearchStart:
			if t0 < 0 {
				t0 = ev.T
			}
		case obs.KRacerPublish:
			if ev.A > best {
				best, tBest = ev.A, ev.T
			}
			if threshold > 0 && ev.A >= threshold && tBeat < 0 {
				tBeat = ev.T
			}
		}
	}
	if t0 < 0 || tBest < 0 {
		return 0, 0, false
	}
	if tBeat >= 0 {
		nsBeat = float64(tBeat - t0)
	}
	return float64(tBest - t0), nsBeat, true
}

// KLBench measures the racer against the racer-less ladder over the
// corpus and returns the report. It errors out when a terminating pair
// diverges, when a racer-on row loses merit, or when a recorded gap is
// negative (each would break a soundness or determinism contract).
func KLBench() (*KLBenchReport, error) {
	blocks, err := klBenchBlocks()
	if err != nil {
		return nil, err
	}
	rep := &KLBenchReport{
		Schema:    "isex-kl-bench/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Budget:    klBenchBudget,
	}

	measure := func(b klBlock, nin, nout int, racer bool, offMerit int64) (KLBenchEntry, core.Result) {
		cfg := klBenchConfig(b, nin, nout, racer)
		var res core.Result
		var bs core.BlockStatus
		var racerBest int64
		r := testing.Benchmark(func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				res, bs = core.SearchBlockCtx(context.Background(), b.g, cfg)
				if bs.RacerMerit > racerBest {
					racerBest = bs.RacerMerit
				}
			}
		})
		e := KLBenchEntry{
			Name:    fmt.Sprintf("%s/%d-%d/racer=%v", b.name, nin, nout, racer),
			Block:   b.name,
			Ops:     b.g.NumOps(),
			Nin:     nin,
			Nout:    nout,
			Racer:   racer,
			NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N),
			Merit:   res.Est.Merit,
			Status:  bs.Status.String(),
			Rung:    bs.Rung.String(),
		}
		if racerBest > 0 {
			e.RacerMerit = racerBest
		}
		if bs.Status == core.Exhaustive && racerBest > 0 && res.Est.Merit > 0 {
			e.Gap = float64(res.Est.Merit-racerBest) / float64(res.Est.Merit)
			e.GapKnown = true
		}
		if racer {
			if nsBest, nsBeat, ok := racerTimes(b, cfg, offMerit); ok {
				e.RacerNsToBest = nsBest
				e.RacerNsToBeatOff = nsBeat
			}
		}
		return e, res
	}

	for _, b := range blocks {
		var ns21 float64
		for _, p := range klBenchPorts {
			off, offRes := measure(b, p[0], p[1], false, 0)
			on, onRes := measure(b, p[0], p[1], true, off.Merit)
			if off.Status == core.Exhaustive.String() {
				if on.Merit != off.Merit || !onRes.Cut.Equal(offRes.Cut) {
					return nil, fmt.Errorf("experiments: %s diverged on a terminating block: racer-on merit %d cut %v, racer-off merit %d cut %v",
						on.Name, on.Merit, onRes.Cut, off.Merit, offRes.Cut)
				}
			}
			if on.Merit < off.Merit {
				return nil, fmt.Errorf("experiments: %s lost merit with the racer on: %d vs %d",
					on.Name, on.Merit, off.Merit)
			}
			if on.GapKnown && on.Gap < 0 {
				return nil, fmt.Errorf("experiments: %s published above the proven optimum (gap %v) — unsound",
					on.Name, on.Gap)
			}
			if off.Merit > 0 {
				on.MeritVsOff = float64(on.Merit) / float64(off.Merit)
			}
			if p[0] == 2 && p[1] == 1 {
				ns21 = on.NsPerOp
			} else if ns21 > 0 {
				on.WallVs21 = on.NsPerOp / ns21
			}
			rep.Entries = append(rep.Entries, off, on)
		}
	}
	return rep, nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func (r *KLBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// KLBenchTable renders the report for terminal output.
func KLBenchTable(r *KLBenchReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Iterative racer benchmark — budget %d cuts, serial/pruned, %s %s/%s, %d CPU\n\n",
		r.Budget, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU)
	fmt.Fprintf(&sb, "%-28s %4s %5s %6s %10s %7s %14s %10s %7s %8s %8s\n",
		"block", "ops", "ports", "racer", "ms/op", "merit", "status", "rung", "gap", "t-best", "t-beat")
	for _, e := range r.Entries {
		gap := ""
		if e.GapKnown {
			gap = fmt.Sprintf("%.1f%%", e.Gap*100)
		}
		tb, tc := "", ""
		if e.RacerNsToBest > 0 {
			tb = fmt.Sprintf("%.1fms", e.RacerNsToBest/1e6)
		}
		if e.RacerNsToBeatOff > 0 {
			tc = fmt.Sprintf("%.1fms", e.RacerNsToBeatOff/1e6)
		}
		fmt.Fprintf(&sb, "%-28s %4d %2d/%-2d %6v %10.2f %7d %14s %10s %7s %8s %8s\n",
			e.Block, e.Ops, e.Nin, e.Nout, e.Racer, e.NsPerOp/1e6, e.Merit,
			e.Status, e.Rung, gap, tb, tc)
	}
	return sb.String()
}
