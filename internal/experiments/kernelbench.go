package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/workload"
)

// This file measures the word-parallel constraint kernel of internal/dfg
// against the specification predicates it replaced, on the paper's
// flagship workload (the adpcmdecode hot block), and serializes the
// numbers as a machine-readable report. The isebench command writes the
// report to BENCH_PR2.json so the repository carries a comparable perf
// trajectory from PR to PR; CI regenerates it per change.

// KernelBenchEntry is one measured benchmark.
type KernelBenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SpeedupVsSpec is ns/op(spec) ÷ ns/op(bitset), set on the bitset
	// rows that have a spec twin.
	SpeedupVsSpec float64 `json:"speedup_vs_spec,omitempty"`
	// CutsPerSec is search throughput (cuts considered per second), set
	// on the end-to-end search rows.
	CutsPerSec float64 `json:"cuts_per_sec,omitempty"`
	// Status and Aborted report how the end-to-end search ended; empty on
	// the constraint-predicate rows, which run no search.
	Status  string `json:"status,omitempty"`
	Aborted bool   `json:"aborted,omitempty"`
}

// KernelBenchReport is the BENCH_PR2.json payload.
type KernelBenchReport struct {
	Schema    string             `json:"schema"`
	Generated string             `json:"generated"`
	GoVersion string             `json:"go"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	Block     string             `json:"block"`
	BlockOps  int                `json:"block_ops"`
	CutSize   int                `json:"cut_size"`
	Entries   []KernelBenchEntry `json:"entries"`
}

// hotAdpcmGraph returns the largest adpcmdecode block — the graph the
// paper's §8 run-time discussion revolves around.
func hotAdpcmGraph() (*dfg.Graph, string, error) {
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		return nil, "", err
	}
	var hot *workload.BlockInfo
	for i := range graphs {
		if graphs[i].Kernel == "adpcmdecode" && (hot == nil || graphs[i].Graph.NumOps() > hot.Graph.NumOps()) {
			hot = &graphs[i]
		}
	}
	if hot == nil {
		return nil, "", fmt.Errorf("experiments: no adpcmdecode block found")
	}
	return hot.Graph, hot.Fn + "/" + hot.Block, nil
}

// KernelBenchCut returns the representative cut the kernel benches
// measure against: the §9 windowed heuristic's best (2,1) cut on the
// given graph — deterministic, cheap to find, and realistically sized.
func KernelBenchCut(g *dfg.Graph) dfg.Cut {
	return core.FindBestCutWindowed(g, core.Config{Nin: 2, Nout: 1}, 12).Cut
}

// KernelBench measures the constraint kernel (specification predicates
// vs the word-parallel bitset implementations, plus end-to-end search
// throughput) and returns the report.
func KernelBench() (*KernelBenchReport, error) {
	g, name, err := hotAdpcmGraph()
	if err != nil {
		return nil, err
	}
	cut := KernelBenchCut(g)
	if len(cut) == 0 {
		return nil, fmt.Errorf("experiments: windowed search found no cut on %s", name)
	}
	rep := &KernelBenchReport{
		Schema:    "isex-kernel-bench/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Block:     name,
		BlockOps:  g.NumOps(),
		CutSize:   len(cut),
	}

	add := func(name string, fn func(b *testing.B)) KernelBenchEntry {
		r := testing.Benchmark(fn)
		e := KernelBenchEntry{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Entries = append(rep.Entries, e)
		return e
	}
	pair := func(name string, spec, fast func()) {
		s := add(name+"/spec", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec()
			}
		})
		f := add(name+"/bitset", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fast()
			}
		})
		if f.NsPerOp > 0 {
			rep.Entries[len(rep.Entries)-1].SpeedupVsSpec = s.NsPerOp / f.NsPerOp
		}
	}

	pair("Inputs", func() { g.InputsSpec(cut) }, func() { g.Inputs(cut) })
	pair("Outputs", func() { g.OutputsSpec(cut) }, func() { g.Outputs(cut) })
	pair("Convex", func() { g.ConvexSpec(cut) }, func() { g.Convex(cut) })
	pair("Legal", func() { g.LegalSpec(cut, 2, 1) }, func() { g.Legal(cut, 2, 1) })
	pair("Components", func() { g.ComponentsSpec(cut) }, func() { g.Components(cut) })

	// End-to-end: the paper's exact (2,1) search on the hot block,
	// reported as cuts/sec — the number the §8 run-time discussion is
	// about.
	var last core.Result
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			last = core.FindBestCut(g, core.Config{Nin: 2, Nout: 1, Paper: true})
		}
	})
	cuts := last.Stats.CutsConsidered
	e := KernelBenchEntry{
		Name:        "FindBestCut(2,1)",
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Status:      last.Status.String(),
		Aborted:     last.Stats.Aborted,
	}
	if r.T > 0 {
		e.CutsPerSec = float64(cuts) * float64(r.N) / r.T.Seconds()
	}
	rep.Entries = append(rep.Entries, e)
	return rep, nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func (r *KernelBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// KernelBenchTable renders the report for terminal output.
func KernelBenchTable(r *KernelBenchReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Constraint-kernel benchmark — %s (%d ops, cut size %d), %s %s/%s\n\n",
		r.Block, r.BlockOps, r.CutSize, r.GoVersion, r.GOOS, r.GOARCH)
	fmt.Fprintf(&sb, "%-20s %14s %12s %12s %10s %14s\n",
		"benchmark", "ns/op", "B/op", "allocs/op", "speedup", "cuts/sec")
	for _, e := range r.Entries {
		speed, cps := "", ""
		if e.SpeedupVsSpec > 0 {
			speed = fmt.Sprintf("%.1fx", e.SpeedupVsSpec)
		}
		if e.CutsPerSec > 0 {
			cps = fmt.Sprintf("%.3g", e.CutsPerSec)
		}
		fmt.Fprintf(&sb, "%-20s %14.1f %12d %12d %10s %14s\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, speed, cps)
	}
	return sb.String()
}
