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
	"isex/internal/obs"
	"isex/internal/workload"
)

// This file measures what the telemetry subsystem costs the exact search
// — the one number the whole design hinges on. Three configurations run
// on the hottest real benchmark blocks:
//
//   - probe off (twice): the production fast path, measured twice so the
//     report carries its own A/A noise floor. The nil-probe overhead
//     claim is honest only relative to that floor.
//   - metrics only: atomic counters on, flight recorder off — the
//     configuration a long-running service would leave enabled.
//   - full tracing: metrics plus per-searcher flight-recorder rings.
//
// The isebench command writes the report to BENCH_PR5.json; CI
// regenerates it per change so the overhead trajectory is tracked like
// the other benches.

// ObsBenchEntry is one measured (block, probe mode) configuration.
type ObsBenchEntry struct {
	Block string `json:"block"`
	// Mode is "off-a"/"off-b" (nil probe, measured twice), "metrics"
	// (registry only) or "trace" (registry + flight recorder).
	Mode    string  `json:"mode"`
	NsPerOp float64 `json:"ns_per_op"`
	// CutsConsidered, Merit, Status and Aborted certify that every mode
	// ran the identical search to the same exact end.
	CutsConsidered int64  `json:"cuts_considered"`
	Merit          int64  `json:"merit"`
	Status         string `json:"status"`
	Aborted        bool   `json:"aborted"`
	// Events is the flight-recorder timeline length ("trace" mode only).
	Events int `json:"events,omitempty"`
	// OverheadPct is the ns/op delta vs the block's "off-a" baseline in
	// percent (negative = measured faster; the off-b row shows the run's
	// noise floor).
	OverheadPct float64 `json:"overhead_pct"`
}

// ObsBenchReport is the BENCH_PR5.json payload.
type ObsBenchReport struct {
	Schema    string          `json:"schema"`
	Generated string          `json:"generated"`
	GoVersion string          `json:"go"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	NumCPU    int             `json:"num_cpu"`
	Nin       int             `json:"nin"`
	Nout      int             `json:"nout"`
	Entries   []ObsBenchEntry `json:"entries"`
}

// obsBenchKernels are the workloads swept: the hottest block of each. The
// g721 block is the largest exact search in the suite; fir is a small block where fixed probe costs would loom
// largest relative to the search itself.
var obsBenchKernels = []string{"g721", "fir"}

// hottestBlockOf returns the largest operation graph among kernel's real
// blocks.
func hottestBlockOf(kernel string) (*dfg.Graph, string, error) {
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		return nil, "", err
	}
	var hot *workload.BlockInfo
	for i := range graphs {
		if graphs[i].Kernel != kernel {
			continue
		}
		if hot == nil || graphs[i].Graph.NumOps() > hot.Graph.NumOps() {
			hot = &graphs[i]
		}
	}
	if hot == nil {
		return nil, "", fmt.Errorf("experiments: no blocks found for kernel %q", kernel)
	}
	return hot.Graph, hot.Kernel + "/" + hot.Fn + "/" + hot.Block, nil
}

// ObsBench measures the telemetry overhead matrix and returns the report.
// It errors out if any mode changes the search outcome — the differential
// guarantee is part of what the report certifies.
func ObsBench() (*ObsBenchReport, error) {
	const nin, nout = 2, 1
	rep := &ObsBenchReport{
		Schema:    "isex-obs-bench/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Nin:       nin,
		Nout:      nout,
	}
	for _, kernel := range obsBenchKernels {
		g, name, err := hottestBlockOf(kernel)
		if err != nil {
			return nil, err
		}
		// The paper's unpruned search, so g721 stays the large search
		// the overhead is measured against (see obsBenchKernels).
		cfg := core.Config{Nin: nin, Nout: nout, Paper: true}
		measure := func(mode string, probe func() *obs.Probe) (ObsBenchEntry, error) {
			var res core.Result
			var p *obs.Probe
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c := cfg
					if probe != nil {
						p = probe()
						c.Probe = p
					}
					res = core.FindBestCut(g, c)
				}
			})
			e := ObsBenchEntry{
				Block:          name,
				Mode:           mode,
				NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
				CutsConsidered: res.Stats.CutsConsidered,
				Merit:          res.Est.Merit,
				Status:         res.Status.String(),
				Aborted:        res.Stats.Aborted,
			}
			if p != nil && p.Rec != nil {
				e.Events = len(p.Rec.Merge())
			}
			return e, nil
		}
		base, err := measure("off-a", nil)
		if err != nil {
			return nil, err
		}
		rep.Entries = append(rep.Entries, base)
		modes := []struct {
			name  string
			probe func() *obs.Probe
		}{
			{"off-b", nil},
			{"metrics", func() *obs.Probe {
				return &obs.Probe{Met: obs.NewMetrics(obs.NewRegistry())}
			}},
			{"trace", func() *obs.Probe {
				return &obs.Probe{
					Rec: obs.NewRecorder(obs.DefaultRingCap),
					Met: obs.NewMetrics(obs.NewRegistry()),
				}
			}},
		}
		for _, m := range modes {
			e, err := measure(m.name, m.probe)
			if err != nil {
				return nil, err
			}
			if e.Merit != base.Merit || e.CutsConsidered != base.CutsConsidered ||
				e.Status != base.Status {
				return nil, fmt.Errorf("experiments: %s %s diverged from baseline: merit %d cuts %d status %s (base %d/%d/%s)",
					name, m.name, e.Merit, e.CutsConsidered, e.Status,
					base.Merit, base.CutsConsidered, base.Status)
			}
			if base.NsPerOp > 0 {
				e.OverheadPct = (e.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
			}
			rep.Entries = append(rep.Entries, e)
		}
	}
	return rep, nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func (r *ObsBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ObsBenchTable renders the report for terminal output.
func ObsBenchTable(r *ObsBenchReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Telemetry overhead benchmark — Nin=%d Nout=%d, %s %s/%s, %d CPU\n\n",
		r.Nin, r.Nout, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU)
	fmt.Fprintf(&sb, "%-28s %-8s %12s %16s %8s %9s %8s\n",
		"block", "mode", "ms/op", "cuts considered", "merit", "overhead", "events")
	for _, e := range r.Entries {
		over := ""
		if e.Mode != "off-a" {
			over = fmt.Sprintf("%+.2f%%", e.OverheadPct)
		}
		events := ""
		if e.Events > 0 {
			events = fmt.Sprintf("%d", e.Events)
		}
		fmt.Fprintf(&sb, "%-28s %-8s %12.2f %16d %8d %9s %8s\n",
			e.Block, e.Mode, e.NsPerOp/1e6, e.CutsConsidered, e.Merit, over, events)
	}
	return sb.String()
}
