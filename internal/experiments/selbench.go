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
	"isex/internal/ir"
	"isex/internal/workload"
)

// This file measures the speculative selection scheduler of internal/core
// against the cold serial greedy drivers on a real benchmark module, and
// serializes the numbers as a machine-readable report. The isebench
// command writes the report to BENCH_PR4.json so the repository carries a
// comparable perf trajectory from PR to PR; CI regenerates it per change.
//
// The serial rows run the paper-faithful cold greedy drivers of §6.2
// (optimal) and §6.3 (iterative) with no pruning extensions
// (core.Config.Paper). The scheduled rows run Speculate — one serial
// search per slot of a GOMAXPROCS-wide CPU pool — on the default search,
// whose sound, result-preserving prunings are always on, plus WarmStart,
// so speculative re-identification, warm-started incumbents, and
// incremental collapse all contribute. A serial/pruned reference row
// isolates the pruning contribution from the scheduling one. Every row
// must return the identical selection — the report regenerates in CI and
// fails on any divergence.

// SelBenchEntry is one measured selection configuration.
type SelBenchEntry struct {
	Name   string `json:"name"`
	Driver string `json:"driver"` // "optimal" or "iterative"
	Ninstr int    `json:"ninstr"`
	// Slots is the CPU width the row may use: 1 for the serial rows,
	// runtime.GOMAXPROCS(0) for the scheduled ones.
	Slots int `json:"slots"`
	// NsPerOp is the wall-clock cost of one full selection run.
	NsPerOp float64 `json:"ns_per_op"`
	// IdentCalls is the §6.2 currency: identification calls the driver
	// consumed (speculation must not inflate it).
	IdentCalls int `json:"ident_calls"`
	// SpeculativeCalls / CacheHits account for the scheduler's extra
	// speculative searches and how many were adopted.
	SpeculativeCalls int `json:"speculative_calls"`
	CacheHits        int `json:"cache_hits"`
	// TotalMerit and Instructions identify the selection found; every row
	// must agree with the serial driver (bit-identical by construction).
	TotalMerit   int64 `json:"total_merit"`
	Instructions int   `json:"instructions"`
	// Status and Aborted report how the measured selection ended (always
	// "exhaustive"/false here — SelBench rejects anything else — but the
	// report schema carries them so consumers need not assume).
	Status  string `json:"status"`
	Aborted bool   `json:"aborted"`
	// SpeedupVsSerial is ns/op(serial) ÷ ns/op(this row), set on the
	// non-baseline rows of each (driver, ninstr) group.
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// SelBenchReport is the BENCH_PR4.json payload.
type SelBenchReport struct {
	Schema    string          `json:"schema"`
	Generated string          `json:"generated"`
	GoVersion string          `json:"go"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	NumCPU    int             `json:"num_cpu"`
	Benchmark string          `json:"benchmark"`
	Nin       int             `json:"nin"`
	Nout      int             `json:"nout"`
	Entries   []SelBenchEntry `json:"entries"`
}

// selBenchNinstr are the instruction counts the report sweeps.
var selBenchNinstr = []int{2, 4, 8}

// SelBenchDefault returns the report's default configuration: the
// benchmark module and port constraints where the cold serial optimal
// driver is expensive enough to measure but still exhaustive.
func SelBenchDefault() (string, int, int) { return "fir", 2, 1 }

// SelBench measures cold serial vs scheduled greedy selection on a real
// benchmark module and returns the report. It errors out if any row
// disagrees with the serial selection — the scheduler's bit-identity
// contract is part of what the report certifies.
func SelBench(benchmark string, nin, nout int) (*SelBenchReport, error) {
	k := workload.ByName(benchmark)
	if k == nil {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", benchmark)
	}
	m, err := k.Prepare()
	if err != nil {
		return nil, err
	}
	rep := &SelBenchReport{
		Schema:    "isex-sel-bench/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Benchmark: benchmark,
		Nin:       nin,
		Nout:      nout,
	}

	type driver struct {
		name string
		sel  func(*ir.Module, int, core.Config) core.SelectionResult
	}
	drivers := []driver{
		{"optimal", core.SelectOptimal},
		{"iterative", core.SelectIterative},
	}
	serialCfg := core.Config{Nin: nin, Nout: nout, Paper: true}
	prunedCfg := core.Config{Nin: nin, Nout: nout, WarmStart: true}
	schedCfg := prunedCfg
	schedCfg.Speculate = true
	procs := runtime.GOMAXPROCS(0)

	measure := func(name string, d driver, ninstr int, cfg core.Config) (SelBenchEntry, core.SelectionResult, error) {
		slots := 1
		if cfg.Speculate {
			slots = procs
		}
		var res core.SelectionResult
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res = d.sel(m, ninstr, cfg)
			}
		})
		if res.Status != core.Exhaustive {
			return SelBenchEntry{}, res, fmt.Errorf("experiments: %s not exhaustive: %v", name, res.Status)
		}
		return SelBenchEntry{
			Name:             name,
			Driver:           d.name,
			Ninstr:           ninstr,
			Slots:            slots,
			NsPerOp:          float64(r.T.Nanoseconds()) / float64(r.N),
			IdentCalls:       res.IdentCalls,
			SpeculativeCalls: res.SpeculativeCalls,
			CacheHits:        res.CacheHits,
			TotalMerit:       res.TotalMerit,
			Instructions:     len(res.Instructions),
			Status:           res.Status.String(),
			Aborted:          res.Stats.Aborted,
		}, res, nil
	}
	check := func(e SelBenchEntry, got, want core.SelectionResult) error {
		if got.TotalMerit != want.TotalMerit || len(got.Instructions) != len(want.Instructions) {
			return fmt.Errorf("experiments: %s diverged from serial: merit %d (%d instrs), serial merit %d (%d instrs)",
				e.Name, got.TotalMerit, len(got.Instructions), want.TotalMerit, len(want.Instructions))
		}
		for i := range want.Instructions {
			a, b := want.Instructions[i], got.Instructions[i]
			if a.Fn.Name != b.Fn.Name || a.Block.Name != b.Block.Name || a.Est != b.Est {
				return fmt.Errorf("experiments: %s instruction %d diverged: %s/%s vs serial %s/%s",
					e.Name, i, b.Fn.Name, b.Block.Name, a.Fn.Name, a.Block.Name)
			}
		}
		return nil
	}

	for _, d := range drivers {
		for _, ninstr := range selBenchNinstr {
			serial, ref, err := measure(fmt.Sprintf("%s/serial", d.name), d, ninstr, serialCfg)
			if err != nil {
				return nil, err
			}
			rep.Entries = append(rep.Entries, serial)
			rows := []struct {
				name string
				cfg  core.Config
			}{
				{fmt.Sprintf("%s/serial/pruned", d.name), prunedCfg},
				{fmt.Sprintf("%s/scheduled/gomaxprocs=%d", d.name, procs), schedCfg},
			}
			for _, row := range rows {
				e, res, err := measure(row.name, d, ninstr, row.cfg)
				if err != nil {
					return nil, err
				}
				if err := check(e, res, ref); err != nil {
					return nil, err
				}
				if e.NsPerOp > 0 {
					e.SpeedupVsSerial = serial.NsPerOp / e.NsPerOp
				}
				rep.Entries = append(rep.Entries, e)
			}
		}
	}
	return rep, nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func (r *SelBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// SelBenchTable renders the report for terminal output.
func SelBenchTable(r *SelBenchReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Selection scheduler benchmark — %s (Nin=%d Nout=%d), %s %s/%s, %d CPU\n\n",
		r.Benchmark, r.Nin, r.Nout, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU)
	fmt.Fprintf(&sb, "%-32s %7s %12s %6s %6s %6s %8s %10s\n",
		"selection", "ninstr", "ms/op", "ident", "spec", "hits", "merit", "speedup")
	for _, e := range r.Entries {
		speed := ""
		if e.SpeedupVsSerial > 0 {
			speed = fmt.Sprintf("%.2fx", e.SpeedupVsSerial)
		}
		fmt.Fprintf(&sb, "%-32s %7d %12.2f %6d %6d %6d %8d %10s\n",
			e.Name, e.Ninstr, e.NsPerOp/1e6, e.IdentCalls,
			e.SpeculativeCalls, e.CacheHits, e.TotalMerit, speed)
	}
	return sb.String()
}
