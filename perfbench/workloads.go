package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"isex/internal/workload"
)

// The `isex` CLI's search defaults.
const (
	searchBudget   = 2_000_000 // cuts per identification call (-budget)
	pipelineNinstr = 8         // -ninstr
)

// job is one closed-loop request: it runs, fills its stats and reports
// an error when a layer fails or its output check does not hold.
type job interface {
	label() string
	run(ctx context.Context, t *tracer, parent int, st *jobStats) error
}

func (j *pipelineJob) label() string { return j.name }
func (j *sweepJob) label() string    { return j.name }

// settings records a workload's definition. Changing any of it is a
// change of the benchmark.
type settings struct {
	Jobs        string   `json:"jobs"`
	Driver      string   `json:"driver"`
	Ports       []string `json:"ports"`
	Ninstr      string   `json:"ninstr"`
	Budget      int64    `json:"budget_cuts_per_call"`
	Dedup       bool     `json:"dedup"`
	ISEGen      bool     `json:"isegen_racer"`
	Search      string   `json:"search"`
	Prunings    string   `json:"prunings"`
	Probe       string   `json:"probe"`
	Inputs      string   `json:"inputs"`
	Check       string   `json:"check"`
	SweepWorker int      `json:"sweep_workers,omitempty"`
}

var (
	cliSearch = searchConfig(0, 0, nil, nil)
	cliSweep  = sweepOptions(nil, 0, false)
)

var workloads = map[string]struct {
	settings settings
	setup    func(ctx context.Context, seed int64) ([]job, error)
}{
	"kernels": {settings{
		Jobs:     "12 built-in kernels (workload.All) x ports",
		Driver:   "core.SelectIterativeCtx",
		Ports:    []string{"2/1", "4/2"},
		Ninstr:   "8",
		Budget:   cliSearch.MaxCuts,
		Dedup:    cliSearch.Dedup,
		ISEGen:   cliSearch.ISEGen,
		Search:   "serial",
		Prunings: "none",
		Probe:    "metrics only",
		Inputs:   "input arrays redrawn from the seed, built-in lengths and value ranges",
		Check:    "return value and Kernel.Outputs equal the unpatched module under internal/interp",
	}, kernelJobs},
	"sweep-traced": {settings{
		Jobs:        "dse.Sweep on adpcmdecode+adpcmencode, fir+gsmlpc, viterbi+fft in turn",
		Driver:      "dse.Sweep warm, then Recorder.Merge, WriteJSONL, dse.AttachAttribution",
		Ports:       []string{"2/1", "4/2", "4/3", "8/4"},
		Ninstr:      "1,2,4,8,16 (dse default grid), target paper",
		Budget:      cliSweep.Budget,
		Dedup:       cliSweep.Dedup,
		ISEGen:      cliSweep.ISEGen,
		Search:      "serial per block, chains on the shared CPU pool",
		Prunings:    "none",
		Probe:       "recorder + metrics",
		Inputs:      "built-in kernel inputs; ShardSeed is the seed",
		Check:       "report without its attribution section is byte-equal to a cold dse.Sweep of the same grid",
		SweepWorker: cliSweep.Workers,
	}, sweepJobs},
}

var kernelPorts = [][2]int{{2, 1}, {4, 2}}

// kernelJobs builds one job per built-in kernel and port constraint,
// with the kernel's input arrays redrawn from the seed.
func kernelJobs(_ context.Context, seed int64) ([]job, error) {
	var jobs []job
	for _, k := range workload.All() {
		inputs := redraw(k, seed)
		var ref *image
		for _, p := range kernelPorts {
			j := &pipelineJob{
				name: fmt.Sprintf("%s@%d/%d", k.Name, p[0], p[1]),
				src:  k.Source, unroll: k.Unroll, entry: k.Entry, args: k.Args,
				inputs: inputs, outputs: k.Outputs, nin: p[0], nout: p[1],
			}
			if ref == nil {
				var err error
				if ref, err = j.reference(); err != nil {
					return nil, fmt.Errorf("%s: %w", j.name, err)
				}
			}
			j.ref = ref
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// redraw returns k's input arrays with new values drawn uniformly from
// each array's built-in [min, max], keeping its length.
func redraw(k *workload.Kernel, seed int64) []global {
	h := fnv.New64a()
	h.Write([]byte(k.Name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	names := make([]string, 0, len(k.Inputs))
	for name := range k.Inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []global
	for _, name := range names {
		vals := k.Inputs[name]
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
		}
		nv := make([]int32, len(vals))
		for i := range nv {
			nv[i] = lo + int32(rng.Int63n(int64(hi)-int64(lo)+1))
		}
		out = append(out, global{name: name, vals: nv})
	}
	return out
}

var sweepPairs = [][]string{{"adpcmdecode", "adpcmencode"}, {"fir", "gsmlpc"}, {"viterbi", "fft"}}

// sweepJobs computes each pair's cold reference report.
func sweepJobs(ctx context.Context, seed int64) ([]job, error) {
	var jobs []job
	for _, pair := range sweepPairs {
		j := &sweepJob{name: pair[0] + "+" + pair[1], pair: pair, seed: seed}
		var err error
		if j.ref, err = j.reference(ctx); err != nil {
			return nil, fmt.Errorf("%s: %w", j.name, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}
