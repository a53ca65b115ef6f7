// Command perfbench is the repository's benchmark. It drives the isex
// pipeline in a closed loop with one client on one workload, checks
// every job's output against an independent reference, and prints its
// metrics by name with their units. The last line of standard output is
// the result as one JSON object.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run alternates untraced passes with passes that record a
// span around every layer call, and the result carries the per-layer
// metrics: self time, share of job time and work counts per layer, the
// quality counts, and the tracing overhead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// A run sets up at least setupRepeats times and for at least
// setupMinTime; setup_s is the median.
const (
	setupRepeats = 3
	setupMinTime = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is printed before the result so every run records where
// and how it ran.
type environment struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      int      `json:"trace"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Settings   settings `json:"settings"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "kernels or sweep-traced")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 40, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	env := environment{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Settings: w.settings,
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(envLine))

	ctx := context.Background()
	var jobs []job
	var setups []float64
	for start := time.Now(); len(setups) < setupRepeats || time.Since(start) < setupMinTime; {
		t0 := time.Now()
		jobs, err = w.setup(ctx, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d := time.Duration(*seconds) * time.Second
	var res result
	var quality []named
	if *trace == 0 {
		p := measure(ctx, jobs, d, stderr)
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res = newResult(p)
		res.add(endToEnd(p, median(setups), rss))
		quality = qualityMetrics(p)
	} else {
		t := newTracer()
		plain, traced := measurePaired(ctx, jobs, d, t, stderr)
		res = newResult(plain, traced)
		quality = qualityMetrics(traced)
		res.add(quality)
		res.add(perLayer(traced, plain, t.spans))
		if err := writeSpans(fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", *name, *seed), t.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	printTable(stderr, res.Metrics, quality)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// named is a metric with its name, in report order.
type named struct {
	name string
	metric
}

func newResult(ps ...phase) result {
	r := result{Metrics: map[string]metric{}}
	for _, p := range ps {
		r.Attempted += p.jobs
		r.Failed += p.failed
	}
	r.Correct = r.Failed == 0
	return r
}

func (r *result) add(ms []named) {
	for _, m := range ms {
		r.Metrics[m.name] = m.metric
	}
}

// endToEnd computes the metrics a user of isex sees. Timings are taken
// over each job's median time across passes: jobs_per_s is one pass's
// jobs over the pass's typical time, and the percentiles run over those
// per-job medians, one per job of the list.
func endToEnd(p phase, setup, rss float64) []named {
	n := float64(p.jobs)
	typical := p.typicalMs()
	return []named{
		{"setup_s", metric{setup, "s"}},
		{"jobs_per_s", metric{1000 / mean(typical), "1/s"}},
		{"job_ms_p50", metric{quantile(typical, 0.5), "ms"}},
		{"job_ms_p90", metric{quantile(typical, 0.9), "ms"}},
		{"cuts_per_job", metric{float64(p.sum.cuts) / n, "count"}},
		{"est_speedup_geomean", metric{geomean(p.sum.estLog, p.sum.estN), "x"}},
		{"peak_rss_mb", metric{rss, "MB"}},
		{"alloc_mb_per_job", metric{float64(p.alloc) / n / (1 << 20), "MB"}},
	}
}

// qualityMetrics are the output-quality counts, with the number of
// per-job medians the percentiles run over. Sums are per pass: one pass
// runs every job of the workload once.
func qualityMetrics(p phase) []named {
	s, passes := &p.sum, float64(p.passes)
	return []named{
		{"bench.job_samples", metric{float64(len(p.jobMs)), "count"}},
		{"quality.sim_speedup_geomean", metric{geomean(s.simLog, s.simN), "x"}},
		{"quality.merit_gap_cycles", metric{float64(s.meritGap) / passes, "cycles"}},
		{"quality.illegal_cuts", metric{float64(s.cutsIllegal) / passes, "count"}},
		{"quality.degraded_blocks", metric{ratio(float64(s.blocksDegraded), float64(s.blocks)), "ratio"}},
		{"quality.failed_ratio", metric{float64(p.failed) / float64(p.jobs), "ratio"}},
	}
}

// layers maps each span name to its metric prefix, in report order.
var layers = []struct{ span, ms, share string }{
	{"minic", "minic.ms", "minic.share"},
	{"passes", "passes.ms", "passes.share"},
	{"interp", "interp.ms", "interp.share"},
	{"dfg", "dfg.ms", "dfg.share"},
	{"core.select", "core.select_ms", "core.select_share"},
	{"core.patch", "core.patch_ms", "core.patch_share"},
	{"sim", "sim.ms", "sim.share"},
	{"dse", "dse.ms", "dse.share"},
	{"obs.merge", "obs.merge_ms", "obs.merge_share"},
	{"obs.export", "obs.export_ms", "obs.export_share"},
	{"obs.analyze", "obs.analyze_ms", "obs.analyze_share"},
	{"job", "bench.check_ms", "bench.check_share"},
}

// perLayer computes each layer's self time per job and share of job
// time from the traced passes, its work counts per job, and the tracing
// overhead against the untraced passes run alongside them.
func perLayer(traced, plain phase, spans []span) []named {
	self := selfTimes(spans)
	var jobTotal time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			jobTotal += time.Duration(s.End - s.Start)
		}
	}
	n := float64(traced.jobs)
	perJob := func(v int64) float64 { return float64(v) / n }
	var out []named
	for _, l := range layers {
		ms := float64(self[l.span].Nanoseconds()) / 1e6
		out = append(out,
			named{l.ms, metric{ms / n, "ms"}},
			named{l.share, metric{ratio(float64(self[l.span]), float64(jobTotal)), "ratio"}})
	}
	s := &traced.sum
	searchMs := float64((self["core.select"] + self["dse"]).Nanoseconds()) / 1e6
	return append(out,
		named{"passes.ir_instrs", metric{perJob(s.irInstrs), "count"}},
		named{"interp.steps", metric{perJob(s.interpSteps), "count"}},
		named{"dfg.nodes", metric{perJob(s.dfgNodes), "count"}},
		named{"core.cuts", metric{perJob(s.cuts), "count"}},
		named{"core.cuts_per_ms", metric{ratio(float64(s.cuts), searchMs), "count/ms"}},
		named{"core.prune_ratio", metric{ratio(float64(s.pruned), float64(s.cuts)), "ratio"}},
		named{"core.dedup_ratio", metric{ratio(float64(s.dedupHits), float64(s.dedupHits+s.identCalls)), "ratio"}},
		named{"core.ident_calls", metric{perJob(s.identCalls), "count"}},
		named{"core.blocks_degraded", metric{perJob(s.blocksDegraded), "count"}},
		named{"core.racer_adopted", metric{perJob(s.racerAdopted), "count"}},
		named{"core.cuts_skipped", metric{perJob(s.cutsSkipped), "count"}},
		named{"core.cuts_illegal", metric{perJob(s.cutsIllegal), "count"}},
		named{"sim.instructions", metric{perJob(s.simInstrs), "count"}},
		named{"sim.cycles_saved", metric{perJob(s.cyclesSaved), "cycles"}},
		named{"dse.ident_calls", metric{perJob(s.dseIdentCalls), "count"}},
		named{"dse.seed_ratio", metric{ratio(float64(s.seedHits), float64(s.seedLookups)), "ratio"}},
		named{"dse.dedup_hits", metric{perJob(s.dseDedupHits), "count"}},
		named{"obs.events", metric{perJob(s.events), "count"}},
		named{"obs.dropped", metric{perJob(s.dropped), "count"}},
		named{"trace.overhead_ratio", metric{overheadRatio(plain, traced), "ratio"}},
	)
}

// printTable writes every metric of the run, with its unit, to w. The
// quality counts are printed on untraced runs too.
func printTable(w io.Writer, ms map[string]metric, quality []named) {
	all := map[string]metric{}
	for _, q := range quality {
		all[q.name] = q.metric
	}
	for k, v := range ms {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-24s %16.6g %s\n", k, all[k].Value, all[k].Unit)
	}
}

// commit is the VCS revision stamped into the binary, if any.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
