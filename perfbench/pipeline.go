package main

import (
	"context"
	"fmt"
	"math"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/dse"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/minic"
	"isex/internal/obs"
	"isex/internal/passes"
	"isex/internal/sim"
)

// global is one named input array.
type global struct {
	name string
	vals []int32
}

// image is what one execution leaves behind: the entry's return value
// and the contents of every output global.
type image struct {
	ret    int32
	hasRet bool
	outs   [][]int32 // parallel to pipelineJob.outputs
}

// pipelineJob is one run of the isex pipeline on one program at one
// port constraint: build → profile → select → patch → simulate the
// baseline and the patched module → output check.
type pipelineJob struct {
	name    string
	src     string
	unroll  int
	entry   string
	args    []int32
	inputs  []global
	outputs []string
	nin     int
	nout    int
	// ref is the unpatched module's image under internal/interp, made
	// once at set-up.
	ref *image
}

// install writes the job's inputs into a fresh environment.
func (j *pipelineJob) install(env *interp.Env) error {
	for _, g := range j.inputs {
		if err := env.SetGlobal(g.name, g.vals); err != nil {
			return err
		}
	}
	return nil
}

// capture reads the job's output globals out of env.
func (j *pipelineJob) capture(env *interp.Env, ret int32, hasRet bool) (*image, error) {
	img := &image{ret: ret, hasRet: hasRet}
	for _, name := range j.outputs {
		s, err := env.GlobalSlice(name)
		if err != nil {
			return nil, err
		}
		img.outs = append(img.outs, append([]int32(nil), s...))
	}
	return img, nil
}

// build compiles the job's source and runs the preprocessing passes.
func (j *pipelineJob) build(t *tracer, parent int) (*ir.Module, error) {
	sp := t.begin("minic", parent)
	m, err := minic.Compile(j.src, minic.Options{UnrollLimit: j.unroll})
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	sp = t.begin("passes", parent)
	err = passes.Run(m, passes.Options{})
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("passes: %w", err)
	}
	return m, nil
}

// reference interprets the unpatched module on the job's inputs.
func (j *pipelineJob) reference() (*image, error) {
	m, err := j.build(nil, 0)
	if err != nil {
		return nil, err
	}
	env := interp.NewEnv(m)
	if err := j.install(env); err != nil {
		return nil, err
	}
	ret, hasRet, err := env.Call(j.entry, j.args...)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return j.capture(env, ret, hasRet)
}

// diff reports the first place got departs from the reference.
func (j *pipelineJob) diff(got *image) error {
	if got.hasRet != j.ref.hasRet || got.ret != j.ref.ret {
		return fmt.Errorf("return value %d, reference %d", got.ret, j.ref.ret)
	}
	for i, name := range j.outputs {
		want, have := j.ref.outs[i], got.outs[i]
		if len(want) != len(have) {
			return fmt.Errorf("global %s has %d words, reference %d", name, len(have), len(want))
		}
		for w := range want {
			if want[w] != have[w] {
				return fmt.Errorf("global %s[%d] = %d, reference %d", name, w, have[w], want[w])
			}
		}
	}
	return nil
}

// run executes the job and fills st. It returns an error when a layer
// fails or the patched program's outputs differ from the reference.
func (j *pipelineJob) run(ctx context.Context, t *tracer, parent int, st *jobStats) error {
	model := latency.Default()
	m, err := j.build(t, parent)
	if err != nil {
		return err
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			st.irInstrs += int64(len(b.Instrs))
		}
	}

	env := interp.NewEnv(m)
	env.Profile = true
	if err := j.install(env); err != nil {
		return err
	}
	sp := t.begin("interp", parent)
	_, _, err = env.Call(j.entry, j.args...)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("profiling run: %w", err)
	}
	st.interpSteps = env.Steps()

	// The original block graphs, kept to check the selected cuts.
	sp = t.begin("dfg", parent)
	graphs, err := dfg.BuildAll(m)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("dfg: %w", err)
	}
	for _, g := range graphs {
		st.dfgNodes += int64(len(g.Nodes))
	}

	probe := &obs.Probe{Met: obs.NewMetrics(obs.NewRegistry())}
	sp = t.begin("core.select", parent)
	sel := core.SelectIterativeCtx(ctx, m, pipelineNinstr, searchConfig(j.nin, j.nout, model, probe))
	t.end(sp)
	st.cuts = probe.Met.CutsConsidered.Value()
	st.pruned = probe.Met.CutsPruned.Value()
	st.racerAdopted = probe.Met.RacerAdopted.Value()
	st.identCalls = int64(sel.IdentCalls)
	st.dedupHits = int64(sel.DedupHits)
	st.blocks = int64(len(sel.Blocks))
	for _, b := range sel.Blocks {
		if b.Status != core.Exhaustive {
			st.blocksDegraded++
		}
	}
	st.cutsIllegal = illegalCuts(graphs, sel.Instructions, j.nin, j.nout)

	runner := &sim.Runner{Model: model, Setup: j.install}
	sp = t.begin("sim", parent)
	base, err := runner.Run(m, j.entry, j.args...)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("baseline simulation: %w", err)
	}

	sp = t.begin("core.patch", parent)
	_, skipped, err := core.ApplySelection(m, sel.Instructions, model)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("patching: %w", err)
	}
	st.cutsSkipped = int64(len(skipped))
	interp.ClearProfile(m)

	var out *interp.Env
	runner.Setup = func(env *interp.Env) error {
		out = env
		return j.install(env)
	}
	sp = t.begin("sim", parent)
	patched, err := runner.Run(m, j.entry, j.args...)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("patched simulation: %w", err)
	}
	st.simInstrs = base.Instructions + patched.Instructions

	saved := base.Cycles - patched.Cycles
	st.cyclesSaved = saved
	st.meritGap = abs64(sel.TotalMerit - saved)
	est, _ := dse.EstSpeedup(base.Cycles, sel.TotalMerit)
	st.addEst(est)
	st.simLog = math.Log(float64(base.Cycles) / float64(patched.Cycles))
	st.simN = 1

	got, err := j.capture(out, patched.Ret, patched.HasRet)
	if err != nil {
		return err
	}
	if err := j.diff(got); err != nil {
		return fmt.Errorf("output check: %w", err)
	}
	return nil
}

// searchConfig is the `isex` CLI's default search at the given ports:
// serial, no prunings, dedup and the racer on.
func searchConfig(nin, nout int, model *latency.Model, probe *obs.Probe) core.Config {
	return core.Config{Nin: nin, Nout: nout, Model: model,
		MaxCuts: searchBudget, Dedup: true, ISEGen: true, Probe: probe}
}

// illegalCuts counts selected cuts that fail the §5 specification
// predicates on the original (unpatched, uncollapsed) block graph.
func illegalCuts(graphs map[*ir.Block]*dfg.Graph, sel []core.Selected, nin, nout int) int64 {
	var n int64
	for _, s := range sel {
		g := graphs[s.Block]
		if g == nil {
			n++
			continue
		}
		want := map[int]bool{}
		for _, idx := range s.InstrIndexes {
			want[idx] = true
		}
		var cut dfg.Cut
		for _, id := range g.OpOrder {
			if want[g.Nodes[id].InstrIndex] {
				cut = append(cut, id)
			}
		}
		if len(cut) != len(want) || !g.LegalSpec(cut, nin, nout) {
			n++
		}
	}
	return n
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// geomean is the geometric mean of positive values (1 for none).
func geomean(logSum float64, n int) float64 {
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}
