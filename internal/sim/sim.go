// Package sim is a single-issue, in-order cycle-accounting simulator for
// the specialised processor of §2: a baseline RISC pipeline extended with
// AFUs. Every executed instruction is charged its execution-stage latency
// from the shared model; custom instructions are charged the ceiling of
// their datapath's critical path, exactly as the estimation model of §7
// assumes. Running the same program before and after patching therefore
// *measures* the speedup the identification algorithms *estimate* — the
// validation loop the paper leaves to future work ("we are planning to
// use a retargetable compiler to assess precise speedup potentials").
package sim

import (
	"fmt"

	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/latency"
)

// Report is the outcome of one measured run.
type Report struct {
	// Cycles is the total execution time in cycles.
	Cycles int64
	// Instructions is the dynamic instruction count (custom instructions
	// count once).
	Instructions int64
	// ControlCycles counts the one-cycle charges for block terminators
	// (jumps, branches, returns).
	ControlCycles int64
	// CustomCycles and CustomExecutions break out AFU activity per AFU
	// index.
	CustomCycles     map[int]int64
	CustomExecutions map[int]int64
	// Ret is the entry function's return value (if any).
	Ret    int32
	HasRet bool
	// Outputs holds a copy of each global named in Runner.Outputs, taken
	// after the run.
	Outputs map[string][]int32
}

// Runner executes modules under the cycle model.
type Runner struct {
	Model *latency.Model
	// Setup, if non-nil, initializes the environment (input globals)
	// before the run.
	Setup func(env *interp.Env) error
	// StepLimit bounds execution (0 = interp default).
	StepLimit int64
	// Outputs names the globals the program computes (a kernel's
	// Outputs). Run captures them and Compare checks them word by word.
	Outputs []string
}

// Run executes entry(args...) on m and returns the cycle report.
func (r *Runner) Run(m *ir.Module, entry string, args ...int32) (*Report, error) {
	model := r.Model
	if model == nil {
		model = latency.Default()
	}
	env := interp.NewEnv(m)
	env.StepLimit = r.StepLimit
	if r.Setup != nil {
		if err := r.Setup(env); err != nil {
			return nil, err
		}
	}
	rep := &Report{
		CustomCycles:     map[int]int64{},
		CustomExecutions: map[int]int64{},
	}
	env.Observer = func(b *ir.Block, in *ir.Instr) {
		rep.Instructions++
		if in.Op == ir.OpCustom {
			lat := int64(m.AFUs[in.AFU].Latency)
			if lat < 1 {
				lat = 1
			}
			rep.Cycles += lat
			rep.CustomCycles[in.AFU] += lat
			rep.CustomExecutions[in.AFU]++
			return
		}
		rep.Cycles += int64(model.SW(in.Op))
	}
	env.BlockObserver = func(b *ir.Block) {
		// One cycle per control transfer into the block's terminator.
		rep.Cycles++
		rep.ControlCycles++
	}
	ret, hasRet, err := env.Call(entry, args...)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	rep.Ret = ret
	rep.HasRet = hasRet
	if len(r.Outputs) > 0 {
		rep.Outputs = make(map[string][]int32, len(r.Outputs))
	}
	for _, name := range r.Outputs {
		g, err := env.GlobalSlice(name)
		if err != nil {
			return nil, fmt.Errorf("sim: output: %w", err)
		}
		rep.Outputs[name] = append([]int32(nil), g...)
	}
	return rep, nil
}

// Comparison contrasts a baseline run with a patched run.
type Comparison struct {
	Base, Patched *Report
}

// Speedup is base cycles over patched cycles.
func (c Comparison) Speedup() float64 {
	if c.Patched.Cycles == 0 {
		return 0
	}
	return float64(c.Base.Cycles) / float64(c.Patched.Cycles)
}

// Saved is the absolute cycle gain.
func (c Comparison) Saved() int64 { return c.Base.Cycles - c.Patched.Cycles }

// Mismatch is the first output word on which a patched run differs from
// its baseline.
type Mismatch struct {
	// Output is "return value" or the name of an output global.
	Output string
	// Index is the word's position in the global (0 for the return value).
	Index         int
	Base, Patched int32
}

func (m *Mismatch) Error() string {
	if m.Output == retOutput {
		return fmt.Sprintf("sim: patched module returns %d, baseline %d", m.Patched, m.Base)
	}
	return fmt.Sprintf("sim: patched module computes %s[%d] = %d, baseline %d",
		m.Output, m.Index, m.Patched, m.Base)
}

const retOutput = "return value"

// Compare runs entry on both modules (same setup) and pairs the reports.
// It then checks that the patched module computes what the baseline
// does: the return value, then every Runner.Outputs global in order. On
// the first differing word it returns the complete Comparison together
// with a *Mismatch error naming that word.
func (r *Runner) Compare(base, patched *ir.Module, entry string, args ...int32) (Comparison, error) {
	rb, err := r.Run(base, entry, args...)
	if err != nil {
		return Comparison{}, err
	}
	rp, err := r.Run(patched, entry, args...)
	if err != nil {
		return Comparison{}, err
	}
	cmp := Comparison{Base: rb, Patched: rp}
	if mm := r.firstMismatch(rb, rp); mm != nil {
		return cmp, mm
	}
	return cmp, nil
}

// firstMismatch returns the first output word on which b and p differ,
// or nil when they agree.
func (r *Runner) firstMismatch(b, p *Report) *Mismatch {
	if b.HasRet != p.HasRet || b.Ret != p.Ret {
		return &Mismatch{Output: retOutput, Base: b.Ret, Patched: p.Ret}
	}
	for _, name := range r.Outputs {
		bv, pv := b.Outputs[name], p.Outputs[name]
		for i := range bv {
			if i >= len(pv) || bv[i] != pv[i] {
				mm := &Mismatch{Output: name, Index: i, Base: bv[i]}
				if i < len(pv) {
					mm.Patched = pv[i]
				}
				return mm
			}
		}
	}
	return nil
}
