package sim

import (
	"errors"
	"testing"

	"isex/internal/core"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/minic"
	"isex/internal/passes"
	"isex/internal/workload"
)

func TestCycleAccountingSimple(t *testing.T) {
	// f(a,b) = (a+b)*b  — one block: add(1) + mul(2) + 1 terminator = 4.
	src := `int f(int a, int b) { return (a + b) * b; }`
	m, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		t.Fatal(err)
	}
	r := &Runner{}
	rep, err := r.Run(m, "f", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasRet || rep.Ret != 28 {
		t.Fatalf("ret = %d (%v)", rep.Ret, rep.HasRet)
	}
	if rep.Cycles != 4 {
		t.Errorf("cycles = %d, want 4 (add 1 + mul 2 + control 1)", rep.Cycles)
	}
	if rep.Instructions != 2 || rep.ControlCycles != 1 {
		t.Errorf("instrs=%d control=%d", rep.Instructions, rep.ControlCycles)
	}
}

func TestCustomInstructionCharge(t *testing.T) {
	m := &ir.Module{}
	afu := m.AddAFU(ir.AFUDef{
		Name: "mac", NumIn: 3, NumSlots: 5,
		Body: []ir.AFUOp{
			{Op: ir.OpMul, A: 0, B: 1, Dst: 3},
			{Op: ir.OpAdd, A: 3, B: 2, Dst: 4},
		},
		OutSlots: []int{4},
		Latency:  2,
	})
	b := ir.NewBuilder("f", 3)
	d := b.Fn.NewReg()
	b.Emit(ir.Instr{Op: ir.OpCustom, AFU: afu, Dsts: []ir.Reg{d},
		Args: []ir.Reg{b.Fn.Params[0], b.Fn.Params[1], b.Fn.Params[2]}})
	b.Ret(d)
	m.Funcs = append(m.Funcs, b.Finish())

	r := &Runner{}
	rep, err := r.Run(m, "f", 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ret != 17 {
		t.Errorf("mac = %d", rep.Ret)
	}
	if rep.Cycles != 3 { // custom 2 + terminator 1
		t.Errorf("cycles = %d, want 3", rep.Cycles)
	}
	if rep.CustomExecutions[afu] != 1 || rep.CustomCycles[afu] != 2 {
		t.Errorf("custom accounting: %v %v", rep.CustomExecutions, rep.CustomCycles)
	}
}

// TestMeasuredSpeedupMatchesEstimate is the headline validation: for each
// kernel, the cycle gain measured by the simulator must equal the summed
// merit estimated by the identification (both use the same latency model,
// so equality is exact, modulo cuts the patcher had to skip).
func TestMeasuredSpeedupMatchesEstimate(t *testing.T) {
	for _, k := range workload.All() {
		t.Run(k.Name, func(t *testing.T) {
			base, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := k.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Nin: 4, Nout: 2, MaxCuts: 2_000_000}
			sel := core.SelectIterative(m, 8, cfg)
			if len(sel.Instructions) == 0 {
				t.Skip("nothing identified")
			}
			_, skipped, err := core.ApplySelection(m, sel.Instructions, nil)
			if err != nil {
				t.Fatal(err)
			}
			interp.ClearProfile(m)

			sameCut := func(a, b core.Selected) bool {
				if a.Block != b.Block || len(a.InstrIndexes) != len(b.InstrIndexes) {
					return false
				}
				for i := range a.InstrIndexes {
					if a.InstrIndexes[i] != b.InstrIndexes[i] {
						return false
					}
				}
				return true
			}
			var expected int64
			for _, s := range sel.Instructions {
				skip := false
				for _, sk := range skipped {
					if sameCut(sk, s) {
						skip = true
					}
				}
				if !skip {
					expected += s.Est.Merit
				}
			}

			r := &Runner{Setup: kernelSetup(k), Outputs: k.Outputs}
			cmp, err := r.Compare(base, m, k.Entry, k.Args...)
			if err != nil {
				t.Fatal(err)
			}
			if cmp.Saved() <= 0 {
				t.Fatalf("no measured gain: base %d, patched %d", cmp.Base.Cycles, cmp.Patched.Cycles)
			}
			// The estimate assumes the same single-issue model, so the
			// measured saving equals the summed merit exactly.
			if cmp.Saved() != expected {
				t.Errorf("measured saving %d, estimated %d (speedup %.3f)",
					cmp.Saved(), expected, cmp.Speedup())
			}
			if cmp.Speedup() <= 1.0 {
				t.Errorf("speedup %.3f not > 1", cmp.Speedup())
			}
		})
	}
}

func TestPerturbedModelStillGains(t *testing.T) {
	// Robustness (DESIGN.md §4): identification under a ±30%-perturbed
	// hardware model still yields positive measured gains.
	k := workload.AdpcmDecode()
	base, err := k.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	pert := latency.Default().Perturbed(7, 0.3)
	cfg := core.Config{Nin: 4, Nout: 2, Model: pert, MaxCuts: 2_000_000}
	sel := core.SelectIterative(m, 8, cfg)
	if len(sel.Instructions) == 0 {
		t.Fatal("nothing identified under perturbed model")
	}
	if _, _, err := core.ApplySelection(m, sel.Instructions, pert); err != nil {
		t.Fatal(err)
	}
	interp.ClearProfile(m)
	r := &Runner{Model: pert, Setup: kernelSetup(k), Outputs: k.Outputs}
	cmp, err := r.Compare(base, m, k.Entry, k.Args...)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup() <= 1.0 {
		t.Errorf("perturbed speedup %.3f", cmp.Speedup())
	}
}

// kernelSetup installs the kernel's input globals.
func kernelSetup(k *workload.Kernel) func(*interp.Env) error {
	return func(env *interp.Env) error {
		for name, vals := range k.Inputs {
			if err := env.SetGlobal(name, vals); err != nil {
				return err
			}
		}
		return nil
	}
}

// macModule returns f(a, b, c) computed by one custom instruction whose
// second operation is op (OpAdd computes a*b + c).
func macModule(op ir.Op) *ir.Module {
	m := &ir.Module{}
	afu := m.AddAFU(ir.AFUDef{
		Name: "mac", NumIn: 3, NumSlots: 5,
		Body: []ir.AFUOp{
			{Op: ir.OpMul, A: 0, B: 1, Dst: 3},
			{Op: op, A: 3, B: 2, Dst: 4},
		},
		OutSlots: []int{4},
		Latency:  2,
	})
	b := ir.NewBuilder("f", 3)
	d := b.Fn.NewReg()
	b.Emit(ir.Instr{Op: ir.OpCustom, AFU: afu, Dsts: []ir.Reg{d},
		Args: []ir.Reg{b.Fn.Params[0], b.Fn.Params[1], b.Fn.Params[2]}})
	b.Ret(d)
	m.Funcs = append(m.Funcs, b.Finish())
	return m
}

// TestCompareReturnMismatch: a patched module returning a different value
// fails the comparison, which still carries both cycle reports.
func TestCompareReturnMismatch(t *testing.T) {
	r := &Runner{}
	if _, err := r.Compare(macModule(ir.OpAdd), macModule(ir.OpAdd), "f", 3, 4, 5); err != nil {
		t.Fatalf("identical modules: %v", err)
	}
	cmp, err := r.Compare(macModule(ir.OpAdd), macModule(ir.OpSub), "f", 3, 4, 5)
	var mm *Mismatch
	if !errors.As(err, &mm) {
		t.Fatalf("corrupted return value not detected: %v", err)
	}
	if mm.Output != "return value" || mm.Base != 17 || mm.Patched != 7 {
		t.Errorf("mismatch %+v, want return value 17 vs 7", *mm)
	}
	if cmp.Base == nil || cmp.Patched == nil {
		t.Error("comparison reports missing on mismatch")
	}
}

// TestCompareOutputMismatch patches fir, checks the patched module is
// output-equivalent, then corrupts one custom instruction and expects
// Compare to name the first differing word of the output array.
func TestCompareOutputMismatch(t *testing.T) {
	k := workload.FIR()
	base, err := k.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	sel := core.SelectIterative(m, 4, core.Config{Nin: 4, Nout: 2})
	afus, _, err := core.ApplySelection(m, sel.Instructions, nil)
	if err != nil || len(afus) == 0 {
		t.Fatalf("patching: %d AFUs, %v", len(afus), err)
	}
	interp.ClearProfile(m)
	r := &Runner{Setup: kernelSetup(k), Outputs: k.Outputs}
	if _, err := r.Compare(base, m, k.Entry, k.Args...); err != nil {
		t.Fatalf("correctly patched fir: %v", err)
	}

	// Turn the multiplications of the patched datapaths into additions:
	// the filter taps now compute something else, while loop control
	// (which never multiplies) is untouched.
	corrupted := 0
	for i := range m.AFUs {
		for j := range m.AFUs[i].Body {
			if op := &m.AFUs[i].Body[j]; op.Op == ir.OpMul {
				op.Op = ir.OpAdd
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("no patched datapath multiplies; nothing to corrupt")
	}
	_, err = r.Compare(base, m, k.Entry, k.Args...)
	var mm *Mismatch
	if !errors.As(err, &mm) {
		t.Fatalf("corrupted fir output not detected: %v", err)
	}
	if mm.Output != "y" || mm.Base == mm.Patched {
		t.Errorf("mismatch %+v, want a differing word of y", *mm)
	}
	t.Log(err)
}
