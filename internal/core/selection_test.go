package core

import (
	"testing"

	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/minic"
	"isex/internal/passes"
	"isex/internal/progen"
)

// compileAndProfile builds a module, runs the pass pipeline, and profiles
// it by executing main() once.
func compileAndProfile(t *testing.T, src string, args ...int32) *ir.Module {
	t.Helper()
	m, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(m)
	env.Profile = true
	if _, _, err := env.Call("main", args...); err != nil {
		t.Fatal(err)
	}
	return m
}

// compileProgen compiles a progen seed's program and runs the pass
// pipeline, unprofiled: every block frequency weighs one execution.
func compileProgen(t *testing.T, seed int64) *ir.Module {
	t.Helper()
	m, err := minic.Compile(progen.Generate(progen.Config{Seed: seed}).Source, minic.Options{})
	if err != nil {
		t.Fatalf("progen seed %d: %v", seed, err)
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		t.Fatalf("progen seed %d: %v", seed, err)
	}
	return m
}

const threeKernels = `
int a0[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};
int out0[16];

void hot(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        int w = ((v << 3) - v) + ((v >> 2) & 7);
        int x = w > 64 ? 64 + (w & 31) : w;
        out0[i & 15] = x;
    }
}
void warm(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        out0[i & 15] = (v * 3 + 5) ^ (v << 1);
    }
}
void cold(int x) {
    out0[0] = ((x + 1) * 2 + 3) & 255;
}
int main() {
    hot(400);
    warm(40);
    cold(7);
    return out0[3];
}
`

func TestSelectIterativeOrdersByMerit(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 4, Nout: 2}
	res := SelectIterative(m, 3, cfg)
	if len(res.Instructions) == 0 {
		t.Fatal("nothing selected")
	}
	// Every selected instruction must have positive merit and valid
	// instruction indexes.
	for _, sel := range res.Instructions {
		if sel.Est.Merit <= 0 {
			t.Errorf("non-positive merit selected: %v", sel.Est)
		}
		for _, idx := range sel.InstrIndexes {
			if idx < 0 || idx >= len(sel.Block.Instrs) {
				t.Errorf("bad instr index %d in %s", idx, sel.Block.Name)
			}
			if !sel.Block.Instrs[idx].Op.Pure() {
				t.Errorf("impure op %s selected", sel.Block.Instrs[idx].Op)
			}
		}
	}
	// The hot loop must be covered first (highest frequency).
	first := res.Instructions[0]
	hotFn := m.Func("hot")
	found := false
	for _, sel := range res.Instructions {
		if sel.Fn == hotFn {
			found = true
		}
	}
	if !found {
		t.Error("hot function received no instruction")
	}
	_ = first
}

func TestSelectIterativeRespectsNinstr(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 4, Nout: 2}
	for _, n := range []int{1, 2, 3, 5} {
		res := SelectIterative(m, n, cfg)
		if len(res.Instructions) > n {
			t.Errorf("ninstr=%d: selected %d", n, len(res.Instructions))
		}
	}
	// Monotonicity: more instructions never reduce total merit.
	prev := int64(0)
	for _, n := range []int{1, 2, 3, 4, 6} {
		res := SelectIterative(m, n, cfg)
		if res.TotalMerit < prev {
			t.Errorf("ninstr=%d: merit %d dropped below %d", n, res.TotalMerit, prev)
		}
		prev = res.TotalMerit
	}
}

func TestSelectOptimalVsIterative(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 4, Nout: 2}
	for _, n := range []int{1, 2, 4} {
		opt := SelectOptimal(m, n, cfg)
		it := SelectIterative(m, n, cfg)
		// The optimal algorithm can never be worse (§8 found them usually
		// equal).
		if opt.TotalMerit < it.TotalMerit {
			t.Errorf("ninstr=%d: optimal %d < iterative %d", n, opt.TotalMerit, it.TotalMerit)
		}
	}
}

func TestSelectOptimalIdentCallBound(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 4, Nout: 2}
	nbb := 0
	for _, f := range m.Funcs {
		nbb += len(f.Blocks)
	}
	for _, n := range []int{1, 2, 3} {
		res := SelectOptimal(m, n, cfg)
		if res.IdentCalls > n+nbb-1 {
			t.Errorf("ninstr=%d: %d identification calls, bound is %d",
				n, res.IdentCalls, n+nbb-1)
		}
	}
}

// TestFig10Scenario reproduces the shape of Fig. 10: three basic blocks
// where the first cut comes from one block, and subsequent iterations
// re-identify with larger M only on the block chosen last.
func TestFig10Scenario(t *testing.T) {
	// Three functions acting as the three basic blocks, with frequencies
	// arranged so BB1 wins first, then BB3, then BB1 again (mirroring the
	// A>D>E, F+G-E ... structure of the figure).
	src := `
int buf[8];
void bb1(int x) {
    int a = ((x << 2) + x) ^ 3;
    int b = ((x >> 1) - 2) & 15;
    buf[0] = a; buf[1] = b;
}
void bb2(int x) {
    buf[2] = (x + 1) & 7;
}
void bb3(int x) {
    buf[3] = ((x * 5) + (x >> 3)) & 255;
}
int main() {
    int i;
    for (i = 0; i < 10; i++) { bb1(i); }
    bb2(3);
    for (i = 0; i < 8; i++) { bb3(i); }
    return buf[0];
}
`
	m := compileAndProfile(t, src)
	cfg := Config{Nin: 2, Nout: 1}
	res := SelectOptimal(m, 3, cfg)
	if len(res.Instructions) == 0 {
		t.Fatal("nothing selected")
	}
	// All instructions must come from real blocks with positive merit,
	// and the total must match the sum.
	var sum int64
	for _, sel := range res.Instructions {
		sum += sel.Est.Merit
	}
	if sum != res.TotalMerit {
		t.Errorf("total %d != sum %d", res.TotalMerit, sum)
	}
	// The busiest block (bb1, freq 10) must be served.
	servedBB1 := false
	for _, sel := range res.Instructions {
		if sel.Fn == m.Func("bb1") {
			servedBB1 = true
		}
	}
	if !servedBB1 {
		t.Error("hottest block not served")
	}
}

func TestSelectionStopsWhenNoGain(t *testing.T) {
	// A program whose blocks offer nothing (single cheap ops only).
	src := `
int g;
int main() { g = g + 1; return g; }
`
	m := compileAndProfile(t, src)
	cfg := Config{Nin: 2, Nout: 1}
	it := SelectIterative(m, 4, cfg)
	opt := SelectOptimal(m, 4, cfg)
	if len(it.Instructions) != 0 || len(opt.Instructions) != 0 {
		t.Errorf("selected instructions with no gain: it=%d opt=%d",
			len(it.Instructions), len(opt.Instructions))
	}
}

func TestSelectionZeroRequest(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 4, Nout: 2}
	if r := SelectIterative(m, 0, cfg); len(r.Instructions) != 0 {
		t.Error("ninstr=0 selected something")
	}
	if r := SelectOptimal(m, 0, cfg); len(r.Instructions) != 0 {
		t.Error("ninstr=0 selected something")
	}
}

// TestParallelSelectionDeterministic: the concurrent initial round must
// produce exactly the serial result.
func TestParallelSelectionDeterministic(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	serial := SelectIterative(m, 4, Config{Nin: 4, Nout: 2, MaxCuts: 200_000})
	parallel := SelectIterative(m, 4, Config{Nin: 4, Nout: 2, MaxCuts: 200_000, Parallel: true})
	if serial.TotalMerit != parallel.TotalMerit ||
		len(serial.Instructions) != len(parallel.Instructions) {
		t.Fatalf("parallel selection diverged: %d/%d vs %d/%d",
			serial.TotalMerit, len(serial.Instructions),
			parallel.TotalMerit, len(parallel.Instructions))
	}
	for i := range serial.Instructions {
		a, b := serial.Instructions[i], parallel.Instructions[i]
		if a.Block != b.Block || len(a.InstrIndexes) != len(b.InstrIndexes) {
			t.Fatalf("instruction %d differs", i)
		}
		for j := range a.InstrIndexes {
			if a.InstrIndexes[j] != b.InstrIndexes[j] {
				t.Fatalf("instruction %d index %d differs", i, j)
			}
		}
	}
	if serial.IdentCalls != parallel.IdentCalls {
		t.Errorf("ident calls: %d vs %d", serial.IdentCalls, parallel.IdentCalls)
	}
}
