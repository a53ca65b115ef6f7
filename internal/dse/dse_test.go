package dse

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// testOptions is a small grid that still exercises every sharing
// mechanism: two constraint points (monotone seeding), three budgets
// (prefix derivation), two targets (chain concurrency + dedup
// segregation by model).
func testOptions() Options {
	opt := DefaultOptions()
	opt.Benchmarks = []string{"adpcmdecode"}
	opt.Constraints = [][2]int{{4, 2}, {2, 1}}
	opt.Ninstr = []int{3, 1, 2}
	opt.Targets = []string{"paper", "pipelined"}
	opt.Budget = 500_000
	return opt
}

// TestSweepDeterminism asserts the acceptance-critical property: the
// warm report is byte-identical for every worker count and shard order.
func TestSweepDeterminism(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		for _, seed := range []int64{0, 7} {
			opt := testOptions()
			opt.Workers = workers
			opt.ShardSeed = seed
			rep, _, err := Sweep(context.Background(), opt)
			if err != nil {
				t.Fatalf("sweep(workers=%d seed=%d): %v", workers, seed, err)
			}
			b, err := rep.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = b
				continue
			}
			if !bytes.Equal(ref, b) {
				t.Fatalf("report diverged at workers=%d seed=%d:\n%s\nvs reference:\n%s", workers, seed, b, ref)
			}
		}
	}
}

// TestSweepWarmMatchesCold asserts the seeding/dedup/prefix machinery
// is result-preserving: every warm cell selects bit-identical
// instructions to a dedicated cold serial run. The small grid must also
// complete every search, which is where the identity is a contract. The
// default grid (the `isebench -fig dse` and `isex -sweep` one) has
// budget-stopped cells, where a seed may change the incumbent
// (core.SeedBook); their identity is asserted as observed today, so a
// change that breaks it has to say why.
func TestSweepWarmMatchesCold(t *testing.T) {
	for _, tc := range []struct {
		name       string
		opt        Options
		exhaustive bool // every cell must complete within budget
	}{
		{"small", testOptions(), true},
		{"default", DefaultOptions(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.exhaustive && testing.Short() {
				t.Skip("the default-grid cold sweep takes seconds")
			}
			assertWarmMatchesCold(t, tc.opt, tc.exhaustive)
		})
	}
}

func assertWarmMatchesCold(t *testing.T, opt Options, exhaustive bool) {
	warm, _, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	coldOpt := opt
	coldOpt.Cold = true
	cold, _, err := Sweep(context.Background(), coldOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Benchmarks) != len(cold.Benchmarks) {
		t.Fatalf("benchmark count: warm %d cold %d", len(warm.Benchmarks), len(cold.Benchmarks))
	}
	for bi := range warm.Benchmarks {
		for ti := range warm.Benchmarks[bi].Targets {
			w, c := warm.Benchmarks[bi].Targets[ti], cold.Benchmarks[bi].Targets[ti]
			if w.BaselineCycles != c.BaselineCycles {
				t.Errorf("%s/%s: baseline %d vs %d", warm.Benchmarks[bi].Benchmark, w.Target, w.BaselineCycles, c.BaselineCycles)
			}
			if len(w.Cells) != len(c.Cells) {
				t.Fatalf("%s/%s: cell count %d vs %d", warm.Benchmarks[bi].Benchmark, w.Target, len(w.Cells), len(c.Cells))
			}
			for i := range w.Cells {
				wc, cc := w.Cells[i], c.Cells[i]
				if exhaustive && (wc.Status != "exhaustive" || cc.Status != "exhaustive") {
					t.Errorf("cell (%d,%d,%d): non-exhaustive status warm=%q cold=%q — identity claim needs completed searches",
						wc.Nin, wc.Nout, wc.Ninstr, wc.Status, cc.Status)
				}
				if wc.Merit != cc.Merit || !reflect.DeepEqual(wc.Instructions, cc.Instructions) {
					t.Errorf("cell (%d,%d,%d): warm selection diverged from cold reference\nwarm: %+v\ncold: %+v",
						wc.Nin, wc.Nout, wc.Ninstr, wc, cc)
				}
			}
		}
	}
}

// TestSweepSharingPays sanity-checks that the warm machinery actually
// engages on a grid with overlapping constraint points.
func TestSweepSharingPays(t *testing.T) {
	opt := testOptions()
	_, stats, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SeedHits == 0 {
		t.Errorf("expected seed hits on a tight-then-loose grid, got 0 (misses %d)", stats.SeedMisses)
	}
	if stats.Selections == 0 || stats.IdentCalls == 0 {
		t.Errorf("implausible telemetry: %+v", stats)
	}
	// One selection per (constraint × target) chain group, not per cell:
	// 2 constraints × 2 targets = 4, versus 12 cells.
	if want := 4; stats.Selections != want {
		t.Errorf("Selections = %d, want %d (prefix sharing should collapse the ninstr axis)", stats.Selections, want)
	}
}

func TestEstSpeedup(t *testing.T) {
	cases := []struct {
		base, merit int64
		want        float64
		clamped     bool
	}{
		{1000, 0, 1, false},
		{1000, -5, 1, false},
		{0, 50, 1, false},
		{1000, 500, 2, false},
		{1000, 1000, 1000, true},
		{1000, 2000, 1000, true},
	}
	for _, c := range cases {
		got, clamped := EstSpeedup(c.base, c.merit)
		if got != c.want || clamped != c.clamped {
			t.Errorf("EstSpeedup(%d, %d) = (%v, %v), want (%v, %v)", c.base, c.merit, got, clamped, c.want, c.clamped)
		}
	}
}

func TestParetoFrontier(t *testing.T) {
	cells := []Cell{
		{Nin: 2, Nout: 1, Ninstr: 1, Speedup: 1.2, Area: 1.0, Merit: 100}, // dominated by the (4,2,1) cell
		{Nin: 2, Nout: 1, Ninstr: 2, Speedup: 1.8, Area: 2.0, Merit: 300}, // frontier: best speedup, paid in area+instrs
		{Nin: 4, Nout: 2, Ninstr: 1, Speedup: 1.5, Area: 1.0, Merit: 200}, // frontier
		{Nin: 4, Nout: 2, Ninstr: 2, Speedup: 1.5, Area: 3.0, Merit: 200}, // dominated (same speedup, more area+instrs)
		{Nin: 8, Nout: 4, Ninstr: 1, Speedup: 1.5, Area: 1.0, Merit: 200}, // tie witness of the (4,2,1) cell, kept
	}
	front := paretoFrontier(cells)
	want := []ParetoPoint{
		{Nin: 4, Nout: 2, Ninstr: 1, Speedup: 1.5, Area: 1.0, Merit: 200},
		{Nin: 8, Nout: 4, Ninstr: 1, Speedup: 1.5, Area: 1.0, Merit: 200},
		{Nin: 2, Nout: 1, Ninstr: 2, Speedup: 1.8, Area: 2.0, Merit: 300},
	}
	if !reflect.DeepEqual(front, want) {
		t.Errorf("frontier = %+v\nwant %+v", front, want)
	}
}

func TestConstraintOrder(t *testing.T) {
	got := constraintOrder([][2]int{{8, 4}, {2, 1}, {4, 3}, {4, 2}})
	want := [][2]int{{2, 1}, {4, 2}, {4, 3}, {8, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}
