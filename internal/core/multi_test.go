package core

import (
	"math/rand"
	"reflect"
	"testing"

	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/latency"
)

// enumerateBestMulti is the brute-force reference for FindBestCuts: it
// tries every assignment of candidate nodes to {none, cut1..cutM}.
func enumerateBestMulti(g *dfg.Graph, m int, cfg Config) int64 {
	model := cfg.model()
	var candidates []int
	for _, id := range g.OpOrder {
		if !g.Nodes[id].Forbidden {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) > 12 {
		panic("enumerateBestMulti: graph too large")
	}
	assign := make([]int, len(candidates))
	var best int64
	var rec func(i int)
	rec = func(i int) {
		if i == len(candidates) {
			var total int64
			for k := 1; k <= m; k++ {
				var cut dfg.Cut
				for j, a := range assign {
					if a == k {
						cut = append(cut, candidates[j])
					}
				}
				if len(cut) == 0 {
					continue
				}
				if !g.Legal(cut, cfg.Nin, cfg.Nout) {
					return
				}
				total += Evaluate(g, cut, model).Merit
			}
			if total > best {
				best = total
			}
			return
		}
		for a := 0; a <= m; a++ {
			assign[i] = a
			rec(i + 1)
		}
		assign[i] = 0
	}
	rec(0)
	return best
}

func TestMultiCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(t, rng, 4+rng.Intn(5))
		for _, m := range []int{1, 2, 3} {
			for _, c := range []struct{ nin, nout int }{{2, 1}, {4, 2}} {
				cfg := Config{Nin: c.nin, Nout: c.nout}
				got := FindBestCuts(g, m, cfg)
				want := enumerateBestMulti(g, m, cfg)
				var gotMerit int64
				if got.Found {
					gotMerit = got.TotalMerit
				}
				if gotMerit != want {
					t.Fatalf("trial %d m=%d (%d,%d): merit %d, brute force %d (cuts %v)",
						trial, m, c.nin, c.nout, gotMerit, want, got.Cuts)
				}
				cfg.Paper = true
				if paper := FindBestCuts(g, m, cfg); !reflect.DeepEqual(paper.Cuts, got.Cuts) {
					t.Fatalf("trial %d m=%d (%d,%d): default search cuts %v, paper search %v",
						trial, m, c.nin, c.nout, got.Cuts, paper.Cuts)
				}
			}
		}
	}
}

func TestMultiCutM1EqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(t, rng, 8)
		cfg := Config{Nin: 3, Nout: 2}
		single := FindBestCut(g, cfg)
		multi := FindBestCuts(g, 1, cfg)
		var sm, mm int64
		if single.Found {
			sm = single.Est.Merit
		}
		if multi.Found {
			mm = multi.TotalMerit
		}
		if sm != mm {
			t.Fatalf("trial %d: single %d, multi(1) %d", trial, sm, mm)
		}
	}
}

func TestMultiCutDisjointAndLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(t, rng, 9)
		res := FindBestCuts(g, 3, Config{Nin: 3, Nout: 1})
		if !res.Found {
			continue
		}
		seen := map[int]bool{}
		for _, c := range res.Cuts {
			if !g.Legal(c, 3, 1) {
				t.Fatalf("trial %d: illegal cut %v", trial, c)
			}
			for _, id := range c {
				if seen[id] {
					t.Fatalf("trial %d: node %d in two cuts", trial, id)
				}
				seen[id] = true
			}
		}
	}
}

// TestMultiCutFindsDisconnectedPair: two independent chains, Nout=1 each;
// with M=2 both can be taken as separate instructions.
func TestMultiCutFindsDisconnectedPair(t *testing.T) {
	b := ir.NewBuilder("two", 4)
	p := b.Fn.Params
	x1 := b.Op(ir.OpAdd, p[0], p[1])
	x2 := b.Op(ir.OpXor, x1, p[0])
	y1 := b.Op(ir.OpSub, p[2], p[3])
	y2 := b.Op(ir.OpAnd, y1, p[2])
	nxt := b.NewBlock("next")
	b.Jump(nxt)
	b.SetBlock(nxt)
	b.Ret(b.Op(ir.OpOr, x2, y2))
	f := b.Finish()
	g := mustBuildGraph(t, f, f.Entry(), ir.Liveness(f))

	one := FindBestCuts(g, 1, Config{Nin: 2, Nout: 1})
	two := FindBestCuts(g, 2, Config{Nin: 2, Nout: 1})
	if !two.Found || len(two.Cuts) != 2 {
		t.Fatalf("M=2 should find two cuts: %+v", two)
	}
	if !one.Found || two.TotalMerit <= one.TotalMerit {
		t.Errorf("M=2 merit %d should exceed M=1 merit %d", two.TotalMerit, one.TotalMerit)
	}
}

// TestSingleCutTakesDisconnected: with Nin=4, Nout=2 a single instruction
// can contain both disconnected chains at once (the paper's M2+M3 case).
func TestSingleCutTakesDisconnected(t *testing.T) {
	b := ir.NewBuilder("two", 4)
	p := b.Fn.Params
	x1 := b.Op(ir.OpAdd, p[0], p[1])
	x2 := b.Op(ir.OpXor, x1, p[0])
	y1 := b.Op(ir.OpSub, p[2], p[3])
	y2 := b.Op(ir.OpAnd, y1, p[2])
	nxt := b.NewBlock("next")
	b.Jump(nxt)
	b.SetBlock(nxt)
	b.Ret(b.Op(ir.OpOr, x2, y2))
	f := b.Finish()
	g := mustBuildGraph(t, f, f.Entry(), ir.Liveness(f))

	res := FindBestCut(g, Config{Nin: 4, Nout: 2})
	if !res.Found {
		t.Fatal("no cut")
	}
	if g.Components(res.Cut) != 2 || len(res.Cut) != 4 {
		t.Errorf("expected one disconnected 4-node cut, got %v (comps %d)",
			res.Cut, g.Components(res.Cut))
	}
	// At Nout=1 this is impossible.
	res1 := FindBestCut(g, Config{Nin: 4, Nout: 1})
	if res1.Found && g.Components(res1.Cut) != 1 {
		t.Errorf("Nout=1 must keep cuts connected here, got %v", res1.Cut)
	}
}

func TestStrictInterCut(t *testing.T) {
	// x -> load -> y: cut1 = {x}, cut2 = {y} has a one-way dependence —
	// fine. Build a mutual dependence: a -> LD -> b and b' -> LD2 -> a'
	// where a,a' in cut1 and b,b' in cut2.
	bld := ir.NewBuilder("f", 4)
	p := bld.Fn.Params
	a := bld.Op(ir.OpAdd, p[0], p[1])  // cut1 candidate
	ld1 := bld.Load(a)                 // barrier
	b := bld.Op(ir.OpXor, ld1, p[2])   // cut2 candidate, depends on cut1
	bb := bld.Op(ir.OpSub, p[2], p[3]) // cut2 candidate
	ld2 := bld.Load(bb)                // barrier
	a2 := bld.Op(ir.OpAnd, ld2, p[0])  // cut1 candidate, depends on cut2
	nxt := bld.NewBlock("next")
	bld.Jump(nxt)
	bld.SetBlock(nxt)
	bld.Ret(bld.Op(ir.OpOr, bld.Op(ir.OpOr, b, a2), a))
	f := bld.Finish()
	g := mustBuildGraph(t, f, f.Entry(), ir.Liveness(f))

	// Force the specific assignment via brute check: with strict mode the
	// total merit can only be lower or equal.
	loose := FindBestCuts(g, 2, Config{Nin: 4, Nout: 2})
	strict := FindBestCuts(g, 2, Config{Nin: 4, Nout: 2, StrictInterCut: true})
	var lm, sm int64
	if loose.Found {
		lm = loose.TotalMerit
	}
	if strict.Found {
		sm = strict.TotalMerit
	}
	if sm > lm {
		t.Errorf("strict mode improved merit: %d > %d", sm, lm)
	}
	// Verify the strict result really has no inter-cut cycle.
	if strict.Found && len(strict.Cuts) == 2 {
		if cyclic(g, strict.Cuts[0], strict.Cuts[1]) {
			t.Error("strict mode returned cyclic cuts")
		}
	}
}

// cyclic reports mutual reachability between two cuts.
func cyclic(g *dfg.Graph, c1, c2 dfg.Cut) bool {
	return reachesCut(g, c1, c2) && reachesCut(g, c2, c1)
}

func reachesCut(g *dfg.Graph, from, to dfg.Cut) bool {
	target := map[int]bool{}
	for _, id := range to {
		target[id] = true
	}
	seen := map[int]bool{}
	stack := append([]int{}, from...)
	for _, id := range from {
		seen[id] = true
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		next := append(append([]int{}, g.Nodes[v].Succs...), g.Nodes[v].OrderSuccs...)
		for _, w := range next {
			if target[w] {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

func TestMultiCutStats(t *testing.T) {
	g, _ := fig4Graph(t)
	res := FindBestCuts(g, 2, Config{Nin: 8, Nout: 1, Paper: true})
	if res.Stats.CutsConsidered <= 11 {
		t.Errorf("M=2 should consider more cuts than M=1's 11, got %d", res.Stats.CutsConsidered)
	}
	// With two single-output instructions, both sinks are coverable.
	if !res.Found {
		t.Fatal("no cuts found")
	}
	var total int
	for _, c := range res.Cuts {
		total += len(c)
	}
	if latency.CyclesOf(0) != 0 {
		t.Fatal("sanity")
	}
	if total < 3 {
		t.Errorf("expected substantial coverage with two cuts, got %v", res.Cuts)
	}
}
