package analyze_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"isex/internal/core"
	"isex/internal/obs"
	"isex/internal/obs/analyze"
	"isex/internal/workload"
)

// TestExplainDeterministicAcrossWorkers is the acceptance-critical
// property: for exhaustive runs the deterministic attribution report is
// byte-identical across GOMAXPROCS values and with the Parallel block
// fan-out on or off. The search runs the paper's unpruned variant
// (Config.Paper) so the feasibility-prune tallies are a property of the search tree, not of incumbent arrival
// timing; the recorder is over-provisioned so no ring overflows and the
// ring-derived tallies are exact.
func TestExplainDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full selections at several GOMAXPROCS values")
	}
	k := workload.ByName("fir")
	if k == nil {
		t.Fatal("fir kernel missing")
	}
	m, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var refJSON, refText []byte
	for _, run := range []struct {
		procs    int
		parallel bool
	}{{1, false}, {2, false}, {4, false}, {1, true}, {2, true}, {4, true}} {
		runtime.GOMAXPROCS(run.procs)
		name := fmt.Sprintf("gomaxprocs=%d parallel=%v", run.procs, run.parallel)
		probe := &obs.Probe{Rec: obs.NewRecorder(1 << 18)}
		cfg := core.Config{
			Nin:       4,
			Nout:      2,
			Paper:     true,
			Parallel:  run.parallel,
			WarmStart: true,
			Probe:     probe,
		}
		sel := core.SelectIterativeCtx(context.Background(), m, 2, cfg)
		for _, b := range sel.Blocks {
			if b.Status != core.Exhaustive {
				t.Fatalf("%s: block %s/%s not exhaustive (%v) — the byte-identity contract only covers exhaustive runs", name, b.Fn, b.Block, b.Status)
			}
		}

		// Round-trip through JSONL exactly as `isex -trace` +
		// `isex -explain`/cmd/isetrace would.
		var wire bytes.Buffer
		events := probe.Rec.Merge()
		if n := probe.Rec.Dropped(); n > 0 {
			t.Fatalf("%s: recorder dropped %d events; enlarge the test ring", name, n)
		}
		if err := obs.WriteJSONL(&wire, events); err != nil {
			t.Fatal(err)
		}
		back, err := obs.ParseJSONL(&wire)
		if err != nil {
			t.Fatal(err)
		}
		a := analyze.Build(back)
		rep, err := json.Marshal(analyze.BuildExplain(a))
		if err != nil {
			t.Fatal(err)
		}
		text, err := analyze.Render(a, "explain")
		if err != nil {
			t.Fatal(err)
		}
		if refJSON == nil {
			refJSON, refText = rep, []byte(text)
			continue
		}
		if !bytes.Equal(refJSON, rep) {
			t.Errorf("explain JSON diverged at %s:\n%s\nvs the first run:\n%s", name, rep, refJSON)
		}
		if !bytes.Equal(refText, []byte(text)) {
			t.Errorf("explain text diverged at %s:\n%s\nvs the first run:\n%s", name, text, refText)
		}
	}
}
