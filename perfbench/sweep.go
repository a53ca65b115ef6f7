package main

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"isex/internal/dse"
	"isex/internal/obs"
)

// sweepJob is what `isex -sweep -trace … -sweep-json …` does for one
// kernel pair: a warm dse.Sweep under a recorder+metrics probe, then
// the recorder merge, the JSONL export and the attribution merge.
type sweepJob struct {
	name string
	pair []string
	seed int64
	ref  []byte // cold-mode report of the same grid, made at set-up
}

// sweepOptions is the job's grid: the default dse grid on the pair.
func sweepOptions(pair []string, seed int64, cold bool) dse.Options {
	opt := dse.DefaultOptions()
	opt.Benchmarks = pair
	opt.Budget = searchBudget
	opt.ShardSeed = seed
	opt.Cold = cold
	return opt
}

// reference runs the cold serial sweep the warm one must reproduce.
func (j *sweepJob) reference(ctx context.Context) ([]byte, error) {
	rep, _, err := dse.Sweep(ctx, sweepOptions(j.pair, j.seed, true))
	if err != nil {
		return nil, fmt.Errorf("cold sweep: %w", err)
	}
	// The mode field names how the report was made; everything else
	// must match the warm run byte for byte.
	rep.Mode = "warm"
	return rep.Bytes()
}

func (j *sweepJob) run(ctx context.Context, t *tracer, parent int, st *jobStats) error {
	opt := sweepOptions(j.pair, j.seed, false)
	probe := &obs.Probe{Rec: obs.NewRecorder(obs.DefaultRingCap), Met: obs.NewMetrics(obs.NewRegistry())}
	opt.Probe = probe

	sp := t.begin("dse", parent)
	rep, stats, err := dse.Sweep(ctx, opt)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	sp = t.begin("obs.merge", parent)
	events := probe.Rec.Merge()
	t.end(sp)
	sp = t.begin("obs.export", parent)
	err = obs.WriteJSONL(io.Discard, events)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("JSONL export: %w", err)
	}
	sp = t.begin("obs.analyze", parent)
	dse.AttachAttribution(rep, events)
	t.end(sp)

	st.cuts = probe.Met.CutsConsidered.Value()
	st.pruned = probe.Met.CutsPruned.Value()
	st.dseIdentCalls = int64(stats.IdentCalls)
	st.dseDedupHits = int64(stats.DedupHits)
	st.seedHits = stats.SeedHits
	st.seedLookups = stats.SeedHits + stats.SeedMisses
	st.events = int64(len(events))
	st.dropped = int64(probe.Rec.Dropped())
	for _, b := range rep.Benchmarks {
		for _, tr := range b.Targets {
			for _, c := range tr.Cells {
				st.addEst(c.Speedup)
			}
		}
	}

	if rep.Attribution == nil {
		return fmt.Errorf("report has no attribution section")
	}
	rep.Attribution = nil
	got, err := rep.Bytes()
	if err != nil {
		return err
	}
	return diffReport(got, j.ref)
}

// diffReport reports the first byte where a sweep report departs from
// the cold reference.
func diffReport(got, ref []byte) error {
	if bytes.Equal(got, ref) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(ref) && got[i] == ref[i] {
		i++
	}
	return fmt.Errorf("report differs from the cold reference at byte %d of %d", i, len(ref))
}
