package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// jobStats holds the counts one job reports. Summing them over a phase
// gives the per-job means of the report.
type jobStats struct {
	irInstrs, interpSteps, dfgNodes       int64
	cuts, pruned, identCalls, dedupHits   int64
	blocks, blocksDegraded, racerAdopted  int64
	cutsSkipped, cutsIllegal, cyclesSaved int64
	meritGap, simInstrs                   int64
	dseIdentCalls, dseDedupHits           int64
	seedHits, seedLookups                 int64
	events, dropped                       int64

	estLog, simLog float64 // sums of log speedups
	estN, simN     int
}

func (s *jobStats) addEst(speedup float64) {
	s.estLog += math.Log(speedup)
	s.estN++
}

func (s *jobStats) add(o *jobStats) {
	s.irInstrs += o.irInstrs
	s.interpSteps += o.interpSteps
	s.dfgNodes += o.dfgNodes
	s.cuts += o.cuts
	s.pruned += o.pruned
	s.identCalls += o.identCalls
	s.dedupHits += o.dedupHits
	s.blocks += o.blocks
	s.blocksDegraded += o.blocksDegraded
	s.racerAdopted += o.racerAdopted
	s.cutsSkipped += o.cutsSkipped
	s.cutsIllegal += o.cutsIllegal
	s.cyclesSaved += o.cyclesSaved
	s.meritGap += o.meritGap
	s.simInstrs += o.simInstrs
	s.dseIdentCalls += o.dseIdentCalls
	s.dseDedupHits += o.dseDedupHits
	s.seedHits += o.seedHits
	s.seedLookups += o.seedLookups
	s.events += o.events
	s.dropped += o.dropped
	s.estLog += o.estLog
	s.estN += o.estN
	s.simLog += o.simLog
	s.simN += o.simN
}

// phase is the outcome of running whole passes over a job list.
type phase struct {
	passes int
	jobs   int
	failed int
	jobMs  [][]float64 // per position in the job list, one per pass
	sum    jobStats
	alloc  uint64 // bytes allocated during the phase
}

func newPhase(jobs int) phase {
	return phase{jobMs: make([][]float64, jobs)}
}

// measure runs the job list in a closed loop with one client, whole
// passes at a time, until at least d has passed.
func measure(ctx context.Context, jobs []job, d time.Duration, log io.Writer) phase {
	p := newPhase(len(jobs))
	for start := time.Now(); p.passes == 0 || time.Since(start) < d; {
		p.pass(ctx, jobs, nil, log)
	}
	return p
}

// measurePaired alternates untraced passes with passes traced by t
// until at least d has passed, so both sides see the same host state.
// Rounds run in the order plain, traced, traced, plain, ..., which also
// cancels a steady drift in host speed.
func measurePaired(ctx context.Context, jobs []job, d time.Duration, t *tracer, log io.Writer) (plain, traced phase) {
	plain, traced = newPhase(len(jobs)), newPhase(len(jobs))
	for start := time.Now(); plain.passes == 0 || time.Since(start) < d; {
		if plain.passes%2 == 0 {
			plain.pass(ctx, jobs, nil, log)
			traced.pass(ctx, jobs, t, log)
		} else {
			traced.pass(ctx, jobs, t, log)
			plain.pass(ctx, jobs, nil, log)
		}
	}
	return plain, traced
}

// pass runs every job once, recording spans in t when it is not nil.
func (p *phase) pass(ctx context.Context, jobs []job, t *tracer, log io.Writer) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, j := range jobs {
		if t != nil {
			t.job++
		}
		// Every job starts from a collected heap, so one job's
		// garbage is not charged to the next.
		runtime.GC()
		var st jobStats
		sp := t.begin("job", 0)
		t0 := time.Now()
		err := j.run(ctx, t, sp, &st)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		t.end(sp)
		p.jobs++
		p.jobMs[i] = append(p.jobMs[i], ms)
		p.sum.add(&st)
		if err != nil {
			p.failed++
			fmt.Fprintf(log, "FAIL %s: %v\n", j.label(), err)
		}
	}
	p.passes++
	runtime.ReadMemStats(&m1)
	p.alloc += m1.TotalAlloc - m0.TotalAlloc
}

// passMs is the time of pass k: the sum of its jobs' times.
func (p *phase) passMs(k int) float64 {
	var t float64
	for _, ms := range p.jobMs {
		t += ms[k]
	}
	return t
}

// overheadRatio is the median, over rounds of measurePaired, of the
// traced pass's time over the untraced pass's time.
func overheadRatio(plain, traced phase) float64 {
	rs := make([]float64, plain.passes)
	for k := range rs {
		rs[k] = traced.passMs(k) / plain.passMs(k)
	}
	return median(rs)
}

// typicalMs is each job's median time over the passes. A noisy
// neighbour that slows one pass does not move it.
func (p *phase) typicalMs() []float64 {
	out := make([]float64, len(p.jobMs))
	for i, ms := range p.jobMs {
		out[i] = median(ms)
	}
	return out
}

// quantile is the q-quantile of xs, interpolating linearly between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (the layer is not on the path).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
