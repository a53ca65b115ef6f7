package main

import (
	"context"
	"io"
	"testing"
	"time"
)

// findJob sets up the named workload at seed 1 and returns one job.
func findJob(t *testing.T, workload, label string) job {
	t.Helper()
	jobs, err := workloads[workload].setup(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.label() == label {
			return j
		}
	}
	t.Fatalf("%s has no job %s", workload, label)
	return nil
}

// runOnce runs one pass of jobs and returns the result it would print.
func runOnce(jobs ...job) result {
	return newResult(measure(context.Background(), jobs, 0, io.Discard))
}

func TestOutputCheckCountsCorruptedWord(t *testing.T) {
	j := findJob(t, "kernels", "fir@2/1").(*pipelineJob)
	if r := runOnce(j); !r.Correct || r.Failed != 0 || r.Attempted != 1 {
		t.Fatalf("clean job: %+v", r)
	}

	bad := *j
	ref := *j.ref
	ref.outs = make([][]int32, len(j.ref.outs))
	for i, o := range j.ref.outs {
		ref.outs[i] = append([]int32(nil), o...)
	}
	ref.outs[0][3] ^= 1
	bad.ref = &ref
	if r := runOnce(&bad); r.Correct || r.Failed != 1 {
		t.Fatalf("corrupted output word not counted: %+v", r)
	}
}

func TestSweepCheckCountsCorruptedByte(t *testing.T) {
	j := findJob(t, "sweep-traced", "fir+gsmlpc").(*sweepJob)
	if r := runOnce(j); !r.Correct || r.Failed != 0 {
		t.Fatalf("clean sweep: %+v", r)
	}
	bad := *j
	bad.ref = append([]byte(nil), j.ref...)
	bad.ref[len(bad.ref)/2] ^= 1
	if r := runOnce(&bad); r.Correct || r.Failed != 1 {
		t.Fatalf("corrupted report byte not counted: %+v", r)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "minic", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.select", Start: 30, End: 90},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"job": 20, "minic": 20, "core.select": 60} {
		if self[name] != want {
			t.Errorf("%s self time %v, want %v", name, self[name], want)
		}
	}
}

func TestOverheadRatioPairsPasses(t *testing.T) {
	// Host speed halves between rounds; each traced pass costs 10% more
	// than the untraced pass beside it.
	plain := phase{passes: 2, jobMs: [][]float64{{10, 20}, {30, 60}}}
	traced := phase{passes: 2, jobMs: [][]float64{{11, 22}, {33, 66}}}
	if r := overheadRatio(plain, traced); r < 1.0999 || r > 1.1001 {
		t.Fatalf("overhead ratio %v, want 1.1", r)
	}
}
