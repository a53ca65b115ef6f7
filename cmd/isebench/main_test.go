package main

import (
	"slices"
	"strings"
	"testing"
)

// TestParseArgs checks that figure names and sweep modes are validated
// before anything runs: a typo or a retired figure name must fail with
// the list of valid values instead of printing an empty report.
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		figs    []string
		cold    bool
		wantErr string // substring of the error; "" = success
	}{
		{args: nil, figs: []string{"all"}},
		{args: []string{"-fig", "3,5, 7,11,ablation"}, figs: []string{"3", "5", "7", "11", "ablation"}},
		{args: []string{"-fig", "dse", "-sweepmode", "cold"}, figs: []string{"dse"}, cold: true},
		{args: []string{"-fig", "dse", "-sweepmode", "warm"}, figs: []string{"dse"}},
		{args: []string{"-fig", "selbenchx"}, wantErr: `bad -fig "selbenchx"`},
		{args: []string{"-fig", "selbench"}, wantErr: `bad -fig "selbench"`},
		{args: []string{"-fig", "7,bench"}, wantErr: `bad -fig "bench"`},
		{args: []string{"-fig", " , "}, wantErr: "empty -fig"},
		{args: []string{"-fig", "dse", "-sweepmode", "colld"}, wantErr: `bad -sweepmode "colld" (want warm or cold)`},
	} {
		name := strings.Join(tc.args, " ")
		o, err := parseArgs(tc.args)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: error %v, want one containing %q", name, err, tc.wantErr)
			}
			if err != nil && strings.HasPrefix(tc.wantErr, "bad -fig") && !strings.Contains(err.Error(), strings.Join(figures, ", ")) {
				t.Errorf("%q: error %q does not list the valid figures", name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: unexpected error %v", name, err)
			continue
		}
		if !slices.Equal(o.figs, tc.figs) || o.cold != tc.cold {
			t.Errorf("%q: figs %q cold %v, want %q cold %v", name, o.figs, o.cold, tc.figs, tc.cold)
		}
	}
}
