package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun pins the command-line contract: a selection that cannot be honoured
// in full is one line on stderr and exit 1 with nothing on stdout — an
// unknown name beside a known one used to be dropped silently — and a good
// selection prints its reports and exits 0.
func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		code       int
		out, diags []string
	}{
		{"table", []string{"-fig", "t2"}, 0, []string{"Table II: workloads", "cachebw"}, nil},
		{"unknown-beside-known", []string{"-fig", "t2,bogus", "-scale", "tiny"}, 1, nil,
			[]string{`unknown figure "bogus"`, "t1,t2,2,3,4,11,", "17a,17b", "faults,lossy"}},
		{"all-unknown", []string{"-fig", "nope"}, 1, nil, []string{`unknown figure "nope"`}},
		{"bad-scale", []string{"-fig", "t2", "-scale", "huge"}, 1, nil, []string{"huge"}},
		{"nothing-selected", []string{"-fig", ","}, 1, nil, []string{"nothing selected"}},
		{"bad-cores", []string{"-fig", "t1", "-cores", "48"}, 1, nil, []string{"fig t1", "unsupported core count 48"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			for _, want := range tc.out {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			if tc.code == 0 {
				return
			}
			if stdout.Len() > 0 {
				t.Errorf("a refused selection still printed:\n%s", stdout.String())
			}
			if diag := stderr.String(); strings.Count(diag, "\n") != 1 {
				t.Errorf("diagnostic is not one line: %q", diag)
			}
			for _, want := range tc.diags {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr %q lacks %q", stderr.String(), want)
				}
			}
		})
	}
}
