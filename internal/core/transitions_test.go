package core

import (
	"os"
	"slices"
	"strings"
	"testing"

	"pushmulticast/internal/config"
	"pushmulticast/internal/fault"
	"pushmulticast/internal/workload"
)

// transitionsFile lists, one "controller state event" line each, the pairs
// the coverage campaign reaches; '#' lines are comments.
const transitionsFile = "../../results/transitions.txt"

// coverageRuns is the campaign behind transitionsFile: five runs that between
// them reach every pair that the wider matrix of DESIGN.md §3c reaches in the
// runs that complete.
var coverageRuns = []struct {
	workload string
	scheme   config.Scheme
	scale    workload.Scale
	lossy    int // per mille, fault seed 1
}{
	{"cachebw", config.Baseline(), workload.ScaleTiny, 0},
	{"pathfinder", config.Baseline(), workload.ScaleTiny, 0},
	{"reducescatter", config.Baseline(), workload.ScaleTiny, 0},
	{"broadcast", config.PushAck(), workload.ScaleTiny, 10},
	{"pathfinder", config.PushAck(), workload.ScaleQuick, 0},
}

// TestTransitionCoverage runs the coverage campaign with every L2's and LLC
// slice's OnEvent hook set and compares the (controller, state, event) pairs
// reached with results/transitions.txt, naming each pair no longer reached
// and each pair reached but not listed. DESIGN.md §3c says why each explicit
// handler arm the file's pairs do not reach stays.
func TestTransitionCoverage(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("five whole runs; the plain suite covers them")
	}
	reached := map[string]bool{}
	for _, r := range coverageRuns {
		cfg := config.Default16().Scaled(16).WithScheme(r.scheme)
		if r.lossy > 0 {
			plan := fault.GenerateLossyPlan(cfg.Tiles(), 1, r.lossy)
			cfg.Faults = &plan
		}
		wl, err := workload.ByName(r.workload)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Build(cfg, wl, r.scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sys.L2s {
			c.OnEvent = func(state, event string) { reached["L2 "+state+" "+event] = true }
		}
		for _, s := range sys.LLCs {
			s.OnEvent = func(state, event string) { reached["LLC "+state+" "+event] = true }
		}
		if _, err := sys.Run(0); err != nil {
			t.Fatalf("%s/%s: %v", r.workload, r.scheme.Name, err)
		}
	}
	data, err := os.ReadFile(transitionsFile)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			listed[l] = true
		}
	}
	var got []string
	for p := range reached {
		got = append(got, p)
		if !listed[p] {
			t.Errorf("pair %q is reached but not listed in results/transitions.txt", p)
		}
	}
	for p := range listed {
		if !reached[p] {
			t.Errorf("pair %q is listed in results/transitions.txt but no longer reached", p)
		}
	}
	if t.Failed() {
		slices.Sort(got)
		t.Logf("the %d pairs reached:\n%s", len(got), strings.Join(got, "\n"))
	}
}
