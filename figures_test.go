package pushmulticast

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"pushmulticast/internal/stats"
)

// goldenCommand is how results/tiny16_all.txt was written (by the binary of
// the commit before the figures became registry values; CI cmp's the same
// command's output against the file).
const goldenCommand = "go run ./cmd/experiments -scale tiny -fig t1,t2,2,3,4,11,12,13,14,15,16,17,18,19,20,collective,interplay,future,recent,faults,lossy"

// TestFiguresGolden pins every figure's bytes: the whole registry at tiny
// scale on 16 cores renders exactly results/tiny16_all.txt. Layouts (Fig 11's
// blank-padded geomean/max rows, Fig 18's per-width columns, the collective
// geomean note) are part of the contract; a change that moves a number moves
// the simulated machine and must regenerate the file on purpose. Every run
// is under the invariant checker, so each golden number also passes its
// coherence, inclusion and directory audits, and the checker moves no byte.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure at tiny scale (about a minute)")
	}
	want, err := os.ReadFile("results/tiny16_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOpts()
	opts.Check = true
	var got bytes.Buffer
	for _, f := range Figures() {
		out, err := f.Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("figure %s: %v", f.Name, err)
		}
		got.WriteString(out.String() + "\n")
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("figures differ from results/tiny16_all.txt at line %d:\n got: %q\nwant: %q\nregenerate with: %s",
					i+1, gl[i], append(wl, "")[min(i, len(wl))], goldenCommand)
			}
		}
		t.Fatalf("figures stop %d lines short of results/tiny16_all.txt", len(wl)-len(gl))
	}
}

// TestPaperShape holds the paper's qualitative claims as predicates over
// table values at tiny scale on 16 cores; EXPERIMENTS.md's "holds" verdicts
// cite these subtests by name. A protocol or datapath change that bends the
// paper's shape fails here instead of silently moving a results file.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figs 11, 12, 13 and 20 over their full workload sets")
	}
	fig11 := tinyFigure(t, "11")

	t.Run("OrdPushAtLeastPushAck", func(t *testing.T) {
		ord, ack := cellValue(t, fig11, "OrdPush x", "geomean"), cellValue(t, fig11, "PushAck x", "geomean")
		if ord < ack {
			t.Errorf("OrdPush geomean %.3f below PushAck's %.3f", ord, ack)
		}
		for _, wl := range Workloads() {
			ord, ack := cellValue(t, fig11, "OrdPush x", wl.Name), cellValue(t, fig11, "PushAck x", wl.Name)
			if ord < ack-0.01 {
				t.Errorf("%s: OrdPush %.3f below PushAck %.3f", wl.Name, ord, ack)
			}
		}
	})

	t.Run("MSPLosesToRedundantTraffic", func(t *testing.T) {
		if g := cellValue(t, fig11, "MSP x", "geomean"); g >= 1 {
			t.Errorf("MSP geomean %.3f, want a loss", g)
		}
		if total := cellValue(t, tinyFigure(t, "13"), "Total", "MSP", "cachebw"); total <= 1 {
			t.Errorf("MSP cachebw traffic %.3f of baseline, want more than the baseline's", total)
		}
	})

	t.Run("OrdPushSavesTraffic", func(t *testing.T) {
		if avg := ordPushSaving(tinyFigure(t, "13")); avg <= 0 {
			t.Errorf("average OrdPush traffic saving %.3f, want positive", avg)
		}
	})

	t.Run("ParsecNeutral", func(t *testing.T) {
		for _, wl := range Workloads()[10:] {
			ord := cellValue(t, fig11, "OrdPush x", wl.Name)
			for _, col := range []string{"Coalescing x", "PushAck x"} {
				if v := cellValue(t, fig11, col, wl.Name); v < ord-0.02 || v > ord+0.02 {
					t.Errorf("%s: %s %.3f differs from OrdPush's %.3f", wl.Name, col, v, ord)
				}
			}
		}
	})

	t.Run("AblationStaircase", func(t *testing.T) {
		fig20 := tinyFigure(t, "20")
		push := cellValue(t, fig20, "Push", "geomean")
		mcast := cellValue(t, fig20, "Push+Multicast", "geomean")
		filter := cellValue(t, fig20, "Push+Multicast+Filter", "geomean")
		knob := cellValue(t, fig20, "Push+Multicast+Filter+Knob", "geomean")
		if !(push < mcast && mcast < filter && filter <= knob) {
			t.Errorf("geomean staircase Push %.3f < +Multicast %.3f < +Filter %.3f <= +Knob %.3f does not hold",
				push, mcast, filter, knob)
		}
	})

	t.Run("PushesAreUseful", func(t *testing.T) {
		fig12 := tinyFigure(t, "12")
		useful := cellValue(t, fig12, "MissToHit", "OrdPush", "cachebw") + cellValue(t, fig12, "EarlyResp", "OrdPush", "cachebw")
		if useful < 0.7 {
			t.Errorf("cachebw OrdPush pushes %.1f%% useful, want at least 70%%", 100*useful)
		}
	})
}

// TestBaselineInvariantToPushKnobs is a metamorphic law: the resume knob's
// thresholds steer a mechanism Baseline does not have, so no setting of them
// may move a Baseline run — not its cycle count, not a counter, not an event
// of its history. A knob that leaks into the common path (a window counter
// ticking without pushes, a threshold read by the plain directory) fails
// here; the cycle pins keep the default run itself from drifting unnoticed.
func TestBaselineInvariantToPushKnobs(t *testing.T) {
	for wl, cycles := range map[string]uint64{"cachebw": 24906, "bfs": 23196} {
		run := func(k *KnobSpec) Results {
			t.Helper()
			rr, err := RunSpec{Scale: "tiny", Scheme: "Baseline", Workload: WorkloadSpec{Name: wl}, TraceN: 8, Knobs: k}.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			if k != nil && (rr.Config.TPCThreshold != k.TPCThreshold || rr.Config.TimeWindow != k.TimeWindow) {
				t.Fatalf("%s: knobs %+v resolved to tpc=%d tw=%d", wl, *k, rr.Config.TPCThreshold, rr.Config.TimeWindow)
			}
			res, _, err := rr.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		def := run(nil)
		if def.Cycles != cycles || def.TraceHash == 0 {
			t.Errorf("%s: default Baseline run took %d cycles (trace hash %#x), want %d and a traced history", wl, def.Cycles, def.TraceHash, cycles)
		}
		for _, k := range []KnobSpec{{TPCThreshold: 2, TimeWindow: 500}, {TPCThreshold: 64, TimeWindow: 1500}} {
			checkIdentical(t, wl+" default", fmt.Sprintf("%s tpc=%d tw=%d", wl, k.TPCThreshold, k.TimeWindow), def, run(&k))
		}
	}
}

// inertSweeps names the (figure, scheme, workload) cells whose every sweep
// point finishes at the same cycle today, each with the EXPERIMENTS.md line
// that already concedes it. Anything else that stops varying fails
// TestSweepsSweep by name.
var inertSweeps = map[string]string{
	"17a/OrdPush/conv3d":    `Fig 17: "the knob never pauses it"`,
	"17b/OrdPush/conv3d":    `Fig 17: "the knob never pauses it"`,
	"19/PushAck/mv":         `Fig 19: "mv and pathfinder do not respond to cache size"`,
	"19/PushAck/pathfinder": `Fig 19: "mv and pathfinder do not respond to cache size"`,
	"19/OrdPush/mv":         `Fig 19: "mv and pathfinder do not respond to cache size"`,
	"19/OrdPush/pathfinder": `Fig 19: "mv and pathfinder do not respond to cache size"`,
}

// TestSweepsSweep fails when a swept figure does not sweep: for every
// registry entry with at least two points, every (scheme, workload) must end
// at more than one distinct cycle count across the points — ten equal numbers
// prove nothing about the knob they claim to vary.
func TestSweepsSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every swept figure at tiny scale")
	}
	for _, f := range Figures() {
		if len(f.points) < 2 {
			continue
		}
		grid, wls, err := f.runs(context.Background(), tinyOpts().withDefaults())
		if err != nil {
			t.Fatalf("figure %s: %v", f.Name, err)
		}
		for _, s := range f.schemes {
			for _, wl := range wls {
				cycles := map[uint64]bool{}
				for _, pt := range f.points {
					cycles[grid[cell{point: pt.label, scheme: s.Name, wl: wl}.key()].Cycles] = true
				}
				id := f.Name + "/" + s.Name + "/" + wl.Name
				if conceded, ok := inertSweeps[id]; ok != (len(cycles) == 1) {
					if ok {
						t.Errorf("%s now varies across its sweep: drop it from inertSweeps and the concession in EXPERIMENTS.md (%s)", id, conceded)
					} else {
						t.Errorf("%s: all %d sweep points finish at the same cycle; the sweep shows nothing", id, len(f.points))
					}
				}
			}
		}
	}
}

// TestFigureReducer drives the table reducer over synthetic results, no
// simulation: a predictor that triggers fewer pushes than OrdPush reports a
// negative delta (the column used to subtract in uint64 and print 1.8e19),
// and a zero cycle count on either side of a speedup is an error, in the
// recent-push-table figure as everywhere else (it used to divide raw cycle
// counts).
func TestFigureReducer(t *testing.T) {
	wl := Workload{Name: "synthetic"}
	run := func(cycles, pushes uint64) Results {
		st := &stats.All{}
		st.Cache.PushesTriggered = pushes
		return Results{Cycles: cycles, Stats: st}
	}
	at := func(point string, s Scheme) string { return cell{point: point, scheme: s.Name, wl: wl}.key() }

	tb, err := figFuture.table(16, []Workload{wl}, map[string]Results{
		at("", Baseline()): run(1000, 0), at("", OrdPush()): run(800, 50),
		at("", PredictivePush()): run(500, 20), at("", DeepPush()): run(800, 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := cellValue(t, tb, "Extra predictor pushes", "synthetic"); d != -30 {
		t.Errorf("extra predictor pushes = %v (printed %q), want -30", d, tb.Rows[0][4].Text)
	}
	if sp := cellValue(t, tb, "+Predictor", "synthetic"); sp != 2 {
		t.Errorf("+Predictor speedup = %v, want 2", sp)
	}

	_, err = figRecent.table(16, []Workload{wl}, map[string]Results{
		at("without", OrdPush()): run(1000, 9), at("with", OrdPush()): run(0, 5),
	})
	if err == nil || !strings.Contains(err.Error(), "zero cycle count") {
		t.Errorf("recent-push-table figure over a zero-cycle run: %v; want speedup's zero-cycle error", err)
	}
}
