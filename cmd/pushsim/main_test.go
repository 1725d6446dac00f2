package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pushmulticast"
)

// parse runs pushsim's flag parsing over args, as main does.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	o, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestBuildFaultPlanBadInput is the regression table for the -faultplan flag:
// every malformed or unreadable input must produce a single-line diagnostic
// error (main prints it and exits non-zero) rather than a panic or a silent
// fallback to faults-off.
func TestBuildFaultPlanBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name  string
		file  string
		extra []string
		want  string
	}{
		{"unreadable", filepath.Join(dir, "no-such-plan.json"), nil, "no-such-plan.json"},
		{"not-json", write("garbage.json", "not json at all{"), nil, "garbage.json"},
		{"wrong-shape", write("shape.json", `{"Faults": "everywhere"}`), nil, "shape.json"},
		{"unknown-kind", write("kind.json", `{"Faults":[{"Kind":"MsgTeleport","From":0,"To":10}]}`), nil, "MsgTeleport"},
		{"empty-window", write("window.json", `{"Faults":[{"Kind":"MsgDrop","From":50,"To":50,"Factor":10}]}`), nil, "empty window"},
		{"node-out-of-range", write("node.json", `{"Faults":[{"Kind":"MsgDrop","Node":99,"From":0,"To":10,"Factor":10}]}`), nil, "node 99"},
		{"overlapping-windows", write("overlap.json",
			`{"Faults":[{"Kind":"MsgDrop","Node":3,"From":0,"To":100,"Factor":10},
			            {"Kind":"MsgDrop","Node":3,"From":50,"To":150,"Factor":20}]}`), nil, "overlapping"},
		{"combined-with-faults", write("ok.json", `{"Faults":[]}`), []string{"-faults", "0.5"}, "cannot be combined"},
		{"combined-with-lossy", write("ok2.json", `{"Faults":[]}`), []string{"-lossy", "50"}, "cannot be combined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run, err := parse(t, append([]string{"-faultplan", tc.file}, tc.extra...)...).resolve()
			if err == nil {
				t.Fatalf("bad input accepted, resolved plan %+v", run.Config.Faults)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("diagnostic is not a single line: %q", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBuildFaultPlanGoodInput pins the working paths: a valid plan file
// roundtrips, the generators produce validated plans, and all-off yields nil.
func TestBuildFaultPlanGoodInput(t *testing.T) {
	plan := func(args ...string) *pushmulticast.FaultPlan {
		t.Helper()
		run, err := parse(t, args...).resolve()
		if err != nil {
			t.Fatalf("%v rejected: %v", args, err)
		}
		return run.Config.Faults
	}
	if p := plan(); p != nil {
		t.Fatalf("faults-off: plan %+v; want nil", p)
	}
	src := pushmulticast.GenerateLossyPlan(16, 7, 60)
	data, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if p := plan("-faultplan", file); p == nil || len(p.Faults) != len(src.Faults) || p.Seed != src.Seed {
		t.Fatalf("plan file roundtrip mismatch: got %+v, want %d faults seed %d", p, len(src.Faults), src.Seed)
	}
	merged := plan("-faults", "0.5", "-lossy", "50", "-faultseed", "9")
	if merged == nil || !merged.Lossy() {
		t.Fatalf("chaos+lossy merge lost the lossy faults: %+v", merged)
	}
	if err := merged.Validate(16); err != nil {
		t.Fatalf("chaos+lossy merge does not validate: %v", err)
	}
}

// flagsFor renders a run description as pushsim flags; ok is false when the
// description uses something pushsim has no flag for.
func flagsFor(s pushmulticast.RunSpec) (args []string, ok bool) {
	add := func(name string, v any) {
		if !reflect.ValueOf(v).IsZero() {
			args = append(args, "-"+name, fmt.Sprint(v))
		}
	}
	add("cores", s.Cores)
	add("scale", s.Scale)
	add("scheme", s.Scheme)
	add("workload", s.Workload.Name)
	add("sharers", s.Workload.Sharers)
	add("fanout", s.Workload.Fanout)
	add("chunk", s.Workload.ChunkLines)
	add("payload", s.Workload.PayloadLines)
	add("iters", s.Workload.Iters)
	add("trace", s.TraceN)
	if s.Check {
		args = append(args, "-check")
	}
	if f := s.Faults; f != nil {
		add("faults", f.Intensity)
		add("lossy", f.LossyPerMille)
		add("faultseed", f.Seed)
	}
	if k := s.Knobs; k != nil {
		add("link", k.LinkWidthBits)
		add("retrywindow", k.RetryWindow)
		add("retrytimeout", k.RetryTimeout)
		add("maxretries", k.MaxRetries)
		add("mshrtimeout", k.MSHRRetryTimeout)
		ok = k.TPCThreshold == 0 && k.TimeWindow == 0
		return args, ok && s.WarmStart == ""
	}
	return args, s.WarmStart == ""
}

// TestFlagsResolveLikeEveryFrontEnd drives pushsim's flag parsing from the
// tables the simd suite also ranges over: a malformed description is refused
// with the validator's own one-line text (pushsim used to run -faults 2,
// -lossy 5000 and -trace -5) or, for a flag that no longer exists, the flag
// package's; and a good one resolves to the same configuration and identity
// as the description resolved directly.
func TestFlagsResolveLikeEveryFrontEnd(t *testing.T) {
	for _, tc := range pushmulticast.MalformedRunSpecs() {
		args, ok := flagsFor(tc.Spec)
		if !ok || tc.ExtraJSON != "" {
			continue
		}
		args = append(args, tc.ExtraArgs...)
		t.Run(tc.Name, func(t *testing.T) {
			o, err := parseArgs(args)
			if err == nil {
				_, err = o.resolve()
			}
			if err == nil {
				t.Fatalf("pushsim %v accepted a malformed description", args)
			}
			if strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), tc.Want) {
				t.Fatalf("pushsim %v: diagnostic %q; want one line mentioning %q", args, err, tc.Want)
			}
		})
	}
	for _, tc := range pushmulticast.ExampleRunSpecs() {
		args, ok := flagsFor(tc.Spec)
		if !ok {
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			want, err := tc.Spec.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parse(t, args...).resolve()
			if err != nil {
				t.Fatalf("pushsim %v: %v", args, err)
			}
			if got.Identity() != want.Identity() || !reflect.DeepEqual(got.Config, want.Config) {
				t.Fatalf("pushsim %v resolved a different run:\n flags   %+v\n resolve %+v", args, got.Config, want.Config)
			}
		})
	}
}

// TestKnobFlagsKeepTheMachine pins that pushsim states no default of its own:
// every knob flag defaults to 0, which keeps the machine's value, so naming
// the machine's own link width resolves to the same run as leaving it out.
func TestKnobFlagsKeepTheMachine(t *testing.T) {
	o := parse(t)
	if *o.spec.Knobs != (pushmulticast.KnobSpec{}) {
		t.Fatalf("knob flags default to %+v; want all zero", *o.spec.Knobs)
	}
	plain, err := o.resolve()
	if err != nil {
		t.Fatal(err)
	}
	named, err := parse(t, "-link", "128").resolve()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Identity() != named.Identity() {
		t.Fatalf("-link 128 resolved to run %s, the default to %s", named.Identity(), plain.Identity())
	}
}

// TestExecuteSnapshotRoundTrip pins the CLI checkpoint workflow end to end:
// a run that pauses to write a snapshot finishes with results identical to a
// plain run, and a fresh process restoring that snapshot finishes with the
// same results again — cycle count and full causal trace hash included.
func TestExecuteSnapshotRoundTrip(t *testing.T) {
	run, err := parse(t, "-scale", "tiny", "-check").resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg, cachebw := run.Config, run.Workload
	snapFile := filepath.Join(t.TempDir(), "pause.snap")

	plain, err := execute(cfg, cachebw, pushmulticast.ScaleTiny, "", 0, 0, "")
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	saved, err := execute(cfg, cachebw, pushmulticast.ScaleTiny, snapFile, 5000, 0, "")
	if err != nil {
		t.Fatalf("snapshotting run: %v", err)
	}
	restored, err := execute(cfg, cachebw, pushmulticast.ScaleTiny, "", 0, 0, snapFile)
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	// Periodic auto-checkpointing must also be output-transparent, and the
	// file left behind must be a complete restorable snapshot.
	ckptFile := filepath.Join(t.TempDir(), "auto.snap")
	auto, err := execute(cfg, cachebw, pushmulticast.ScaleTiny, ckptFile, 0, 5000, "")
	if err != nil {
		t.Fatalf("auto-checkpointing run: %v", err)
	}
	resumed, err := execute(cfg, cachebw, pushmulticast.ScaleTiny, ckptFile, 0, 5000, ckptFile)
	if err != nil {
		t.Fatalf("resumed auto-checkpointing run: %v", err)
	}
	for _, res := range []struct {
		name string
		got  pushmulticast.Results
	}{{"snapshotting", saved}, {"restored", restored}, {"auto-checkpointing", auto}, {"resumed", resumed}} {
		if res.got.Cycles != plain.Cycles || res.got.TraceHash != plain.TraceHash ||
			res.got.Stats.Core.Instructions != plain.Stats.Core.Instructions {
			t.Errorf("%s run diverged from plain run: cycles %d vs %d, trace %#x vs %#x",
				res.name, res.got.Cycles, plain.Cycles, res.got.TraceHash, plain.TraceHash)
		}
	}
}

// TestCheckSnapEvery is the -snapevery bad-input table: any explicitly set
// non-positive value is one one-line diagnostic; unset stays silent.
func TestCheckSnapEvery(t *testing.T) {
	cases := []struct {
		name string
		set  bool
		n    int64
		ok   bool
	}{
		{"unset", false, 0, true},
		{"positive", true, 5000, true},
		{"zero", true, 0, false},
		{"negative", true, -3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkSnapEvery(tc.set, tc.n)
			if tc.ok && err != nil {
				t.Fatalf("checkSnapEvery(%v, %d) = %v; want nil", tc.set, tc.n, err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("checkSnapEvery(%v, %d) accepted bad input", tc.set, tc.n)
				}
				if strings.Contains(err.Error(), "\n") {
					t.Fatalf("diagnostic is not a single line: %q", err)
				}
			}
		})
	}
}

// TestExecuteBadInput is the regression table for the checkpoint flags: every
// unusable combination — and every snapshot whose format version or config
// fingerprint does not match the restoring machine — must produce a
// single-line diagnostic error (main prints it and exits 1), never a panic,
// a partial run, or a silent mis-restore.
func TestExecuteBadInput(t *testing.T) {
	run, err := parse(t, "-scale", "tiny", "-check").resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg, cachebw := run.Config, run.Workload
	dir := t.TempDir()
	snapFile := filepath.Join(dir, "donor.snap")
	if _, err := execute(cfg, cachebw, pushmulticast.ScaleTiny, snapFile, 5000, 0, ""); err != nil {
		t.Fatalf("writing the donor snapshot: %v", err)
	}
	snap, err := os.ReadFile(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Snapshots from a hypothetical newer build and from the two previous
	// formats: same bytes, the format version field (first header field after
	// the magic) patched to 6, 4 and 3. There is no reader for any of them.
	futureSnap, v4Snap, v3Snap := append([]byte(nil), snap...), append([]byte(nil), snap...), append([]byte(nil), snap...)
	futureSnap[8], v4Snap[8], v3Snap[8] = 6, 4, 3
	baseRun, err := parse(t, "-scale", "tiny", "-check", "-scheme", "Baseline").resolve()
	if err != nil {
		t.Fatal(err)
	}
	baseline := baseRun.Config

	cases := []struct {
		name      string
		cfg       pushmulticast.Config
		workload  string
		params    pushmulticast.WorkloadSpec
		snapFile  string
		snapAt    uint64
		snapEvery uint64
		restore   string
		want      string
	}{
		{"snapshot combined with restore", cfg, "cachebw", pushmulticast.WorkloadSpec{}, snapFile, 5000, 0, snapFile, "cannot be combined"},
		{"snapshot without snapat", cfg, "cachebw", pushmulticast.WorkloadSpec{}, filepath.Join(dir, "x.snap"), 0, 0, "", "-snapat"},
		{"snapevery without snapshot", cfg, "cachebw", pushmulticast.WorkloadSpec{}, "", 0, 5000, "", "-snapevery requires -snapshot"},
		{"snapevery combined with snapat", cfg, "cachebw", pushmulticast.WorkloadSpec{}, filepath.Join(dir, "y.snap"), 5000, 5000, "", "cannot be combined with -snapat"},
		{"restore file missing", cfg, "cachebw", pushmulticast.WorkloadSpec{}, "", 0, 0, filepath.Join(dir, "no-such.snap"), "no-such.snap"},
		{"restore file is not a snapshot", cfg, "cachebw", pushmulticast.WorkloadSpec{}, "", 0, 0, write("noise.snap", []byte("definitely not a snapshot file")), "bad magic"},
		{"truncated snapshot", cfg, "cachebw", pushmulticast.WorkloadSpec{}, "", 0, 0, write("trunc.snap", snap[:len(snap)-7]), "hash mismatch"},
		{"newer format version", cfg, "cachebw", pushmulticast.WorkloadSpec{}, "", 0, 0, write("future.snap", futureSnap), "format v6, this build reads v5"},
		{"previous format version", cfg, "cachebw", pushmulticast.WorkloadSpec{}, "", 0, 0, write("v4.snap", v4Snap), "snapshot format v4, this build reads v5"},
		{"older format version", cfg, "cachebw", pushmulticast.WorkloadSpec{}, "", 0, 0, write("v3.snap", v3Snap), "snapshot format v3, this build reads v5"},
		{"different scheme", baseline, "cachebw", pushmulticast.WorkloadSpec{}, "", 0, 0, snapFile, "snapshot mismatch"},
		{"different workload", cfg, "bfs", pushmulticast.WorkloadSpec{}, "", 0, 0, snapFile, "snapshot mismatch"},
		// Collective bad inputs: -workload/-cores combinations inconsistent
		// with the collective's structure must surface the same one-line
		// diagnostic + exit 1 contract, not a panic.
		{"unknown workload lists valid names", cfg, "allredcue", pushmulticast.WorkloadSpec{}, "", 0, 0, "", "valid: allreduce, backprop"},
		{"collective sharers exceed cores", cfg, "allreduce", pushmulticast.WorkloadSpec{Sharers: 32}, "", 0, 0, "", "32 sharers exceed the 16-core machine"},
		{"collective sharers below minimum", cfg, "broadcast", pushmulticast.WorkloadSpec{Sharers: 1}, "", 0, 0, "", "below the minimum"},
		{"chunk does not divide payload", cfg, "broadcast", pushmulticast.WorkloadSpec{ChunkLines: 7, PayloadLines: 100}, "", 0, 0, "", "does not divide"},
		{"prodcons group mismatch", cfg, "prodcons", pushmulticast.WorkloadSpec{Sharers: 16, Fanout: 2}, "", 0, 0, "", "do not split into groups"},
		{"negative iters", cfg, "allreduce", pushmulticast.WorkloadSpec{Iters: -1}, "", 0, 0, "", "Iters -1 is negative"},
		{"collective flags on a fixed workload", cfg, "cachebw", pushmulticast.WorkloadSpec{Fanout: 4}, "", 0, 0, "", "not a collective"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Mirror main's pipeline: resolve the description, then execute.
			// Either stage may be the one that rejects the input.
			tc.params.Name = tc.workload
			run, err := pushmulticast.RunSpec{Scale: "tiny", Scheme: tc.cfg.Scheme.Name, Check: true, Workload: tc.params}.Resolve(nil)
			if err == nil {
				_, err = execute(tc.cfg, run.Workload, run.Scale, tc.snapFile, tc.snapAt, tc.snapEvery, tc.restore)
			}
			if err == nil {
				t.Fatal("execute accepted bad input")
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("diagnostic is not a single line: %q", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}
}
