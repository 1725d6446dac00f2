package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pushmulticast"
	"pushmulticast/internal/snapshot"
)

// parse runs pushsim's flag parsing over args, as main does.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	o, err := parseArgs(args, io.Discard)
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
			o, err := parseArgs(args, io.Discard)
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

	exec := func(args ...string) (pushmulticast.Results, error) {
		return execute(cfg, cachebw, pushmulticast.ScaleTiny, parse(t, args...), io.Discard)
	}
	plain, err := exec()
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	saved, err := exec("-snapshot", snapFile, "-snapat", "5000")
	if err != nil {
		t.Fatalf("snapshotting run: %v", err)
	}
	restored, err := exec("-restore", snapFile)
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	// Periodic auto-checkpointing must also be output-transparent, and the
	// file left behind must be a complete restorable snapshot.
	ckptFile := filepath.Join(t.TempDir(), "auto.snap")
	auto, err := exec("-snapshot", ckptFile, "-snapevery", "5000")
	if err != nil {
		t.Fatalf("auto-checkpointing run: %v", err)
	}
	resumed, err := exec("-snapshot", ckptFile, "-snapevery", "5000", "-restore", ckptFile)
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

// TestCheckSnapEvery is the checkpoint flags' bad-input table: any
// explicitly set non-positive -snapevery or -snapat, the two together, either
// without -snapshot (a -restore included), and a one-shot -snapshot without
// -snapat or with -restore, is one one-line diagnostic naming the problem;
// unset stays silent.
func TestCheckSnapEvery(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // "" for accepted flags
	}{
		{"unset", nil, ""},
		{"positive", []string{"-snapevery", "5000", "-snapshot", "F"}, ""},
		{"zero", []string{"-snapevery", "0"}, "not a positive cycle count"},
		{"negative", []string{"-snapevery", "-3"}, "not a positive cycle count"},
		{"snapat zero", []string{"-snapshot", "F", "-snapat", "0"}, "not a positive cycle count"},
		{"snapat zero with snapevery", []string{"-snapevery", "5000", "-snapat", "0", "-snapshot", "F"}, "not a positive cycle count"},
		{"snapshot combined with restore", []string{"-snapshot", "F", "-snapat", "5000", "-restore", "F"}, "cannot be combined"},
		{"snapshot without snapat", []string{"-snapshot", "F"}, "-snapat"},
		{"snapevery without snapshot", []string{"-snapevery", "5000"}, "-snapevery requires -snapshot"},
		{"snapevery combined with snapat", []string{"-snapshot", "F", "-snapat", "5000", "-snapevery", "5000"}, "cannot be combined with -snapat"},
		{"snapat without snapshot", []string{"-snapat", "10000"}, "-snapat requires -snapshot"},
		{"snapat with restore", []string{"-restore", "F", "-snapat", "12000"}, "-snapat requires -snapshot"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkSnapEvery(parse(t, tc.args...))
			if tc.want == "" && err != nil {
				t.Fatalf("checkSnapEvery(%q) = %v; want nil", tc.args, err)
			}
			if tc.want != "" {
				if err == nil {
					t.Fatalf("checkSnapEvery(%q) accepted bad input", tc.args)
				}
				if strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("diagnostic %q; want one line mentioning %q", err, tc.want)
				}
			}
		})
	}
}

// TestExecuteBadInput is the regression table for -restore and the workload
// flags: every snapshot that cannot be read, or whose format version or
// config fingerprint does not match the restoring machine, and every
// workload the machine cannot run, must produce a single-line diagnostic
// error (run prints it and exits 1), never a panic, a partial run, or a
// silent mis-restore. TestCheckSnapEvery has the flag combinations.
func TestExecuteBadInput(t *testing.T) {
	run, err := parse(t, "-scale", "tiny", "-check").resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg, cachebw := run.Config, run.Workload
	dir := t.TempDir()
	snapFile := filepath.Join(dir, "donor.snap")
	if _, err := execute(cfg, cachebw, pushmulticast.ScaleTiny, parse(t, "-snapshot", snapFile, "-snapat", "5000"), io.Discard); err != nil {
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
	// the magic) patched to one above this build's and to the two below.
	// There is no reader for any of them.
	futureSnap, prevSnap, olderSnap := bytes.Clone(snap), bytes.Clone(snap), bytes.Clone(snap)
	futureSnap[8], prevSnap[8], olderSnap[8] = byte(snapshot.Version+1), byte(snapshot.Version-1), byte(snapshot.Version-2)
	reads := func(v uint32) string {
		return fmt.Sprintf("snapshot format v%d, this build reads v%d", v, snapshot.Version)
	}
	baseRun, err := parse(t, "-scale", "tiny", "-check", "-scheme", "Baseline").resolve()
	if err != nil {
		t.Fatal(err)
	}
	baseline := baseRun.Config

	cases := []struct {
		name     string
		cfg      pushmulticast.Config
		workload string
		params   pushmulticast.WorkloadSpec
		restore  string
		want     string
	}{
		{"restore file missing", cfg, "cachebw", pushmulticast.WorkloadSpec{}, filepath.Join(dir, "no-such.snap"), "no-such.snap"},
		{"restore file is not a snapshot", cfg, "cachebw", pushmulticast.WorkloadSpec{}, write("noise.snap", []byte("definitely not a snapshot file")), "bad magic"},
		{"truncated snapshot", cfg, "cachebw", pushmulticast.WorkloadSpec{}, write("trunc.snap", snap[:len(snap)-7]), "hash mismatch"},
		{"newer format version", cfg, "cachebw", pushmulticast.WorkloadSpec{}, write("future.snap", futureSnap), reads(snapshot.Version + 1)},
		{"previous format version", cfg, "cachebw", pushmulticast.WorkloadSpec{}, write("previous.snap", prevSnap), reads(snapshot.Version - 1)},
		{"older format version", cfg, "cachebw", pushmulticast.WorkloadSpec{}, write("older.snap", olderSnap), reads(snapshot.Version - 2)},
		{"different scheme", baseline, "cachebw", pushmulticast.WorkloadSpec{}, snapFile, "snapshot mismatch"},
		{"different workload", cfg, "bfs", pushmulticast.WorkloadSpec{}, snapFile, "snapshot mismatch"},
		// Collective bad inputs: -workload/-cores combinations inconsistent
		// with the collective's structure must surface the same one-line
		// diagnostic + exit 1 contract, not a panic.
		{"unknown workload lists valid names", cfg, "allredcue", pushmulticast.WorkloadSpec{}, "", "valid: allreduce, backprop"},
		{"collective sharers exceed cores", cfg, "allreduce", pushmulticast.WorkloadSpec{Sharers: 32}, "", "32 sharers exceed the 16-core machine"},
		{"collective sharers below minimum", cfg, "broadcast", pushmulticast.WorkloadSpec{Sharers: 1}, "", "below the minimum"},
		{"chunk does not divide payload", cfg, "broadcast", pushmulticast.WorkloadSpec{ChunkLines: 7, PayloadLines: 100}, "", "does not divide"},
		{"prodcons group mismatch", cfg, "prodcons", pushmulticast.WorkloadSpec{Sharers: 16, Fanout: 2}, "", "do not split into groups"},
		{"negative iters", cfg, "allreduce", pushmulticast.WorkloadSpec{Iters: -1}, "", "Iters -1 is negative"},
		{"collective flags on a fixed workload", cfg, "cachebw", pushmulticast.WorkloadSpec{Fanout: 4}, "", "not a collective"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Mirror main's pipeline: resolve the description, then execute.
			// Either stage may be the one that rejects the input.
			tc.params.Name = tc.workload
			run, err := pushmulticast.RunSpec{Scale: "tiny", Scheme: tc.cfg.Scheme.Name, Check: true, Workload: tc.params}.Resolve(nil)
			if err == nil {
				_, err = execute(tc.cfg, run.Workload, run.Scale, &options{restoreF: tc.restore}, io.Discard)
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

// TestRun drives pushsim as its main does, in process: a run's exit status,
// its stdout, and its stderr, which on a failure is exactly one line naming
// the problem. Three rows are the CLI's checkpoint contract: restoring under a
// different scheme or other collective parameters, and reading a snapshot
// stamped with the previous format version, each fail loudly with nothing on
// stdout. A -snapevery run writes its checkpoints and prints the plain run's
// JSON, and resuming from a checkpoint the setup writes the same way, plain or
// checkpointing on, prints it again. The profile rows
// require every profile flag to leave a non-empty file, and an uncreatable
// profile path to fail before the run.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	donor := filepath.Join(dir, "donor.snap")
	tiny := []string{"-workload", "cachebw", "-scheme", "OrdPush", "-scale", "tiny", "-check"}
	var stdout, stderr bytes.Buffer
	if code := run(append(tiny, "-snapshot", donor, "-snapat", "10000", "-json"), &stdout, &stderr); code != 0 {
		t.Fatalf("writing the donor snapshot: exit %d, stderr %q", code, &stderr)
	}
	if !strings.HasPrefix(stderr.String(), "pushsim: snapshot written to") {
		t.Fatalf("snapshotting run's stderr %q does not report the snapshot", &stderr)
	}
	var res struct{ Cycles uint64 }
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil || res.Cycles != 21266 {
		t.Fatalf("snapshotting run's stdout is not the 21266-cycle JSON result (%v): %q", err, &stdout)
	}
	data, err := os.ReadFile(donor)
	if err != nil {
		t.Fatal(err)
	}
	previous := bytes.Clone(data)
	previous[8] = byte(snapshot.Version - 1) // the format version is the u32 after the 8-byte magic
	previousFile := filepath.Join(dir, "previous.snap")
	if err := os.WriteFile(previousFile, previous, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run(append(tiny, "-json"), &stdout, io.Discard); code != 0 {
		t.Fatalf("the plain run exited %d", code)
	}
	plain := stdout.String()
	checkpoint := filepath.Join(dir, "auto.snap")
	if code := run(append(tiny, "-snapshot", checkpoint, "-snapevery", "5000", "-json"), io.Discard, io.Discard); code != 0 {
		t.Fatalf("writing the auto-checkpoint: exit %d", code)
	}
	broadcast := func(fanout string) []string {
		return []string{"-workload", "broadcast", "-fanout", fanout, "-cores", "16", "-scale", "tiny"}
	}
	bcast := filepath.Join(dir, "broadcast.snap")
	stdout.Reset()
	stderr.Reset()
	if code := run(append(broadcast("2"), "-snapshot", bcast, "-snapat", "4000"), &stdout, &stderr); code != 0 {
		t.Fatalf("writing the broadcast snapshot: exit %d, stderr %q", code, &stderr)
	}
	profiles := []string{filepath.Join(dir, "p.cpu"), filepath.Join(dir, "p.mem"), filepath.Join(dir, "p.trace")}
	unwritable := filepath.Join(dir, "no", "such", "dir", "p.mem")
	cases := []struct {
		name string
		args []string
		code int
		out  string // a substring of stdout
		err  string // a substring of the one stderr line; "" for none
		// files must each exist and be non-empty after the run.
		files []string
		// plain requires stdout to be the plain run's JSON, byte for byte.
		plain bool
	}{
		{"text report", []string{"-scale", "tiny"}, 0, "cycles          21266", "", nil, false},
		{"restore", append(tiny, "-restore", donor, "-json"), 0, `"cycles": 21266`, "", nil, false},
		{"workload list", []string{"-list"}, 0, "cachebw", "", nil, false},
		{"help", []string{"-h"}, 0, "", "Usage of pushsim", nil, false},
		{"mismatched restore", []string{"-workload", "cachebw", "-scheme", "Baseline", "-scale", "tiny", "-check", "-restore", donor}, 1, "", "snapshot mismatch", nil, false},
		{"previous format version", append(tiny, "-restore", previousFile), 1, "",
			fmt.Sprintf("snapshot format v%d, this build reads v%d", snapshot.Version-1, snapshot.Version), nil, false},
		{"auto-checkpointing", append(tiny, "-snapshot", filepath.Join(dir, "auto1.snap"), "-snapevery", "5000", "-json"), 0, "", "checkpoints written", []string{filepath.Join(dir, "auto1.snap")}, true},
		{"restore an auto-checkpoint", append(tiny, "-restore", checkpoint, "-json"), 0, "", "", nil, true},
		{"resume auto-checkpointing", append(tiny, "-restore", checkpoint, "-snapshot", filepath.Join(dir, "auto2.snap"), "-snapevery", "5000", "-json"), 0, "",
			"resumed from " + checkpoint, nil, true},
		{"snapevery 0", []string{"-scale", "tiny", "-snapshot", filepath.Join(dir, "never.snap"), "-snapevery", "0"}, 1, "", "not a positive cycle count", nil, false},
		{"other collective parameters", append(broadcast("4"), "-restore", bcast), 1, "", "snapshot mismatch", nil, false},
		{"profiles", []string{"-scale", "tiny", "-cpuprofile", profiles[0], "-memprofile", profiles[1], "-exectrace", profiles[2]}, 0, "cycles          21266", "", profiles, false},
		{"unwritable memprofile", []string{"-scale", "tiny", "-memprofile", unwritable}, 1, "", "no such file or directory", nil, false},
		{"snapat without snapshot", []string{"-scale", "tiny", "-snapat", "10000"}, 1, "", "-snapat requires -snapshot", nil, false},
		{"bad flag", []string{"-parallel", "4"}, 1, "", "flag provided but not defined: -parallel", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("pushsim %q exited %d, want %d (stderr %q)", tc.args, code, tc.code, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.out) || tc.code != 0 && stdout.Len() != 0 {
				t.Fatalf("pushsim %q wrote %q to stdout; want it to contain %q, and nothing on a failure", tc.args, &stdout, tc.out)
			}
			if tc.plain && stdout.String() != plain {
				t.Fatalf("pushsim %q wrote %q to stdout; want the plain run's %q", tc.args, &stdout, plain)
			}
			if tc.err == "" && stderr.Len() != 0 || !strings.Contains(stderr.String(), tc.err) {
				t.Fatalf("pushsim %q wrote %q to stderr; want %q", tc.args, &stderr, tc.err)
			}
			if tc.code != 0 && strings.Count(stderr.String(), "\n") != 1 {
				t.Fatalf("pushsim %q failed with %q on stderr; want exactly one line", tc.args, &stderr)
			}
			for _, f := range tc.files {
				if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
					t.Errorf("pushsim %q left %s missing or empty (%v)", tc.args, f, err)
				}
			}
		})
	}
}
