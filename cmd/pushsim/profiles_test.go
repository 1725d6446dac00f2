package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesAllProfiles is the smoke test for the profiling surface
// behind the -cpuprofile/-memprofile/-exectrace flags: arming all three,
// doing some work, and stopping must leave three non-empty files, and a
// second stop call must be harmless.
func TestStartWritesAllProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	tr := filepath.Join(dir, "trace.out")
	stop, err := startProfiles(cpu, mem, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Allocate and spin a little so every profiler has something to record.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i % 7
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent: a second call has nothing left to stop
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem, tr} {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile %s not written: %v", f, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
}

// TestStartEmptyPathsIsNoOp pins the default: no flags, no files, no error.
func TestStartEmptyPathsIsNoOp(t *testing.T) {
	stop, err := startProfiles("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartBadPathFails pins the error contract: an uncreatable profile path
// must surface as an error at start, not a silent profile loss at exit.
func TestStartBadPathFails(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "p")
	for _, tc := range []struct {
		flag          string
		cpu, mem, exe string
	}{
		{"cpuprofile", bad, "", ""},
		{"memprofile", "", bad, ""},
		{"exectrace", "", "", bad},
	} {
		if _, err := startProfiles(tc.cpu, tc.mem, tc.exe); err == nil {
			t.Errorf("startProfiles accepted an uncreatable %s path", tc.flag)
		}
	}
}
