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
	stop()
	stop() // idempotent: commands call it both deferred and on exit paths
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
	stop()
}

// TestStartBadPathFails pins the error contract: an uncreatable profile path
// must surface as an error at start, not a silent profile loss at exit.
func TestStartBadPathFails(t *testing.T) {
	if _, err := startProfiles("/no/such/dir/cpu.pprof", "", ""); err == nil {
		t.Fatal("startProfiles accepted an uncreatable cpuprofile path")
	}
}
