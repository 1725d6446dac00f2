package pushmulticast

import (
	"context"
	"sync"
	"testing"

	"pushmulticast/internal/workload"
)

// TestMemoSingleFlight races many goroutines at the same memo key and
// requires exactly one simulation: every caller must get back the same
// Results, sharing one Stats bundle by pointer. Run with -race, this is the
// regression test for the unsynchronized map the memo used to be.
func TestMemoSingleFlight(t *testing.T) {
	ClearRunMemo()
	t.Cleanup(ClearRunMemo)
	wl, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
	const callers = 8
	results := make([]Results, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := NewRun(cfg, wl, ScaleTiny, nil).Execute(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i].Stats != results[0].Stats {
			t.Fatalf("caller %d got a distinct Stats bundle: the run was simulated more than once", i)
		}
	}
}

// TestMemoKeyDistinguishesRuns pins the key-collision fixes: scale, workload,
// and the dereferenced fault plan must all separate entries — and a config
// differing only in its fault-plan *pointer* must still hit the same entry.
func TestMemoKeyDistinguishesRuns(t *testing.T) {
	cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
	wlA, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	wlB, err := workload.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	base := NewRun(cfg, wlA, ScaleTiny, nil).key()
	if k := NewRun(cfg, wlA, ScaleQuick, nil).key(); k == base {
		t.Error("scale not part of the memo key")
	}
	if k := NewRun(cfg, wlB, ScaleTiny, nil).key(); k == base {
		t.Error("workload not part of the memo key")
	}
	planA := FaultPlan{Seed: 1, Faults: []Fault{{Kind: FaultRouterSlow, Node: 0, From: 1, To: 2, Factor: 2}}}
	planB := FaultPlan{Seed: 2, Faults: planA.Faults}
	cfgA, cfgB := cfg, cfg
	cfgA.Faults, cfgB.Faults = &planA, &planB
	kA := NewRun(cfgA, wlA, ScaleTiny, nil).key()
	if kB := NewRun(cfgB, wlA, ScaleTiny, nil).key(); kA == kB {
		t.Error("fault plans with different contents share a memo key")
	}
	// Same plan contents behind a different pointer must alias (the key holds
	// the dereferenced plan, not the address).
	planC := planA
	cfgC := cfg
	cfgC.Faults = &planC
	if kC := NewRun(cfgC, wlA, ScaleTiny, nil).key(); kA != kC {
		t.Error("identical fault plans behind different pointers got distinct keys")
	}
}

// TestMemoClearDuringFlight hammers Execute while concurrently clearing
// the memo: in-flight runs must complete and release their waiters even when
// their entry vanishes underneath them (exercised under -race in CI).
func TestMemoClearDuringFlight(t *testing.T) {
	ClearRunMemo()
	t.Cleanup(ClearRunMemo)
	wl, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(Default16()).WithScheme(Baseline())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := NewRun(cfg, wl, ScaleTiny, nil).Execute(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < 10; i++ {
		ClearRunMemo()
	}
	wg.Wait()
}

// TestMemoWarmColdNoAlias is the warm-start aliasing regression: a run
// forked from a snapshot and a cold run of the identical configuration race
// into the memo concurrently and must occupy distinct entries — the warm
// key carries the snapshot's content hash. An aliased memo would hand a
// fork's results (whose pre-barrier history ran under the donor's knobs) to
// a caller that asked for a cold run, silently corrupting campaign figures.
// A fork under the donor's own knobs is the one warm run that is no
// approximation: it must equal its cold run exactly. Run with -race in CI.
func TestMemoWarmColdNoAlias(t *testing.T) {
	ClearRunMemo()
	t.Cleanup(ClearRunMemo)
	wl, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	donor := ScaledConfig(Default16()).WithScheme(OrdPush())
	donor.TraceN = 64 // so the exact-resume case compares event histories too
	m, err := NewMachine(donor, wl, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunTo(4000); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The forked target differs from the donor only in a tuning knob, and is
	// also run cold — the exact configuration pair that would alias if the
	// memo key ignored snapshot provenance.
	target := donor
	target.TPCThreshold = 99
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := NewRun(target, wl, ScaleTiny, nil).Execute(context.Background()); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := NewRun(target, wl, ScaleTiny, snap).Execute(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	runMemo.Lock()
	entries := len(runMemo.m)
	runMemo.Unlock()
	if entries != 2 {
		t.Fatalf("memo holds %d entries for (cold, warm) of one config; want 2 (no aliasing, no duplicates)", entries)
	}
	coldKey := NewRun(target, wl, ScaleTiny, nil).key()
	warmKey := NewRun(target, wl, ScaleTiny, snap).key()
	runMemo.Lock()
	_, haveCold := runMemo.m[coldKey]
	_, haveWarm := runMemo.m[warmKey]
	runMemo.Unlock()
	if !haveCold || !haveWarm {
		t.Fatalf("expected distinct cold and warm entries (cold %v, warm %v)", haveCold, haveWarm)
	}
	cold, _, err := NewRun(donor, wl, ScaleTiny, nil).Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resumed, _, err := NewRun(donor, wl, ScaleTiny, snap).Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cold.TraceHash == 0 || cold.Cycles != resumed.Cycles || cold.TraceHash != resumed.TraceHash ||
		cold.Stats.Core.Instructions != resumed.Stats.Core.Instructions {
		t.Fatalf("exact resume diverged from its cold run: cycles %d vs %d, instructions %d vs %d, trace %#x vs %#x",
			cold.Cycles, resumed.Cycles, cold.Stats.Core.Instructions, resumed.Stats.Core.Instructions, cold.TraceHash, resumed.TraceHash)
	}
}
