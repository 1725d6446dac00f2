package pushmulticast

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/check"
	"pushmulticast/internal/core"
	"pushmulticast/internal/workload"
)

// buildChecked wires a checker-enabled system for direct stepping.
func buildChecked(t *testing.T) *core.System {
	t.Helper()
	cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
	cfg.Check = true
	cfg.TraceN = 128
	cfg.CheckEvery = 16
	wl, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(cfg, wl, workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCheckerDetectsCorruptedSharerSet runs a sharing-heavy workload
// partway, silently drops sharer bits from the directory — the silent-
// sharer bug class the sharers-superset invariant exists for — and
// requires the checker's next structural sweep to flag it, with the event
// trace holding a tail for the dump.
func TestCheckerDetectsCorruptedSharerSet(t *testing.T) {
	sys := buildChecked(t)
	for i := 0; i < 2000; i++ {
		sys.Eng.Step()
	}
	if err := sys.Checker.Err(); err != nil {
		t.Fatalf("violation before corruption: %v", err)
	}
	// Drop every S-state private copy from its home directory's view.
	corrupted := 0
	for _, l2 := range sys.L2s {
		id := l2.ID()
		l2.ForEachLine(func(addr uint64, l *cache.Line) {
			if l.State != cache.StateS {
				return
			}
			llc := sys.LLCs[sys.Cfg.HomeSlice(addr)]
			if d := llc.Line(addr); d != nil && llc.Dir(d).Sharers().Has(id) {
				llc.Dir(d).SetSharers(llc.Dir(d).Sharers().Remove(id))
				corrupted++
			}
		})
	}
	if corrupted == 0 {
		t.Fatal("no shared line found to corrupt after warm-up")
	}
	// The next sweep is at most CheckEvery cycles away.
	for i := 0; i < 64 && sys.Checker.Err() == nil; i++ {
		sys.Eng.Step()
	}
	err := sys.Checker.Err()
	if err == nil {
		t.Fatal("corrupted sharer set not detected by the checker sweep")
	}
	if !errors.Is(err, check.ErrViolation) {
		t.Fatalf("violation not wrapped in check.ErrViolation: %v", err)
	}
	if !strings.Contains(err.Error(), "superset") {
		t.Fatalf("wrong diagnosis for a dropped sharer: %v", err)
	}
	if len(sys.Tracer.Tail()) == 0 {
		t.Error("trace tail empty at the violation — nothing to dump")
	}
}

// TestCheckerTraceTailHoldsRecentEvents asserts the bounded ring retains
// the most recent events in order: after a run, the tail must be
// non-empty, capped at TraceN, and cycle-monotone — the properties the
// post-mortem dump relies on.
func TestCheckerTraceTailHoldsRecentEvents(t *testing.T) {
	sys := buildChecked(t)
	for i := 0; i < 3000; i++ {
		sys.Eng.Step()
	}
	tail := sys.Tracer.Tail()
	if len(tail) == 0 {
		t.Fatal("no events retained after 3000 cycles of a sharing workload")
	}
	if len(tail) > 128 {
		t.Fatalf("tail holds %d events, ring bound is 128", len(tail))
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Cycle < tail[i-1].Cycle {
			t.Fatalf("tail not cycle-monotone at %d: %d after %d", i, tail[i].Cycle, tail[i-1].Cycle)
		}
	}
	if sys.Tracer.Events() < uint64(len(tail)) {
		t.Fatalf("event count %d below tail length %d", sys.Tracer.Events(), len(tail))
	}
}

// TestCheckerDoesNotPerturbResults requires the checker and trace to be
// pure observers: a checked run must report exactly the cycles and
// counters of an unchecked one.
func TestCheckerDoesNotPerturbResults(t *testing.T) {
	cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
	plain, err := Run(cfg, "cachebw", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Run(withCheck(cfg), "cachebw", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != checked.Cycles {
		t.Errorf("checker changed the cycle count: %d vs %d", plain.Cycles, checked.Cycles)
	}
	if !reflect.DeepEqual(plain.Stats, checked.Stats) {
		t.Error("checker changed the counter bundle")
	}
	if checked.TraceEvents == 0 || checked.TraceHash == 0 {
		t.Errorf("checked run carries no event history: hash=%#x events=%d", checked.TraceHash, checked.TraceEvents)
	}
	if plain.TraceEvents != 0 || plain.TraceHash != 0 {
		t.Errorf("unchecked run unexpectedly traced: hash=%#x events=%d", plain.TraceHash, plain.TraceEvents)
	}
	// The checker only reads the trace: a run that traces without it records
	// the checked run's history, on either kernel.
	traced := cfg
	traced.TraceN = 64
	for _, c := range []Config{traced, withDense(traced)} {
		res, err := Run(c, "cachebw", ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		if res.TraceHash != checked.TraceHash || res.TraceEvents != checked.TraceEvents {
			t.Errorf("trace-only run (dense %v) recorded (hash %#x, %d events), checked run (hash %#x, %d events)",
				c.DenseKernel, res.TraceHash, res.TraceEvents, checked.TraceHash, checked.TraceEvents)
		}
	}
}
