package sim

import (
	"errors"
	"slices"
	"testing"
)

func TestEngineStepsAndOrder(t *testing.T) {
	eng := NewEngine(0, 0)
	var order []int
	eng.Register(TickFunc(func(now Cycle) { order = append(order, 1) }))
	eng.Register(TickFunc(func(now Cycle) { order = append(order, 2) }))
	eng.Step()
	eng.Step()
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("tick order wrong: %v", order)
	}
	if eng.Now() != 2 {
		t.Fatalf("Now = %d, want 2", eng.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine(0, 0)
	count := 0
	eng.Register(TickFunc(func(now Cycle) { count++; eng.Progress() }))
	end, err := eng.Run(func() bool { return count >= 10 })
	if err != nil || end != 10 {
		t.Fatalf("end=%d err=%v", end, err)
	}
}

func TestEngineDeadlockDetection(t *testing.T) {
	eng := NewEngine(50, 0)
	eng.Register(TickFunc(func(now Cycle) {}))
	_, err := eng.Run(func() bool { return false })
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestEngineProgressDefersWatchdog(t *testing.T) {
	eng := NewEngine(50, 0)
	n := 0
	eng.Register(TickFunc(func(now Cycle) {
		n++
		if n < 200 {
			eng.Progress()
		}
	}))
	_, err := eng.Run(func() bool { return n >= 400 })
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock after progress stops", err)
	}
	if n < 200 {
		t.Fatalf("watchdog fired too early at n=%d", n)
	}
}

func TestEngineMaxCycles(t *testing.T) {
	eng := NewEngine(0, 25)
	eng.Register(TickFunc(func(now Cycle) { eng.Progress() }))
	_, err := eng.Run(func() bool { return false })
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
}

func TestEngineFinishedImmediately(t *testing.T) {
	eng := NewEngine(1, 1)
	end, err := eng.Run(func() bool { return true })
	if err != nil || end != 0 {
		t.Fatalf("end=%d err=%v, want 0,nil", end, err)
	}
}

// tickRec is one executed tick: which component, in which cycle.
type tickRec struct {
	cycle Cycle
	idx   int
}

// loggers registers n components that record their ticks and go back to
// sleep for good.
func loggers(eng *Engine, n int) (hs []*Handle, log *[]tickRec) {
	log = new([]tickRec)
	for i := 0; i < n; i++ {
		var h *Handle
		h = eng.Register(TickFunc(func(now Cycle) {
			*log = append(*log, tickRec{now, h.idx})
			eng.Progress()
			h.Sleep()
		}))
		hs = append(hs, h)
	}
	return hs, log
}

func TestSameCycleWakesTickInRegistrationOrder(t *testing.T) {
	eng := NewEngine(0, 0)
	hs, log := loggers(eng, 5)
	// Schedule in reverse registration order so arrival order cannot mask a
	// broken tie-break.
	for i := len(hs) - 1; i >= 0; i-- {
		hs[i].SleepUntil(10)
	}
	if _, err := eng.Run(func() bool { return len(*log) == len(hs) }); err != nil {
		t.Fatal(err)
	}
	for want, got := range *log {
		if got != (tickRec{10, want}) {
			t.Fatalf("tick %d: got %+v, want cycle 10 component %d (log %v)", want, got, want, *log)
		}
	}
}

func TestWakesOrderByCycleThenRegistration(t *testing.T) {
	eng := NewEngine(0, 0)
	hs, log := loggers(eng, 6)
	wakes := []Cycle{30, 10, 30, 20, 10, 20}
	for i, h := range hs {
		h.SleepUntil(wakes[i])
	}
	if _, err := eng.Run(func() bool { return len(*log) == len(hs) }); err != nil {
		t.Fatal(err)
	}
	// Primary key wake cycle ascending, ties by registration order.
	want := []tickRec{{10, 1}, {10, 4}, {20, 3}, {20, 5}, {30, 0}, {30, 2}}
	if !slices.Equal(*log, want) {
		t.Fatalf("tick log %v, want %v", *log, want)
	}
}

// TestRunToStopsAtBarrierWhileAsleep pins the barrier clamp: with every
// component asleep across the barrier, RunTo stops the clock on it (as the
// dense kernel does) without ticking, and the run resumes to the wake.
func TestRunToStopsAtBarrierWhileAsleep(t *testing.T) {
	eng := NewEngine(0, 0)
	hs, log := loggers(eng, 2)
	hs[0].SleepUntil(100)
	hs[1].Sleep()
	end, err := eng.RunTo(50, func() bool { return false })
	if err != nil || end != 50 || len(*log) != 0 {
		t.Fatalf("RunTo(50) stopped at %d with %v after ticks %v, want 50, no error, no tick", end, err, *log)
	}
	if _, err := eng.Run(func() bool { return len(*log) == 1 }); err != nil {
		t.Fatal(err)
	}
	if want := []tickRec{{100, 0}}; !slices.Equal(*log, want) {
		t.Fatalf("resumed run ticked %v, want %v", *log, want)
	}
}

// TestProgressThroughDefersWatchdog: progress declared for cycles a
// component sleeps through counts as the clock passes them, so the watchdog
// fires where a dense run reporting it cycle by cycle would.
func TestProgressThroughDefersWatchdog(t *testing.T) {
	eng := NewEngine(50, 0)
	var h *Handle
	h = eng.Register(TickFunc(func(now Cycle) {
		if now == 0 {
			eng.ProgressThrough(199)
			h.SleepUntil(200)
		}
	}))
	_, err := eng.Run(func() bool { return false })
	want := "sim: no forward progress (deadlock): stalled since cycle 199 (now 250)"
	if !errors.Is(err, ErrDeadlock) || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestSleepUntilSkipsIdleCycles(t *testing.T) {
	eng := NewEngine(0, 0)
	var at []Cycle
	var h *Handle
	h = eng.Register(TickFunc(func(now Cycle) {
		at = append(at, now)
		eng.Progress()
		if now < 100 {
			h.SleepUntil(now + 10)
		}
	}))
	end, err := eng.Run(func() bool { return len(at) > 0 && at[len(at)-1] >= 100 })
	if err != nil {
		t.Fatal(err)
	}
	if end != 101 {
		t.Fatalf("end = %d, want 101", end)
	}
	if len(at) != 11 {
		t.Fatalf("ticked %d times, want 11 (every 10th cycle): %v", len(at), at)
	}
	for i, c := range at {
		if c != Cycle(i*10) {
			t.Fatalf("tick %d at cycle %d, want %d", i, c, i*10)
		}
	}
	if eng.Ticks() != 11 {
		t.Fatalf("Ticks = %d, want 11", eng.Ticks())
	}
}

func TestWakeAtEarlierOverridesLater(t *testing.T) {
	eng := NewEngine(0, 0)
	var at []Cycle
	h := eng.Register(TickFunc(func(now Cycle) { at = append(at, now); eng.Progress() }))
	h.Sleep()
	h.WakeAt(50)
	h.WakeAt(80) // later than the scheduled wake: must not delay it
	h.WakeAt(30) // earlier: must pull the wake forward
	end, err := eng.Run(func() bool { return len(at) >= 1 })
	if err != nil {
		t.Fatal(err)
	}
	if at[0] != 30 || end != 31 {
		t.Fatalf("first tick at %d (end %d), want 30 (31)", at[0], end)
	}
}

func TestWakeCancelsScheduledWake(t *testing.T) {
	// One wake inside the wheel's horizon, one beyond it.
	for _, at := range []Cycle{100, 3 * wheelSlots} {
		eng := NewEngine(0, at+50)
		hs, log := loggers(eng, 1)
		hs[0].SleepUntil(at)
		hs[0].Wake() // ticks at cycle 0 and sleeps for good
		if _, err := eng.Run(func() bool { return false }); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("wake at %d: err = %v, want ErrMaxCycles", at, err)
		}
		if want := []tickRec{{0, 0}}; !slices.Equal(*log, want) {
			t.Fatalf("wake at %d: tick log %v, want %v: the canceled wake must not fire", at, *log, want)
		}
	}
}

func TestSleepUntilNextCycleStaysAwake(t *testing.T) {
	eng := NewEngine(0, 0)
	hs, log := loggers(eng, 1)
	// Waking at now+1 skips no ticks, so the handle stays awake rather than
	// paying for a filing: it still ticks in the current cycle.
	hs[0].SleepUntil(1)
	eng.Step()
	if want := []tickRec{{0, 0}}; !slices.Equal(*log, want) {
		t.Fatalf("tick log %v, want %v: a next-cycle sleep should stay awake", *log, want)
	}
}

// The wheel is laid out for the handles registered at the first filing. A
// component registered later that opens a new awake word re-lays it, and the
// wakes filed so far must survive the move.
func TestRegisterAfterFilingKeepsScheduledWakes(t *testing.T) {
	eng := NewEngine(0, 0)
	log := new([]tickRec)
	var want []tickRec
	add := func(at Cycle) {
		var h *Handle
		h = eng.Register(TickFunc(func(now Cycle) {
			*log = append(*log, tickRec{now, h.idx})
			eng.Progress()
			h.Sleep()
		}))
		h.SleepUntil(at)
		want = append(want, tickRec{at, h.idx})
	}
	for i := 0; i < 130; i++ { // three awake words, filed one handle at a time
		add(Cycle(5 + i%3))
	}
	slices.SortStableFunc(want, func(a, b tickRec) int { return int(a.cycle) - int(b.cycle) })
	if _, err := eng.Run(func() bool { return len(*log) == len(want) }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(*log, want) {
		t.Fatalf("tick log %v, want %v", *log, want)
	}
}

func TestDenseModeIgnoresQuiescence(t *testing.T) {
	eng := NewEngine(0, 0)
	eng.SetDense(true)
	n := 0
	h := eng.Register(TickFunc(func(Cycle) { n++ }))
	h.Sleep()
	eng.Step()
	eng.Step()
	if n != 2 {
		t.Fatalf("dense mode ticked %d times over 2 steps, want 2", n)
	}
	if eng.Ticks() != 2 {
		t.Fatalf("Ticks = %d, want 2", eng.Ticks())
	}
}
