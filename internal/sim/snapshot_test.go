package sim

import (
	"slices"
	"testing"

	"pushmulticast/internal/snapshot"
)

// edgeDists are the wake distances, counted from the next cycle, that meet
// every way the engine files a sleeper: awake (due now, due next cycle), the
// wheel's last slot, the first cycle of the next lap, three laps ahead, and
// no wake at all.
var edgeDists = []Cycle{0, 1, wheelSlots - 1, wheelSlots, 3 * wheelSlots, NeverWake}

// edgeMachine registers two components per edge distance. Each logs its
// ticks and goes back to sleep until its distance past the next cycle; the
// always-awake first one wakes the two that sleep for good now and then.
func edgeMachine() (eng *Engine, hs []*Handle, log *[]tickRec) {
	eng, log = NewEngine(0, 0), new([]tickRec)
	for i := 0; i < 2*len(edgeDists); i++ {
		var h *Handle
		d := edgeDists[i%len(edgeDists)]
		h = eng.Register(TickFunc(func(now Cycle) {
			*log = append(*log, tickRec{now, h.idx})
			if d == NeverWake {
				h.Sleep()
			} else {
				h.SleepUntil(now + 1 + d)
			}
			if h.idx == 0 && now%100 == 0 {
				hs[len(edgeDists)-1].Wake()
				hs[2*len(edgeDists)-1].WakeAt(now + 3)
			}
		}))
		hs = append(hs, h)
	}
	return eng, hs, log
}

// roundTrip encodes src's state and decodes it into dst.
func roundTrip(t *testing.T, src, dst *Engine) {
	t.Helper()
	enc := snapshot.NewEncoder("", "", 0)
	src.State(enc)
	dec, err := snapshot.NewDecoder(enc.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if dst.State(dec); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
}

// TestSnapshotRestoresEveryHandleAwake: a snapshot carries the clock and the
// watchdog's progress cycle and none of the engine's scheduling. The source
// has sleepers filed in this lap, a lap or more ahead and nowhere; the target
// filed other wakes while it was built. Decoding must restore the two cycles,
// leave every handle awake and nothing filed, and restart the tick counter,
// so the first Step ticks every component, in registration order, at the
// restored clock — and each decides there whether to sleep again.
func TestSnapshotRestoresEveryHandleAwake(t *testing.T) {
	a, _, _ := edgeMachine()
	for a.Now() < 10 {
		a.Step()
	}
	a.Progress()
	for a.Now() < 2*wheelSlots+3 {
		a.Step()
	}
	var near, ahead int
	for _, h := range a.handles {
		switch {
		case h.wakeAt == NeverWake:
		case h.wakeAt-a.Now() < wheelSlots:
			near++
		default:
			ahead++
		}
	}
	if near == 0 || ahead == 0 {
		t.Fatalf("the source files %d wakes in this lap and %d a lap or more ahead: not every filing is covered", near, ahead)
	}
	b, bhs, blog := edgeMachine()
	bhs[3].SleepUntil(5)
	bhs[4].SleepUntil(2 * wheelSlots)
	bhs[5].Sleep()
	roundTrip(t, a, b)

	if b.Now() != a.Now() || b.lastProgress != a.lastProgress || b.Ticks() != 0 {
		t.Fatalf("restored clock %d, last progress %d, %d ticks; want %d, %d, 0",
			b.Now(), b.lastProgress, b.Ticks(), a.Now(), a.lastProgress)
	}
	for i, h := range bhs {
		if h.asleep || h.wakeAt != NeverWake {
			t.Fatalf("handle %d restored as (asleep %v, wake %d), want awake and unfiled", i, h.asleep, h.wakeAt)
		}
	}
	filed := slices.ContainsFunc(b.wheel, func(w uint64) bool { return w != 0 }) ||
		slices.ContainsFunc(b.slotCount[:], func(n int32) bool { return n != 0 }) ||
		slices.ContainsFunc(b.slotMask[:], func(m uint64) bool { return m != 0 })
	if b.asleepCount != 0 || filed {
		t.Fatalf("restored engine counts %d asleep, wheel filed: %v; want nothing", b.asleepCount, filed)
	}

	b.Step()
	want := make([]tickRec, len(bhs))
	for i := range want {
		want[i] = tickRec{a.Now(), i}
	}
	if !slices.Equal(*blog, want) {
		t.Fatalf("first restored step ticked %v, want %v", *blog, want)
	}
}
