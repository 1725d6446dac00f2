package sim

import (
	"slices"
	"testing"

	"pushmulticast/internal/snapshot"
)

// edgeDists are the wake distances, counted from the barrier, that meet every
// way the engine files a sleeper: awake (due now, due next cycle), the
// wheel's last slot, the overflow list's first cycle, deep overflow, and no
// wake at all.
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

// roundTrip encodes src's scheduling state and decodes it into dst.
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

// TestSnapshotRestoresEveryFiling takes a snapshot at a barrier where
// sleepers are due at now+1, now+W-1, now+W, now+3W and never — the first
// half put to sleep from inside the last tick before the barrier (which files
// now+W-1 in the overflow list, one cycle short of refiling), the second half
// between steps — and requires the restored engine to tick exactly like the
// original for four turns of the wheel. Decoding files by slot or overflow
// directly: going through sleep would wake the now+1 sleepers a cycle early.
func TestSnapshotRestoresEveryFiling(t *testing.T) {
	a, ahs, alog := edgeMachine()
	b, bhs, blog := edgeMachine()
	// Every component ticks in cycle 0 and sleeps until its distance past
	// cycle 1, the barrier; the first half stays that way.
	const barrier = 1
	a.Step()
	// The second half: awake at the barrier, then filed between steps.
	for i, h := range ahs[len(edgeDists):] {
		h.Wake()
		if d := edgeDists[i]; d == NeverWake {
			h.Sleep()
		} else {
			h.SleepUntil(barrier + d)
		}
	}
	// b sleeps differently before the restore: decoding must not build on it.
	bhs[3].SleepUntil(5)
	bhs[4].SleepUntil(2 * wheelSlots)
	roundTrip(t, a, b)
	for i := range ahs {
		if ahs[i].asleep != bhs[i].asleep || ahs[i].wakeAt != bhs[i].wakeAt {
			t.Fatalf("handle %d restored as (asleep %v, wake %d), saved as (%v, %d)",
				i, bhs[i].asleep, bhs[i].wakeAt, ahs[i].asleep, ahs[i].wakeAt)
		}
	}
	if a.asleepCount != b.asleepCount || a.nextWake() != b.nextWake() {
		t.Fatalf("refiled engine counts %d asleep, next wake %d; the original %d and %d",
			b.asleepCount, b.nextWake(), a.asleepCount, a.nextWake())
	}
	*alog = (*alog)[:0]
	for _, eng := range []*Engine{a, b} {
		if _, err := eng.Run(func() bool { return eng.Now() >= barrier+4*wheelSlots }); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(*alog, *blog) || a.Now() != b.Now() || a.Ticks() != b.Ticks() {
		t.Fatalf("restored engine ran %d ticks to cycle %d (count %d), the original %d to cycle %d (count %d)",
			len(*blog), b.Now(), b.Ticks(), len(*alog), a.Now(), a.Ticks())
	}
	if len(*alog) < 4*wheelSlots {
		t.Fatalf("only %d ticks in %d cycles: the machine did not run", len(*alog), 4*wheelSlots)
	}
}

// TestSnapshotWakeBeforeClockIsDue: no run leaves a sleeper with a wake time
// at or before the clock at a barrier, but a resealed snapshot can say so. The
// wake heap popped such an entry in the next Step; the wheel must too, and
// must still be able to cancel it.
func TestSnapshotWakeBeforeClockIsDue(t *testing.T) {
	src := NewEngine(0, 0)
	shs, _ := loggers(src, 3)
	src.now = 1000
	for i, at := range []Cycle{1000, 3, 997} {
		shs[i].asleep, shs[i].wakeAt = true, at // State reads the flags only
	}
	dst := NewEngine(0, 0)
	dhs, log := loggers(dst, 3)
	roundTrip(t, src, dst)
	dhs[2].Wake()
	dhs[2].Sleep()
	dst.Step()
	if want := []tickRec{{1000, 0}, {1000, 1}}; !slices.Equal(*log, want) {
		t.Fatalf("tick log %v, want %v", *log, want)
	}
}
