// Package sim provides the deterministic cycle-driven simulation kernel that
// every other subsystem plugs into.
//
// Components register as Tickers and are ticked in registration order.
// Determinism comes from two rules every component follows:
//
//  1. A component only consumes an item whose readyAt stamp is <= the current
//     cycle, so same-cycle pass-through cannot depend on tick order.
//  2. Components never spawn goroutines; all state lives behind the single
//     simulation thread.
//
// The kernel is wake-driven: a component that has no pending work reports
// itself quiescent through its registration Handle (Sleep, or SleepUntil when
// the next event time is known), and anything that hands it new work calls
// Wake. The engine ticks only awake components, and Run fast-forwards the
// clock to the earliest scheduled wake when every component is asleep,
// skipping idle cycles entirely. Because a quiescent component's tick is by
// contract a no-op, a wake-driven run produces cycle counts and statistics
// identical to the dense reference mode (SetDense), which still ticks every
// component every cycle and exists as the cross-check oracle.
//
// The quiescence contract a component must follow to sleep safely:
//
//   - Sleep/SleepUntil only when every tick until the wake point would be a
//     no-op absent external input: no queued work, no in-flight stream, no
//     matured events. SleepUntil(c) declares the earliest cycle at which
//     internally scheduled work (a delay queue entry, a pending completion)
//     matures.
//   - Every producer that hands a sleeping component work must Wake it:
//     packet receive, queue injection, buffer claim, barrier release,
//     completion callbacks. A spurious Wake is harmless (the tick no-ops and
//     the component re-sleeps); a missed Wake diverges from the dense oracle.
//   - WakeAt(c) hands over work that matures at c. On a sleeping handle any
//     c after the current cycle is filed, the next cycle included, so a
//     consumer registered after its producer does not tick this cycle for
//     nothing; only a component's own SleepUntil(now+1) keeps it awake.
//   - Per-cycle counters that accrue while idle (stall cycles, time-window
//     counters) must be reconstructed on wake from the elapsed-cycle delta so
//     sparse and dense runs report identical statistics. A snapshot writes
//     such a counter settled to the cycle before its barrier, as a dense run
//     holds it. The same holds for work a component sleeps through because
//     its outcome is certain (a core retiring compute, a router moving body
//     flits): it settles the skipped cycles where its state is read, and
//     declares the certain progress with ProgressThrough so the watchdog and
//     the snapshot see the last-progress cycle a dense run would.
//
// Scheduling state is not machine state. Which components sleep, their wake
// times and Ticks differ between the two kernels, which run the same machine;
// a snapshot carries the clock and the watchdog's last-progress cycle only,
// and a restored engine starts with every component awake and Ticks at zero.
//
// The Engine also provides progress-based deadlock detection: components
// report forward progress via Engine.Progress, and a run aborts with
// ErrDeadlock if no progress is observed for the watchdog window.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Cycle is a simulation timestamp in core clock cycles.
type Cycle uint64

// NeverWake is the wake time of a sleeping component with no scheduled work;
// only an explicit Wake can make it runnable again.
const NeverWake = ^Cycle(0)

// Ticker is the hook every simulated component implements. Tick is invoked
// once per simulated cycle while the component is awake (every cycle in
// dense mode).
type Ticker interface {
	Tick(now Cycle)
}

// TickFunc adapts an ordinary function to the Ticker interface.
type TickFunc func(now Cycle)

// Tick implements Ticker.
func (f TickFunc) Tick(now Cycle) { f(now) }

// ErrDeadlock is returned by Run when the watchdog window elapses without any
// component reporting progress while the simulation is not finished.
var ErrDeadlock = errors.New("sim: no forward progress (deadlock)")

// ErrMaxCycles is returned by Run when the cycle limit is hit before the
// finished predicate reports completion.
var ErrMaxCycles = errors.New("sim: cycle limit exceeded")

// ErrFailsafe additionally marks a cycle-limit error when the limit that
// fired was the implicit FailsafeMaxCycles ceiling (both watchdog and
// explicit limit disabled), distinguishing "the run outlived its configured
// budget" from "nothing was configured to stop it".
var ErrFailsafe = errors.New("sim: implicit failsafe ceiling")

// Handle is a component's registration with the engine. It carries the
// component's scheduling state; components use it to report quiescence and
// producers use it to wake consumers.
type Handle struct {
	eng    *Engine `snap:"-,wiring"`
	comp   Ticker  `snap:"-,wiring"`
	idx    int     `snap:"-,wiring"` // registration order: the handle's bit in the awake words and in every wheel slot
	asleep bool    `snap:"-,scheduling: every handle restores awake"`
	wakeAt Cycle   `snap:"-,scheduling: every handle restores awake"` // NeverWake when sleeping without a scheduled wake
	// ticks counts the component's ticks (Engine.Ticks sums them).
	ticks uint64 `snap:"-,host counter: restarts at restore"`
}

// Wake marks the component runnable from the current cycle on. Waking an
// already-awake component is a cheap no-op, so producers call it
// unconditionally when handing work over.
func (h *Handle) Wake() {
	if !h.asleep {
		return
	}
	e := h.eng
	h.asleep = false
	e.asleepCount--
	e.awake[h.idx>>6] |= 1 << (h.idx & 63)
	if h.wakeAt != NeverWake {
		e.unfile(h)
		h.wakeAt = NeverWake
	}
}

// WakeAt schedules a wake no later than cycle c, for producers handing over
// work that matures at a known future cycle (waking immediately would only
// buy a no-op tick). An awake component or an earlier scheduled wake is left
// untouched; a c at or before the current cycle degenerates to Wake. Any
// later c is filed, the next cycle included: a sleeper registered after its
// producer would otherwise tick this cycle for nothing.
func (h *Handle) WakeAt(c Cycle) {
	if !h.asleep || h.wakeAt <= c {
		return
	}
	if c <= h.eng.now {
		h.Wake()
		return
	}
	if h.wakeAt != NeverWake {
		h.eng.unfile(h)
	}
	h.wakeAt = c
	h.eng.file(h)
}

// Sleep reports that the component has no pending work at all; only an
// explicit Wake makes it runnable again.
func (h *Handle) Sleep() { h.sleep(NeverWake) }

// SleepUntil reports that the component's earliest internally scheduled work
// matures at cycle c; the engine guarantees a tick at c (or earlier, after a
// Wake). A wake time at or before the current cycle keeps the component
// awake.
func (h *Handle) SleepUntil(c Cycle) {
	if c <= h.eng.now {
		return
	}
	h.sleep(c)
}

func (h *Handle) sleep(c Cycle) {
	e := h.eng
	if e.dense {
		return // dense reference mode ticks everything every cycle
	}
	// A component's own sleep that would wake next cycle skips no ticks — it
	// runs at c either way — but costs a filing now and a drain in the next
	// Step. Staying awake is behaviorally identical and cheaper.
	if c <= e.now+1 {
		h.Wake()
		return
	}
	if h.asleep {
		if c == h.wakeAt {
			return
		}
		if h.wakeAt != NeverWake {
			e.unfile(h)
		}
	} else {
		h.asleep = true
		e.asleepCount++
		e.awake[h.idx>>6] &^= 1 << (h.idx & 63)
	}
	h.wakeAt = c
	if c != NeverWake {
		e.file(h)
	}
}

// Engine drives the simulation. The zero value is not usable; construct with
// NewEngine.
type Engine struct {
	now         Cycle
	handles     []*Handle `snap:"-,wiring: registered by the build"`
	asleepCount int       `snap:"-,scheduling: every handle restores awake"`
	// awake has bit i set while handles[i] is awake. Step walks it low to
	// high, which is registration order.
	awake []uint64 `snap:"-,scheduling: every handle restores awake"`
	// wheel files every scheduled wake, however far ahead: slot
	// wakeAt%wheelSlots is a stride-word copy of the awake layout with the bit
	// of every handle whose wake maps to it. A slot may hold several laps
	// (cycles wheelSlots apart); the handle's wakeAt tells them apart.
	// slotCount and slotMask (the slots with a non-zero count) let Step skip
	// an empty slot and fastForward find the next wake with a bit scan.
	wheel        []uint64                `snap:"-,scheduling: restores empty"`
	stride       int                     `snap:"-,derived: the awake word count the wheel is laid out for"`
	slotCount    [wheelSlots]int32       `snap:"-,scheduling: restores empty"`
	slotMask     [wheelSlots / 64]uint64 `snap:"-,scheduling: restores empty"`
	dense        bool                    `snap:"-,config"`
	lastProgress Cycle
	// progressTo is the last cycle through which a sleeping component's
	// progress is certain (ProgressThrough); progress reads it settled.
	progressTo Cycle `snap:"-,scheduling: written settled into lastProgress"`
	watchdog   Cycle `snap:"-,config"`
	maxCycles  Cycle `snap:"-,config"`
	// failsafe records that maxCycles is the implicit FailsafeMaxCycles
	// ceiling rather than a caller-chosen limit; limit errors then also
	// wrap ErrFailsafe.
	failsafe bool `snap:"-,config"`
}

// FailsafeMaxCycles is the hard cycle ceiling enforced when both the
// watchdog and the explicit cycle limit are disabled. It is far beyond any
// plausible simulation length; its only purpose is to guarantee Run
// terminates.
const FailsafeMaxCycles = Cycle(1) << 40

// wheelSlots is the timing wheel's lap in cycles. Nine in ten timed sleeps of
// a mesh run are under 8 cycles ahead. Those that reach 256 share their slot
// with nearer laps' wakes, and Step passes over them until their lap comes: a
// core sleeping through a long compute op (55 per cachebw tiny/64 run, 315
// per swaptions or blackscholes quick/64 run), the lossy transport's timers
// (300, 400), and a checker told to scan less often than its default 64
// cycles.
const wheelSlots = 256

// NewEngine returns a wake-driven engine with the given watchdog window and
// cycle limit. A watchdog of 0 disables deadlock detection; a maxCycles of 0
// means no explicit cycle limit. Disabling both would let Run spin forever
// on a system that keeps scheduling wakes without ever finishing, so in
// that case the engine applies FailsafeMaxCycles as a hard ceiling; a run
// reaching it fails with ErrMaxCycles.
func NewEngine(watchdog, maxCycles Cycle) *Engine {
	failsafe := watchdog == 0 && maxCycles == 0
	if failsafe {
		maxCycles = FailsafeMaxCycles
	}
	return &Engine{watchdog: watchdog, maxCycles: maxCycles, failsafe: failsafe}
}

// SetDense switches the engine to the dense reference mode, which ticks every
// component every cycle and ignores quiescence reports. It must be called
// before the first Step. Dense runs are the equivalence oracle for the
// wake-driven scheduler: both modes produce identical cycle counts and stats.
func (e *Engine) SetDense(dense bool) { e.dense = dense }

// Register adds a component to the tick list and returns its scheduling
// handle. Components are ticked in registration order and start awake. It
// must not be called from inside a tick: Step holds the awake words.
func (e *Engine) Register(t Ticker) *Handle {
	h := &Handle{eng: e, comp: t, idx: len(e.handles), wakeAt: NeverWake}
	e.handles = append(e.handles, h)
	if h.idx&63 == 0 {
		e.awake = append(e.awake, 0)
	}
	e.awake[h.idx>>6] |= 1 << (h.idx & 63)
	return h
}

// Now returns the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Ticks returns the number of component ticks this engine has executed — the
// scheduler-efficiency metric: a dense run executes components × cycles, a
// wake-driven run only the awake subset. It is a host counter, not machine
// state: it differs between the kernels, no snapshot carries it, and it
// restarts at zero in a restored engine.
func (e *Engine) Ticks() uint64 {
	var n uint64
	for _, h := range e.handles {
		n += h.ticks
	}
	return n
}

// ComponentTicks calls f with every registered component, in registration
// order, and the number of times it has ticked: Ticks broken down, for
// reporting where a run's ticks go.
func (e *Engine) ComponentTicks(f func(t Ticker, ticks uint64)) {
	for _, h := range e.handles {
		f(h.comp, h.ticks)
	}
}

// Progress records that a component made forward progress this cycle (moved a
// flit, retired an instruction, completed a transaction, ...). It feeds the
// deadlock watchdog.
func (e *Engine) Progress() { e.lastProgress = e.now }

// ProgressThrough records forward progress that is certain in every cycle up
// to and including c, for a component that sleeps through cycles a dense run
// would tick it in to make progress (retiring compute, moving body flits).
// The watchdog and the snapshot see it cycle by cycle as the clock passes.
func (e *Engine) ProgressThrough(c Cycle) {
	if c > e.progressTo {
		e.progressTo = c
	}
}

// progress returns the last-progress cycle a dense run holds between steps:
// lastProgress, or the part of progressTo the clock has passed.
func (e *Engine) progress() Cycle {
	if e.progressTo > e.lastProgress && e.now > 0 {
		return max(e.lastProgress, min(e.progressTo, e.now-1))
	}
	return e.lastProgress
}

// Step advances the simulation by exactly one cycle: due sleepers are woken,
// then every awake component is ticked in registration order. A component
// woken mid-step by an earlier-registered one is ticked in the same cycle; a
// wake from a later-registered one takes effect next cycle, which matches
// dense behavior because the woken component's tick this cycle would have
// been a no-op (rule 1: the handed-over work is readyAt-stamped).
func (e *Engine) Step() {
	if e.dense {
		for _, h := range e.handles {
			h.comp.Tick(e.now)
			h.ticks++
		}
		e.now++
		return
	}
	if s := int(e.now % wheelSlots); e.slotCount[s] != 0 {
		slot, now, woken := e.wheel[s*e.stride:(s+1)*e.stride], e.now, 0
		for w, filed := range slot {
			for ; filed != 0; filed &= filed - 1 {
				// A later lap's wake shares the slot and stays filed.
				if h := e.handles[w<<6|bits.TrailingZeros64(filed)]; h.wakeAt == now {
					bit := filed & -filed
					slot[w] &^= bit
					e.awake[w] |= bit
					h.asleep, h.wakeAt = false, NeverWake
					woken++
				}
			}
		}
		e.asleepCount -= woken
		if e.slotCount[s] -= int32(woken); e.slotCount[s] == 0 {
			e.slotMask[s>>6] &^= 1 << (s & 63)
		}
	}
	if e.asleepCount < len(e.handles) {
		awake, handles, now := e.awake, e.handles, e.now
		for w := range awake {
			// The word is read again after every tick: a tick may wake or put
			// to sleep any handle, and only the ones above it still count for
			// this cycle.
			for m := awake[w]; m != 0; {
				b := bits.TrailingZeros64(m)
				h := handles[w<<6|b]
				h.comp.Tick(now)
				h.ticks++
				m = awake[w] & (^uint64(1) << b)
			}
		}
	}
	e.now++
}

// Run advances the simulation until finished() reports true. It returns the
// cycle at which the simulation finished, or an error if the watchdog fires
// or the cycle limit is exceeded. When every component is asleep, the clock
// fast-forwards to the earliest scheduled wake instead of spinning through
// empty cycles; the jump is clamped so the watchdog and the cycle limit fire
// at exactly the cycle a dense run would report.
func (e *Engine) Run(finished func() bool) (Cycle, error) { return e.RunTo(NeverWake, finished) }

// RunTo is Run that also stops when the clock reaches barrier, before
// consulting finished there. A fast-forward is clamped to the barrier too, so
// a run paused there stops at exactly the cycle a dense run does, even when
// every component sleeps across it.
func (e *Engine) RunTo(barrier Cycle, finished func() bool) (Cycle, error) {
	for e.now < barrier && !finished() {
		if err := e.limitErr(); err != nil {
			return e.now, err
		}
		if !e.dense && len(e.handles) > 0 && e.asleepCount == len(e.handles) {
			if !e.fastForward(barrier) {
				return e.now, fmt.Errorf("%w: all components idle with no pending wake at cycle %d", ErrDeadlock, e.now)
			}
			if e.now >= barrier {
				break
			}
			if err := e.limitErr(); err != nil {
				return e.now, err
			}
		}
		e.Step()
	}
	return e.now, nil
}

// limitErr evaluates both run limits against the current cycle and builds an
// unambiguous error. A fast-forward can land on a cycle where the watchdog
// window AND the cycle limit have both elapsed; reporting only whichever
// check ran first (as earlier versions did) made the same stall look like a
// deadlock or a budget overrun depending on limit configuration. Both causes
// are now reported, each matchable with errors.Is, with the deadlock — the
// diagnosis that names the stall — leading the message.
func (e *Engine) limitErr() error {
	last := e.progress()
	stalled := e.watchdog != 0 && e.now-last > e.watchdog
	capped := e.maxCycles != 0 && e.now >= e.maxCycles
	if !stalled && !capped {
		return nil
	}
	var ceiling error
	if capped {
		if e.failsafe {
			ceiling = fmt.Errorf("%w (%w) at cycle %d", ErrMaxCycles, ErrFailsafe, e.now)
		} else {
			ceiling = fmt.Errorf("%w at cycle %d", ErrMaxCycles, e.now)
		}
	}
	if !stalled {
		return ceiling
	}
	stall := fmt.Errorf("%w: stalled since cycle %d (now %d)", ErrDeadlock, last, e.now)
	if !capped {
		return stall
	}
	return fmt.Errorf("%w; %w", stall, ceiling)
}

// fastForward advances the clock to the earliest scheduled wake, clamped to
// the cycles at which the watchdog or the cycle limit would fire in a dense
// run and to the caller's barrier. It reports false when nothing bounds the
// jump (no wake scheduled, both limits disabled and no barrier), which is an
// unrecoverable idle state.
func (e *Engine) fastForward(barrier Cycle) bool {
	target := min(e.nextWake(), barrier)
	if e.watchdog != 0 {
		// Nothing ticks before target, so progress is last certain at the
		// later of the two stamps.
		if fire := max(e.lastProgress, e.progressTo) + e.watchdog + 1; fire < target {
			target = fire
		}
	}
	if e.maxCycles != 0 && e.maxCycles < target {
		target = e.maxCycles
	}
	if target == NeverWake {
		return false
	}
	if target > e.now {
		e.now = target
	}
	return true
}

// --- scheduled wakes: a hashed timing wheel ---

// file records h's scheduled wake (h.wakeAt, not NeverWake) in its wheel
// slot, whatever its lap.
func (e *Engine) file(h *Handle) {
	if e.stride != len(e.awake) {
		e.layWheel()
	}
	s := int(h.wakeAt % wheelSlots)
	e.wheel[s*e.stride+h.idx>>6] |= 1 << (h.idx & 63)
	e.slotCount[s]++
	e.slotMask[s>>6] |= 1 << (s & 63)
}

// unfile cancels h's scheduled wake, for a Wake that arrives early or a
// sleeper that is given another wake time.
func (e *Engine) unfile(h *Handle) {
	s := int(h.wakeAt % wheelSlots)
	e.wheel[s*e.stride+h.idx>>6] &^= 1 << (h.idx & 63)
	if e.slotCount[s]--; e.slotCount[s] == 0 {
		e.slotMask[s>>6] &^= 1 << (s & 63)
	}
}

// layWheel allocates the wheel for the handles registered so far, on the
// first filing: a machine registers everything before it runs, so this
// happens once. A Register that adds an awake word after that re-lays it.
func (e *Engine) layWheel() {
	words := len(e.awake)
	wheel := make([]uint64, wheelSlots*words)
	for s := 0; s < wheelSlots && e.stride != 0; s++ {
		copy(wheel[s*words:], e.wheel[s*e.stride:(s+1)*e.stride])
	}
	e.wheel, e.stride = wheel, words
}

// nextWake returns the earliest scheduled wake, NeverWake when there is
// none. It goes round the wheel once from now's slot: the first wake due in
// this lap is the answer, and failing one, the earliest of the later laps'.
// Every filed wake is at or after now, so a wake in the slot d cycles on is
// due in this lap exactly when it falls at now+d.
func (e *Engine) nextWake() Cycle {
	later := NeverWake
	for d := Cycle(0); d < wheelSlots; d++ {
		s := int((e.now + d) % wheelSlots)
		m := e.slotMask[s>>6] >> (s & 63)
		if m == 0 {
			d += Cycle(63 - s&63)
			continue
		}
		if d += Cycle(bits.TrailingZeros64(m)); d >= wheelSlots {
			break // the scan wrapped onto slots already visited
		}
		s = int((e.now + d) % wheelSlots)
		for w, filed := range e.wheel[s*e.stride : (s+1)*e.stride] {
			for ; filed != 0; filed &= filed - 1 {
				at := e.handles[w<<6|bits.TrailingZeros64(filed)].wakeAt
				if at == e.now+d {
					return at
				}
				later = min(later, at)
			}
		}
	}
	return later
}
