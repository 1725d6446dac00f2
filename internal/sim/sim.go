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
//   - Per-cycle counters that accrue while idle (stall cycles, time-window
//     counters) must be reconstructed on wake from the elapsed-cycle delta so
//     sparse and dense runs report identical statistics.
//
// The Engine also provides progress-based deadlock detection: components
// report forward progress via Engine.Progress, and a run aborts with
// ErrDeadlock if no progress is observed for the watchdog window.
package sim

import (
	"errors"
	"fmt"
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
	idx    int     `snap:"-,wiring"` // registration order; ties in the wake heap break on it
	asleep bool
	wakeAt Cycle // NeverWake when sleeping without a scheduled wake
	// heapPos is this handle's index in the engine's wake heap, -1 when the
	// handle is not enqueued.
	heapPos int `snap:"-,derived: position in the rebuilt wake heap"`
}

// Wake marks the component runnable from the current cycle on. Waking an
// already-awake component is a cheap no-op, so producers call it
// unconditionally when handing work over.
func (h *Handle) Wake() {
	if !h.asleep {
		return
	}
	h.asleep = false
	h.eng.asleepCount--
	if h.heapPos >= 0 {
		h.eng.heapRemove(h.heapPos)
	}
	h.wakeAt = NeverWake
}

// WakeAt schedules a wake no later than cycle c, for producers handing over
// work that matures at a known future cycle (waking immediately would only
// buy a no-op tick). An awake component or an earlier scheduled wake is left
// untouched; a c at or before the current cycle degenerates to Wake.
func (h *Handle) WakeAt(c Cycle) {
	if !h.asleep || h.wakeAt <= c {
		return
	}
	if c <= h.eng.now {
		h.Wake()
		return
	}
	h.sleep(c)
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
	if h.eng.dense {
		return // dense reference mode ticks everything every cycle
	}
	// A sleep that would wake next cycle skips no ticks — the component runs
	// at c either way — but costs a heap push now and a heap pop in the next
	// Step. Staying awake is behaviorally identical and cheaper.
	if c <= h.eng.now+1 {
		h.Wake()
		return
	}
	if h.asleep {
		if c == h.wakeAt {
			return
		}
		if h.heapPos >= 0 {
			h.eng.heapRemove(h.heapPos)
		}
	} else {
		h.asleep = true
		h.eng.asleepCount++
	}
	h.wakeAt = c
	if c != NeverWake {
		h.eng.heapPush(h)
	}
}

// Engine drives the simulation. The zero value is not usable; construct with
// NewEngine.
type Engine struct {
	now          Cycle
	handles      []*Handle
	asleepCount  int       `snap:"-,derived: recounted from the asleep flags"`
	wheap        []*Handle `snap:"-,derived: rebuilt from the wake times"` // min-heap on (wakeAt, registration order)
	dense        bool      `snap:"-,config"`
	lastProgress Cycle
	watchdog     Cycle `snap:"-,config"`
	maxCycles    Cycle `snap:"-,config"`
	// failsafe records that maxCycles is the implicit FailsafeMaxCycles
	// ceiling rather than a caller-chosen limit; limit errors then also
	// wrap ErrFailsafe.
	failsafe bool `snap:"-,config"`
	ticks    uint64
}

// FailsafeMaxCycles is the hard cycle ceiling enforced when both the
// watchdog and the explicit cycle limit are disabled. It is far beyond any
// plausible simulation length; its only purpose is to guarantee Run
// terminates.
const FailsafeMaxCycles = Cycle(1) << 40

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
// handle. Components are ticked in registration order and start awake.
func (e *Engine) Register(t Ticker) *Handle {
	h := &Handle{eng: e, comp: t, idx: len(e.handles), wakeAt: NeverWake, heapPos: -1}
	e.handles = append(e.handles, h)
	return h
}

// Now returns the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Ticks returns the total number of component ticks executed so far — the
// scheduler-efficiency metric: a dense run executes components × cycles,
// a wake-driven run only the awake subset.
func (e *Engine) Ticks() uint64 { return e.ticks }

// Progress records that a component made forward progress this cycle (moved a
// flit, retired an instruction, completed a transaction, ...). It feeds the
// deadlock watchdog.
func (e *Engine) Progress() { e.lastProgress = e.now }

// Step advances the simulation by exactly one cycle: due sleepers are woken,
// then every awake component is ticked in registration order. A component
// woken mid-step by an earlier-registered one is ticked in the same cycle; a
// wake from a later-registered one takes effect next cycle, which matches
// dense behavior because the woken component's tick this cycle would have
// been a no-op (rule 1: the handed-over work is readyAt-stamped).
func (e *Engine) Step() {
	if e.dense {
		e.ticks += uint64(len(e.handles))
		for _, h := range e.handles {
			h.comp.Tick(e.now)
		}
		e.now++
		return
	}
	for len(e.wheap) > 0 && e.wheap[0].wakeAt <= e.now {
		h := e.wheap[0]
		e.heapRemove(0)
		h.asleep = false
		h.wakeAt = NeverWake
		e.asleepCount--
	}
	if e.asleepCount < len(e.handles) {
		for _, h := range e.handles {
			if !h.asleep {
				h.comp.Tick(e.now)
				e.ticks++
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
func (e *Engine) Run(finished func() bool) (Cycle, error) {
	for !finished() {
		if err := e.limitErr(); err != nil {
			return e.now, err
		}
		if !e.dense && len(e.handles) > 0 && e.asleepCount == len(e.handles) {
			if !e.fastForward() {
				return e.now, fmt.Errorf("%w: all components idle with no pending wake at cycle %d", ErrDeadlock, e.now)
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
	stalled := e.watchdog != 0 && e.now-e.lastProgress > e.watchdog
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
	stall := fmt.Errorf("%w: stalled since cycle %d (now %d)", ErrDeadlock, e.lastProgress, e.now)
	if !capped {
		return stall
	}
	return fmt.Errorf("%w; %w", stall, ceiling)
}

// fastForward advances the clock to the earliest scheduled wake, clamped to
// the cycles at which the watchdog or the cycle limit would fire in a dense
// run. It reports false when nothing bounds the jump (no wake scheduled and
// both limits disabled), which is an unrecoverable idle state.
func (e *Engine) fastForward() bool {
	target := NeverWake
	if len(e.wheap) > 0 {
		target = e.wheap[0].wakeAt
	}
	if e.watchdog != 0 {
		if fire := e.lastProgress + e.watchdog + 1; fire < target {
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

// --- wake heap: min-heap on (wakeAt, registration order) ---

func (e *Engine) heapLess(a, b *Handle) bool {
	return a.wakeAt < b.wakeAt || (a.wakeAt == b.wakeAt && a.idx < b.idx)
}

func (e *Engine) heapSwap(i, j int) {
	e.wheap[i], e.wheap[j] = e.wheap[j], e.wheap[i]
	e.wheap[i].heapPos = i
	e.wheap[j].heapPos = j
}

func (e *Engine) heapPush(h *Handle) {
	h.heapPos = len(e.wheap)
	e.wheap = append(e.wheap, h)
	e.heapUp(h.heapPos)
}

// heapRemove removes the handle at heap index i (used both for popping the
// minimum and for canceling a scheduled wake when Wake arrives early).
func (e *Engine) heapRemove(i int) {
	h := e.wheap[i]
	last := len(e.wheap) - 1
	if i != last {
		e.heapSwap(i, last)
	}
	e.wheap[last] = nil
	e.wheap = e.wheap[:last]
	h.heapPos = -1
	if i < last {
		e.heapDown(i)
		e.heapUp(i)
	}
}

func (e *Engine) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.heapLess(e.wheap[i], e.wheap[p]) {
			return
		}
		e.heapSwap(i, p)
		i = p
	}
}

func (e *Engine) heapDown(i int) {
	n := len(e.wheap)
	for {
		small := i
		if l := 2*i + 1; l < n && e.heapLess(e.wheap[l], e.wheap[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && e.heapLess(e.wheap[r], e.wheap[small]) {
			small = r
		}
		if small == i {
			return
		}
		e.heapSwap(i, small)
		i = small
	}
}
