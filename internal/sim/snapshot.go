package sim

import "pushmulticast/internal/snapshot"

// State describes the engine's machine state: the clock and the watchdog's
// last-progress cycle, written settled (a sleeper's ProgressThrough counts up
// to the cycle before the barrier, as a dense run's ticks did). Which
// components sleep, and until when, is scheduling state: the dense kernel
// ticks every component every cycle and runs the same machine. So decoding,
// which targets a freshly built engine, wakes every handle — cancelling
// whatever the build filed — and each component decides on its first tick
// whether to sleep, as it does every cycle in dense mode. It must run between
// Steps (never from inside a tick).
func (e *Engine) State(c *snapshot.Codec) {
	c.Section("sim.engine")
	snapshot.AsU64(c, &e.now)
	if !c.Decoding() {
		e.lastProgress = e.progress()
	}
	snapshot.AsU64(c, &e.lastProgress)
	if c.Decoding() {
		e.progressTo = 0
		for _, h := range e.handles {
			h.Wake()
		}
	}
}
