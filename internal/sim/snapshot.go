package sim

import "pushmulticast/internal/snapshot"

// State describes the engine's scheduling state: clock, tick and progress
// counters, and each handle's asleep/wake-at pair. It must run between Steps
// (never from inside a tick).
//
// Decoding targets a freshly built engine, which is first normalized to the
// all-awake post-Register state: some components sleep during their
// build-time registration (the checker sleeps until its first scan), and
// applying the snapshot on top of that would corrupt the asleep count and the
// filed wakes. Sleeping handles are then put to sleep directly — bypassing
// Handle.sleep's "wake instead when due next cycle" shortcut, which would
// mis-restore a component that was legitimately asleep until now+1 — and
// their wakes filed by wheel slot or in the overflow list as sleep would. A
// wake time before the clock, which no run produces, is due at once.
func (e *Engine) State(c *snapshot.Codec) {
	c.Section("sim.engine")
	snapshot.AsU64(c, &e.now)
	c.U64(&e.ticks)
	snapshot.AsU64(c, &e.lastProgress)
	c.Mark(&e.handles)
	c.Count(len(e.handles), "registered components")
	if c.Decoding() {
		for _, h := range e.handles {
			h.Wake() // cancels whatever the build filed
		}
	}
	for _, h := range e.handles {
		c.Bool(&h.asleep)
		snapshot.AsU64(c, &h.wakeAt)
		switch {
		case !c.Decoding():
		case !h.asleep:
			h.wakeAt = NeverWake // an awake handle's stale wake time is not state
		default:
			e.asleepCount++
			e.awake[h.idx>>6] &^= 1 << (h.idx & 63)
			if h.wakeAt != NeverWake {
				h.wakeAt = max(h.wakeAt, e.now)
				e.file(h)
			}
		}
	}
}
