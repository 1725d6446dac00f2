package sim

import "pushmulticast/internal/snapshot"

// State describes the engine's scheduling state: clock, tick and progress
// counters, executor counters, and each handle's asleep/wake-at pair. It must
// run between Steps (never from inside a tick), when no parallel section is
// staging.
//
// Decoding targets a freshly built engine, which is first normalized to the
// all-awake post-Register state: some components sleep during their
// build-time registration (the checker sleeps until its first scan), and
// applying the snapshot on top of that would corrupt the asleep count and the
// wake heap. Sleeping handles are then put to sleep directly — bypassing
// Handle.sleep's "wake instead when due next cycle" shortcut, which would
// mis-restore a component that was legitimately asleep until now+1 — and
// pushed onto the wake heap. The parallel executor's per-segment awake
// counters need no repair: segsDirty makes the first parallel Step rebuild
// them from the restored asleep flags.
func (e *Engine) State(c *snapshot.Codec) {
	if e.staging {
		panic("sim: snapshot during a parallel section")
	}
	c.Section("sim.engine")
	snapshot.AsU64(c, &e.now)
	c.U64(&e.ticks)
	c.Mark(&e.lastProgress)
	progress := e.lastProgress.Load()
	c.U64(&progress)
	e.lastProgress.Store(progress)
	c.U64(&e.exec.Cycles)
	c.U64(&e.exec.ParallelCycles)
	c.U64(&e.exec.Sections)
	c.U64(&e.exec.Batches)
	c.U64(&e.exec.LaneGroups)
	c.U64(&e.exec.HelperDispatches)
	c.U64(&e.exec.SerialFallbackCycles)
	c.U64(&e.exec.StagedCommits)
	c.Mark(&e.handles)
	c.Count(len(e.handles), "registered components")
	if c.Decoding() {
		for _, h := range e.handles {
			h.asleep, h.wakeAt, h.heapPos = false, NeverWake, -1
		}
		clear(e.wheap)
		e.wheap = e.wheap[:0]
		e.asleepCount = 0
		e.segsDirty = true
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
			if h.wakeAt != NeverWake {
				e.heapPush(h)
			}
		}
	}
}
