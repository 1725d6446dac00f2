package fault

import "pushmulticast/internal/snapshot"

// State describes the injector's schedule position and the per-port arrival
// clamp. The per-kind fault indexes are rebuilt from the plan by NewInjector
// (the plan is part of the config fingerprint); the per-node stat
// accumulators must already be flushed — collection points call FlushStats
// before snapshotting.
func (in *Injector) State(c *snapshot.Codec) {
	for n := range in.jitterDelay {
		if in.jitterDelay[n] != 0 || in.filterSuppressed[n] != 0 {
			panic("fault: snapshot with unflushed stat accumulators")
		}
	}
	c.Section("fault.injector")
	c.U64(&in.next)
	c.Mark(&in.lastArr)
	c.Count(len(in.lastArr), "fault-clamped ports")
	for i := range in.lastArr {
		snapshot.AsU64(c, &in.lastArr[i])
	}
}
