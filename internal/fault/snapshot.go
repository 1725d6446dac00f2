package fault

import "pushmulticast/internal/snapshot"

// State describes the injector's schedule position and the per-port arrival
// clamp. NewInjector rebuilds the fault index from the plan (the plan is part
// of the config fingerprint).
func (in *Injector) State(c *snapshot.Codec) {
	c.Section("fault.injector")
	c.U64(&in.next)
	c.Mark(&in.lastArr)
	c.Count(len(in.lastArr), "fault-clamped ports")
	for i := range in.lastArr {
		snapshot.AsU64(c, &in.lastArr[i])
	}
}
