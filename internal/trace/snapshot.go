package trace

import "pushmulticast/internal/snapshot"

// State describes the tracer: running hash, event count, and the retained
// ring, oldest event first. The checker's list must be empty — the checker
// is registered last and woken on every emission, so between engine Steps it
// has judged every emitted event; a non-empty list means the snapshot point
// is not a cycle barrier.
func (t *Tracer) State(c *snapshot.Codec) {
	if len(t.cycle) != 0 {
		panic("trace: snapshot with events the checker has not judged")
	}
	c.Section("trace.tracer")
	c.U64(&t.hash)
	c.U64(&t.count)
	slots := cap(t.ring)
	c.Count(slots, "trace ring slots")
	// Rotate a wrapped ring to start at index 0: the same state, the layout
	// decoding produces, and what makes two tracers in the same state
	// serialize identically wherever their write positions sat.
	if t.next != 0 {
		t.ring, t.next = t.Tail(), 0
	}
	snapshot.Slice(c, &t.ring, func(e *Event) {
		c.U64(&e.Cycle)
		c.U64(&e.Addr)
		c.U64(&e.ID)
		c.U64s(e.Aux[:])
		snapshot.AsU8(c, &e.Kind)
		snapshot.AsU32(c, &e.Node)
		snapshot.AsU32(c, &e.A)
		snapshot.AsU32(c, &e.B)
	})
	if len(t.ring) > slots {
		c.Corrupt("trace tail of %d events in a %d-slot ring", len(t.ring), slots)
	}
}
