package coherence

import "pushmulticast/internal/snapshot"

// State describes a message held outside a packet (a memory controller's
// maturing response) exactly as a packet's message travels: a presence byte,
// which the build fixes here, then the ten fields.
func (m *Msg) State(c *snapshot.Codec) {
	c.Same(true, "held message presence")
	snapshot.AsU8(c, &m.Type)
	c.U64(&m.Addr)
	snapshot.AsU32(c, &m.Requester)
	c.U64(&m.Version)
	c.U32(&m.Epoch)
	c.Bool(&m.NeedPush)
	c.Bool(&m.Reset)
	c.Bool(&m.Prefetch)
	c.Bool(&m.Recall)
	c.Bool(&m.Private)
}
