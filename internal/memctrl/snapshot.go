package memctrl

import (
	"pushmulticast/internal/noc"
	"pushmulticast/internal/snapshot"
)

// State describes the controller: queued requests, channel occupancy,
// maturing responses, undrained outbox, and the memory image.
func (mc *Ctrl) State(c *snapshot.Codec) {
	c.Section("memctrl.ctrl")
	pkt := func(pp **noc.Packet) { mc.ni.Packet(c, pp) }
	snapshot.Slice(c, &mc.inq, pkt)
	snapshot.AsU64(c, &mc.busyUntil)
	snapshot.Slice(c, &mc.resps, func(rp *pendingResp) {
		snapshot.AsU64(c, &rp.at)
		rp.msg.State(c)
		snapshot.AsU32(c, &rp.to)
	})
	snapshot.Slice(c, &mc.outbox, pkt)
	snapshot.Map(c, &mc.versions, func(a, v *uint64) { c.U64(a); c.U64(v) })
}
