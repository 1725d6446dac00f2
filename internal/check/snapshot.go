package check

import (
	"cmp"

	"pushmulticast/internal/snapshot"
)

// State describes the monitor's sweep schedule and in-flight tracking state.
// A monitor with a sticky violation refuses to snapshot — the run is about to
// abort, and forking from a corrupted state would be meaningless.
func (m *Monitor) State(c *snapshot.Codec) {
	if m.err != nil {
		panic("check: snapshot with a sticky violation")
	}
	c.Section("check.monitor")
	snapshot.AsU64(c, &m.nextScan)
	if c.Same(m.ordered, "OrdPush tracking") {
		c.Mark(&m.seq)
		c.Count(len(m.seq), "injection serials")
		c.U64s(m.seq)
		tracks := func(id *uint64, t *pktTrack) {
			c.U64(id)
			c.U64(&t.addr)
			snapshot.AsU32(c, &t.src)
			c.U64(&t.seq)
			c.U64s(t.left[:])
		}
		snapshot.Map(c, &m.pushes, tracks)
		snapshot.Map(c, &m.invs, tracks)
		if c.Decoding() {
			pushes := m.pushes
			m.pushes, m.pushLines = make(map[uint64]pktTrack, len(pushes)), make(map[uint64]uint64)
			for id, p := range pushes {
				m.linkPush(id, p)
			}
		}
	}
	if c.Same(m.lossy, "loss tracking") {
		snapshot.MapFunc(c, &m.pendingLoss, func(a, b lossKey) int {
			return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.key, b.key))
		}, func(k *lossKey, at *uint64) {
			snapshot.AsU32(c, &k.node)
			c.U64(&k.key)
			c.U64(at)
		})
		snapshot.Map(c, &m.lossRef, func(k *uint64, n *int) { c.U64(k); c.Int(n) })
		snapshot.Map(c, &m.lossSeq, func(k, seq *uint64) { c.U64(k); c.U64(seq) })
	}
}
