package check

import (
	"slices"

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
		snapshot.Map(c, &m.tracks, func(id *uint64, t *pktTrack) {
			c.U64(id)
			c.U64(&t.addr)
			snapshot.AsU32(c, &t.src)
			c.Bool(&t.push)
			c.U64(&t.seq)
			c.U64s(t.left[:])
		})
		if c.Decoding() {
			var pushes []uint64
			for id, p := range m.tracks {
				if p.push {
					pushes = append(pushes, id)
				}
			}
			slices.Sort(pushes)
			for _, id := range pushes {
				m.linkPush(id, m.tracks[id])
			}
		}
	}
	if c.Same(m.lossy, "loss tracking") {
		snapshot.Slice(c, &m.open, func(o *obligation) {
			snapshot.AsU32(c, &o.node)
			c.U64(&o.key)
			c.U64(&o.at)
		})
		// The list travels in (node, key) order, each obligation once.
		for i, o := range m.open {
			if !c.Decoding() {
				break
			}
			if o.node < 0 || int(o.node) >= m.cfg.Tiles() {
				c.Corrupt("loss obligation at tile %d, past the %d-tile mesh", o.node, m.cfg.Tiles())
			} else if i > 0 && compareObligations(m.open[i-1], o) >= 0 {
				c.Corrupt("loss obligations (tile %d, key %#x), (tile %d, key %#x) out of order or repeated",
					m.open[i-1].node, m.open[i-1].key, o.node, o.key)
			}
		}
		snapshot.Map(c, &m.lossSeq, func(k, seq *uint64) { c.U64(k); c.U64(seq) })
	}
}
