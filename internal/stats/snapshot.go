package stats

import "pushmulticast/internal/snapshot"

// State describes the stats bundle.
func (a *All) State(c *snapshot.Codec) {
	c.Section("stats.all")
	n := &a.Net
	c.Mark(&n.LinkFlits)
	c.Count(len(n.LinkFlits), "link counters")
	c.U64s(n.LinkFlits)
	c.U64s(n.TotalFlitsByClass[:])
	for _, byUnit := range []*[NumUnits][NumClasses]uint64{
		&n.InjectedFlits, &n.EjectedFlits, &n.InjectedPackets,
	} {
		for u := range byUnit {
			c.U64s(byUnit[u][:])
		}
	}
	c.U64(&n.FilteredRequests)
	c.U64(&n.StalledInvCycles)
	c.U64(&n.MulticastReplicas)
	c.U64(&n.PacketLatencySum)
	c.U64(&n.PacketCount)
	c.U64(&n.InjRefused)
	c.U64(&n.FaultWindows)
	c.U64(&n.FaultJitterDelay)
	c.U64(&n.FaultFilterSuppressed)
	c.U64(&n.MsgDropped)
	c.U64(&n.Retransmits)
	c.U64(&n.DupSuppressed)
	c.U64(&n.CorruptDetected)

	h := &a.Cache
	c.U64(&h.L1Misses)
	c.U64(&h.L2Misses)
	c.U64(&h.L2Evictions)
	c.U64(&h.LLCAccesses)
	c.U64(&h.LLCMisses)
	c.U64s(h.PushOutcomes[:])
	c.U64(&h.PushesTriggered)
	c.U64(&h.PushDestinations)
	c.U64(&h.PausedPushRequests)
	c.U64(&h.CoalescedRequests)
	c.U64(&h.MemReads)
	c.U64(&h.MemWrites)
	c.U64(&h.MSHRTimeouts)

	c.U64(&a.Core.Instructions)
	c.U64(&a.Core.Cycles)
	c.U64(&a.Core.Loads)
	c.U64(&a.Core.Stores)
	c.U64(&a.Core.StallCycles)

	snapshot.Map(c, &a.SharerGaps, func(k *int, r **GapReservoir) {
		if c.Decoding() {
			*r = new(GapReservoir)
		}
		c.Int(k)
		c.U64(&(*r).Seen)
		c.U64(&(*r).rng)
		snapshot.Slice(c, &(*r).Samples, c.U64)
	})
}
