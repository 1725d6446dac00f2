package prefetch

import "pushmulticast/internal/snapshot"

// State describes the Bingo prefetcher: active accumulation regions (in
// tracking order — LRU commit decisions depend on it), the pattern history
// table with its FIFO order slice in full (it is the eviction schedule), and
// the issue counters.
func (b *Bingo) State(c *snapshot.Codec) {
	c.Section("prefetch.bingo")
	snapshot.Slice(c, &b.active, func(a *bingoRegion) {
		c.U64(&a.region)
		c.U64(&a.footprint)
		snapshot.AsU64(c, &a.lastUse)
	})
	snapshot.Slice(c, &b.phtOrder, c.U64)
	snapshot.Map(c, &b.pht, func(region, footprint *uint64) { c.U64(region); c.U64(footprint) })
	c.U64(&b.issued)
	c.U64(&b.useful)
}

// State describes the stride prefetcher's stream table verbatim.
func (s *Stride) State(c *snapshot.Codec) {
	c.Section("prefetch.stride")
	c.Mark(&s.entries)
	c.Count(len(s.entries), "stride streams")
	for i := range s.entries {
		e := &s.entries[i]
		c.U64(&e.lastAddr)
		c.I64(&e.stride)
		c.Int(&e.conf)
		snapshot.AsU64(c, &e.lastUse)
		c.Bool(&e.valid)
	}
	c.U64(&s.issued)
}
