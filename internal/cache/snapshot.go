package cache

import (
	"cmp"
	"slices"

	"pushmulticast/internal/noc"
	"pushmulticast/internal/snapshot"
)

// state describes the array's lines, set by set, way by way. A free way is
// its state byte alone: its stale metadata is never read, so it is not state,
// and leaving it out makes two arrays that behave alike serialize alike
// whatever lines they held before, and whichever pages are carved, wherever
// in the pool. A valid way is its state byte, its tag, then the rest of its
// line; in a directory array its directory follows, the sharer set as four
// words whatever the mesh size. Decoding targets an array of a freshly built
// machine, whose pages are not carved, carves a set's pages in order through
// the one holding each valid way, and refuses tags audit would refuse.
// Geometry comes from the config fingerprint, so it is only checked.
func (a *Array) state(c *snapshot.Codec) {
	p := a.pool
	c.Mark(&a.pool)
	c.Mark(&p.slabs)
	for k := range p.slabs {
		c.Mark(&p.slabs[k].tags)
		c.Mark(&p.slabs[k].lines)
		c.Mark(&p.slabs[k].dir)
		c.Mark(&p.slabs[k].sharers)
	}
	c.Count(a.Sets(), "cache sets")
	c.Count(a.ways, "cache ways")
	// One state cell and one sharer-set cell serve every way: the codec's
	// primitives take their addresses, so cells declared per way would be a
	// heap object per way.
	var st State
	var s noc.DestSet
	for i := range a.Len() {
		l := a.slot(i)
		if l == nil { // a way of a page not carved
			st = StateI
			if snapshot.AsU8(c, &st); st == StateI {
				continue
			}
			// The set's pages are carved in order, the earlier ones all free.
			for q := i / a.ways * a.setPages; q <= i/a.pageWays; q++ {
				if a.pageOf[q] == 0 {
					a.carve(q)
				}
			}
			l = a.slot(i)
			l.State = st
		} else if snapshot.AsU8(c, &l.State); l.State == StateI {
			continue
		}
		sl, k := a.locate(i)
		c.U64(&sl.tags[k])
		c.U64(&l.Version)
		c.Bool(&l.Dirty)
		c.Bool(&l.Pushed)
		c.Bool(&l.Accessed)
		snapshot.AsU64(c, &l.LastUse)
		if a.sharerWords > 0 {
			d := a.dirOf(sl, k)
			s = d.Sharers()
			c.U64s(s[:])
			if past := s.Subtract(s.Mask(64 * copy(d.words, s[:]))); !past.Empty() {
				c.Corrupt("line %#x has sharer %d past the mesh", sl.tags[k], past.First())
			}
			snapshot.AsU32(c, &d.Owner)
			c.U32(&d.Epoch)
		}
	}
	if c.Decoding() {
		if err := a.audit(); err != nil {
			c.Corrupt("%v", err)
		}
	}
}

// increasing refuses a decoded table whose n addresses, addr(0) to addr(n-1),
// do not strictly increase: the table travels in address order.
func increasing(c *snapshot.Codec, what string, n int, addr func(int) uint64) {
	for i := 1; i < n; i++ {
		if addr(i) <= addr(i-1) {
			c.Corrupt("%s addresses %#x, %#x out of order", what, addr(i-1), addr(i))
		}
	}
}

// state describes the live entries oldest-first; a decoded queue starts
// compacted (head 0), which is invisible — only the live window is ever read.
func (q *delayQueue) state(c *snapshot.Codec, pkt func(**noc.Packet)) {
	c.Mark(&q.items)
	live := q.live()
	snapshot.Slice(c, &live, func(d *delayed) {
		snapshot.AsU64(c, &d.readyAt)
		pkt(&d.pkt)
	})
	if c.Decoding() {
		q.items, q.head = live, 0
	}
}

// State describes the private cache stack: both arrays, MSHRs and the
// writeback buffer, queued input, outbox, pending completions, knob
// counters, and the retry-dedup state. Decoding targets a freshly built L2.
func (l2 *L2) State(c *snapshot.Codec) {
	c.Section("cache.l2")
	pkt := func(pp **noc.Packet) { l2.out.ni.Packet(c, pp) }
	l2.arr.state(c)
	c.Mark(&l2.l1)
	l2.l1.arr.state(c)
	// The live MSHRs travel in address order. Slot order is invisible (every
	// order the controller acts in is address order), so encoding sorts the
	// file in place and a decoded file holds its entries sorted.
	if !c.Decoding() {
		slices.SortFunc(l2.mshr, func(a, b l2MSHR) int { return cmp.Compare(a.addr, b.addr) })
	}
	snapshot.Slice(c, &l2.mshr, func(m *l2MSHR) {
		c.U64(&m.addr)
		c.Int(&m.loads)
		c.Int(&m.stores)
		snapshot.AsU64(c, &m.issuedAt)
		c.U8(&m.backoff)
		c.Bool(&m.prefetchL1)
		c.Bool(&m.prefetch)
		c.Bool(&m.recallPending)
		c.U32(&m.recallEpoch)
	})
	if c.Decoding() {
		if len(l2.mshr) > l2.cfg.L2MSHRs {
			c.Corrupt("%d MSHRs, the file has %d slots", len(l2.mshr), l2.cfg.L2MSHRs)
		}
		increasing(c, "MSHR", len(l2.mshr), func(i int) uint64 { return l2.mshr[i].addr })
	}
	// The writeback buffer is a set: it travels sorted, like the MSHRs.
	if !c.Decoding() {
		slices.Sort(l2.wb)
	}
	snapshot.Slice(c, &l2.wb, c.U64)
	if c.Decoding() {
		increasing(c, "writeback", len(l2.wb), func(i int) uint64 { return l2.wb[i] })
		if err := l2.auditWB(); err != nil {
			c.Corrupt("%v", err)
		}
	}
	l2.inq.state(c, pkt)
	snapshot.Slice(c, &l2.out.pkts, pkt)
	snapshot.Slice(c, &l2.pend, func(d *doneEvt) {
		c.U64(&d.addr)
		snapshot.AsU64(c, &d.at)
		c.Bool(&d.store)
	})
	c.U32(&l2.knob.tpc)
	c.U32(&l2.knob.upc)
	c.U8(&l2.rejKind)
	c.U64(&l2.rejAddr)
}

// State describes the slice: array + directory, transaction table, queued
// input, outbox, resume knob, sharer-gap trace state, predictor, and the
// recent-push table. Decoding targets a freshly built LLC.
func (s *LLC) State(c *snapshot.Codec) {
	c.Section("cache.llc")
	pkt := func(pp **noc.Packet) { s.out.ni.Packet(c, pp) }
	s.arr.state(c)
	// The transaction records travel in address order, as the MSHRs do. A
	// record's kind and episode number are its line's state and epoch, which
	// the array carries.
	if !c.Decoding() {
		slices.SortFunc(s.txns, func(a, b *txn) int { return cmp.Compare(a.addr, b.addr) })
	}
	snapshot.Slice(c, &s.txns, func(pt **txn) {
		if c.Decoding() {
			*pt = new(txn)
		}
		t := *pt
		c.U64(&t.addr)
		c.U64s(t.pending[:])
		snapshot.AsU32(c, &t.writer)
		c.Bool(&t.evict)
		snapshot.Slice(c, &t.readers, func(r *noc.NodeID) { snapshot.AsU32(c, r) })
		snapshot.Slice(c, &t.parked, pkt)
	})
	if c.Decoding() {
		increasing(c, "transaction", len(s.txns), func(i int) uint64 { return s.txns[i].addr })
		if err := s.auditDirectory(s.arr.nextWay); err != nil {
			c.Corrupt("%v", err)
		}
	}
	s.inq.state(c, pkt)
	snapshot.Slice(c, &s.out.pkts, pkt)
	// The resume knob is settled to the cycle before the barrier first, where a
	// dense run holds it, so the slice's last tick does not travel. Settling
	// changes no later phase.
	s.settle(s.eng.Now() - 1)
	c.U64s(s.knob.pdr[:])
	c.Int(&s.knob.counter)
	c.Bool(&s.knob.resume)
	if c.Same(s.traces != nil, "LLC sharer-gap tracing") {
		snapshot.Map(c, &s.traces, func(a *uint64, pt **traceState) {
			if c.Decoding() {
				*pt = new(traceState)
			}
			c.U64(a)
			snapshot.AsU32(c, &(*pt).lastReader)
			snapshot.AsU64(c, &(*pt).lastAt)
		})
	}
	if snapshot.Present(c, &s.pred, "LLC sharer predictor") {
		// order is the entries' FIFO order, which the map cannot carry.
		snapshot.Slice(c, &s.pred.order, c.U64)
		snapshot.Map(c, &s.pred.entries, func(a *uint64, d *noc.DestSet) {
			c.U64(a)
			c.U64s(d[:])
		})
		if c.Decoding() {
			if err := s.pred.audit(); err != nil {
				c.Corrupt("%v", err)
			}
		}
	}
	for i := range s.recent {
		e := &s.recent[i]
		c.U64(&e.addr)
		c.U64s(e.dests[:])
		snapshot.AsU64(c, &e.until)
		c.Bool(&e.valid)
	}
}
