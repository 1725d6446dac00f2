package cache

import (
	"pushmulticast/internal/noc"
	"pushmulticast/internal/snapshot"
)

// state describes the array's lines, set by set, way by way. A free way is
// its state byte alone: its stale metadata is never read, so it is not state,
// and leaving it out makes two arrays that behave alike serialize alike
// whatever lines they held before. Decoding targets a freshly built array,
// whose free ways are the zero Line. Geometry comes from the config
// fingerprint, so it is only checked.
func (a *Array) state(c *snapshot.Codec) {
	c.Mark(&a.lines)
	c.Count(a.Sets(), "cache sets")
	c.Count(a.ways, "cache ways")
	for i := range a.lines {
		l := &a.lines[i]
		if snapshot.AsU8(c, &l.State); l.State == StateI {
			continue
		}
		c.U64(&l.Tag)
		c.U64(&l.Version)
		c.Bool(&l.Dirty)
		c.Bool(&l.Pushed)
		c.Bool(&l.Accessed)
		snapshot.AsU64(c, &l.LastUse)
		c.U64s(l.Sharers[:])
		snapshot.AsU32(c, &l.Owner)
		c.U32(&l.Epoch)
	}
	if c.Decoding() {
		a.reindex()
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

// State describes the private cache stack: both arrays, MSHRs and writeback
// entries, queued input, outbox, pending completions, knob counters, and the
// retry-dedup state. Decoding targets a freshly built L2.
func (l2 *L2) State(c *snapshot.Codec) {
	c.Section("cache.l2")
	pkt := func(pp **noc.Packet) { l2.out.ni.Packet(c, pp) }
	c.Mark(&l2.arr)
	l2.arr.state(c)
	c.Mark(&l2.l1)
	c.Mark(&l2.l1.arr)
	l2.l1.arr.state(c)
	snapshot.Map(c, &l2.mshr, func(a *uint64, pm **l2MSHR) {
		if c.Decoding() {
			*pm = l2.newMSHR()
		}
		m := *pm
		c.U64(&m.addr)
		*a = m.addr
		c.Int(&m.loads)
		c.Int(&m.stores)
		snapshot.AsU64(c, &m.issuedAt)
		c.U8(&m.backoff)
		c.Bool(&m.prefetchL1)
		c.Bool(&m.prefetch)
		c.Bool(&m.recallPending)
		c.U32(&m.recallEpoch)
	})
	snapshot.Map(c, &l2.wb, func(a *uint64, pw **wbEntry) {
		if c.Decoding() {
			*pw = new(wbEntry)
		}
		c.U64(a)
		c.Bool(&(*pw).invalidated)
	})
	l2.inq.state(c, pkt)
	snapshot.Slice(c, &l2.out.pkts, pkt)
	snapshot.Slice(c, &l2.pend, func(d *doneEvt) {
		c.U64(&d.addr)
		snapshot.AsU64(c, &d.at)
		c.Bool(&d.store)
	})
	c.U32(&l2.knob.tpc)
	c.U32(&l2.knob.upc)
	noc.Error(c, &l2.dead)
	c.U8(&l2.rejKind)
	c.U64(&l2.rejAddr)
}

// State describes the slice: array + directory, open episodes, fetches,
// stalled packets, queued input, outbox, resume knob, sharer-gap trace
// state, predictor, and the recent-push table. Decoding targets a freshly
// built LLC.
func (s *LLC) State(c *snapshot.Codec) {
	c.Section("cache.llc")
	pkt := func(pp **noc.Packet) { s.out.ni.Packet(c, pp) }
	c.Mark(&s.arr)
	s.arr.state(c)
	snapshot.Map(c, &s.ep, func(a *uint64, pe **episode) {
		if c.Decoding() {
			*pe = new(episode)
		}
		ep := *pe
		c.U64(a)
		snapshot.AsU8(c, &ep.kind)
		c.U32(&ep.epoch)
		c.U64s(ep.pendingAcks[:])
		snapshot.AsU32(c, &ep.writer)
		c.Bool(&ep.evictAfter)
	})
	snapshot.Map(c, &s.fetches, func(a *uint64, pf **fetch) {
		if c.Decoding() {
			*pf = s.newFetch()
		}
		c.U64(a)
		snapshot.Slice(c, &(*pf).requesters, func(rq *fetchReq) {
			snapshot.AsU32(c, &rq.req)
			c.Bool(&rq.prefetch)
		})
	})
	snapshot.Map(c, &s.stalled, func(a *uint64, pkts *[]*noc.Packet) {
		c.U64(a)
		snapshot.Slice(c, pkts, pkt)
	})
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
		// order may hold stale or duplicate keys (predict consumes entries
		// without touching it), so both structures travel in full.
		snapshot.Slice(c, &s.pred.order, c.U64)
		snapshot.Map(c, &s.pred.entries, func(a *uint64, d *noc.DestSet) {
			c.U64(a)
			c.U64s(d[:])
		})
	}
	for i := range s.recent {
		e := &s.recent[i]
		c.U64(&e.addr)
		c.U64s(e.dests[:])
		snapshot.AsU64(c, &e.until)
		c.Bool(&e.valid)
	}
}
