package noc

import "pushmulticast/internal/snapshot"

// Packet describes a packet held by pointer; the protocol layer uses it for
// the packets in its input queues and outboxes. Decoding draws the packet
// from the network's pool, even if the original was caller-owned: the only
// difference is that the restored copy is recycled when it dies instead of
// surviving for a creator that — being fresh-built — no longer holds it.
func (ni *NI) Packet(c *snapshot.Codec, pp **Packet) {
	c.Mark(pp)
	if c.Decoding() {
		*pp = ni.NewPacket()
	}
	packetState(c, *pp)
}

// packetState describes every packet field except pooled and free, free-list
// bookkeeping with no behavioral meaning; a decoded packet starts zeroed
// (NewPacket above, a fresh window entry), so only what is set travels back
// in. The message travels last,
// behind a presence byte, in the format's own field list: type, address,
// requester, version, epoch, then the five flags a byte each. Address and
// requester are the header's, so the wire holds them twice and a decoded
// pair that disagrees is corrupt: the fields are coded again, and decoding
// compares them with the header's copies.
func packetState(c *snapshot.Codec, p *Packet) {
	c.U64(&p.ID)
	snapshot.AsU8(c, &p.VNet)
	snapshot.AsU8(c, &p.Class)
	snapshot.AsU32(c, &p.Src)
	snapshot.AsU8(c, &p.SrcUnit)
	c.U64s(p.Dests[:])
	snapshot.AsU8(c, &p.DstUnit)
	c.U64(&p.Addr)
	c.Int(&p.Size)
	c.Bool(&p.IsPush)
	c.Bool(&p.Filterable)
	c.Bool(&p.IsInv)
	snapshot.AsU32(c, &p.Requester)
	snapshot.AsU64(c, &p.InjectedAt)
	c.U64(&p.Seq)
	c.U32(&p.Csum)
	c.Bool(&p.IsAck)
	snapshot.AsU8(c, &p.AckVNet)
	c.U64(&p.AckMask)
	c.Bool(&p.retx)
	c.Mark(&p.MsgFlags)
	if !c.Flag(p.MsgFlags&MsgPresent != 0) {
		return
	}
	p.MsgFlags |= MsgPresent
	snapshot.AsU8(c, &p.MsgType)
	addr, req := p.Addr, p.Requester
	c.U64(&p.Addr)
	snapshot.AsU32(c, &p.Requester)
	if addr != p.Addr || req != p.Requester {
		c.Corrupt("packet %#x carries a message for line %#x requester %d under a header for line %#x requester %d",
			p.ID, p.Addr, p.Requester, addr, req)
	}
	c.U64(&p.Version)
	c.U32(&p.Epoch)
	for bit := MsgNeedPush; bit <= MsgPrivate; bit <<= 1 {
		if c.Flag(p.MsgFlags&bit != 0) {
			p.MsgFlags |= bit
		}
	}
}

// State describes the whole mesh: every NI (queues, injection stream,
// pending deliveries, transport recovery state) and every router (occupied
// VCs in occupancy order, switch streams, link rings, filters, credits and
// arbitration state) — primary state only. Decoding runs the checker's own
// audits of the primary state on each router as it is decoded and on every
// NI once all are, and only then does each router rebuild its derived fields
// (Router.derive), which trusts that state. Decoding targets a
// freshly built network of the same Config (the caller's fingerprint check
// guarantees it). The free list is not state: restored in-flight packets
// are drawn from a fresh one, which is invisible to the simulation (pool
// residency only affects allocation counts).
func (n *Network) State(c *snapshot.Codec) {
	c.Section("noc.network")
	c.Mark(&n.nis)
	c.Mark(&n.routers)
	for _, ni := range n.nis {
		ni.state(c)
	}
	for _, r := range n.routers {
		r.state(c)
	}
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if err := n.auditNIs(); err != nil {
		c.Corrupt("%v", err)
		return
	}
	var b rebuild
	for _, r := range n.routers {
		r.derive(&b)
	}
}

func (ni *NI) state(c *snapshot.Codec) {
	c.Section("noc.ni")
	pkt := func(pp **Packet) { ni.Packet(c, pp) }
	ni.queued = 0 // derived: recounted in both directions
	for u := range ni.queues {
		for v := range ni.queues[u] {
			snapshot.Slice(c, &ni.queues[u][v], pkt)
			ni.queued += len(ni.queues[u][v])
		}
	}
	// Injection stream: the packet travels on its own. The local VC it
	// streams into is identified by index; once the head flit has been
	// written (sent >= 1) the VC holds — and will recycle — its own decoded
	// copy, while this one is only ever read (QueuedPushes scans, Size), so
	// the two need not share identity.
	if snapshot.Has(c, &ni.stream) {
		if c.Decoding() {
			ni.stream = &ni.cur
		}
		s, vcs, idx := ni.stream, ni.rt.in[PortLocal], 0
		if s.vc != nil {
			idx = int(s.vc.idx)
		}
		c.Int(&s.sent)
		c.Mark(&s.vc)
		s.vc = &vcs[c.Index(idx, len(vcs), "NI stream VC index")]
		pkt(&s.pkt)
	}
	snapshot.Slice(c, &ni.delivery, func(d *delivered) {
		snapshot.AsU64(c, &d.readyAt)
		pkt(&d.pkt)
	})
	c.Int(&ni.rr)
	c.U64(&ni.seq)
	if snapshot.Present(c, &ni.tp, "NI transport recovery state (lossy plan)") {
		ni.tp.state(c, pkt)
	}
}

// state describes the transport: the receiver's live streams first (in key
// order, as key, top and mask), then the windows, due acks, parked
// invalidations, loss records and verdict. A window entry's sequence number
// travels once, in its packet; a stream's due bit is its listing in ackDue,
// which NI.audit holds it to once every NI is decoded.
func (tp *niTransport) state(c *snapshot.Codec, pkt func(**Packet)) {
	c.Section("noc.transport")
	c.Mark(&tp.rx)
	live := 0
	for i := range tp.rx {
		if tp.rx[i].mask != 0 {
			live++
		}
	}
	next := 0 // the lowest key the next stream may have
	for n := c.Len(live); n > 0 && c.Err() == nil; n-- {
		for !c.Decoding() && tp.rx[next].mask == 0 {
			next++
		}
		k := snapshot.Word(c, uint32(next), 4)
		if c.Decoding() && (int(k) < next || int(k) >= len(tp.rx)) {
			c.Corrupt("rx stream key %#x names no (tile, vnet) stream past the previous key", k)
			return
		}
		st := &tp.rx[k]
		c.U64(&st.top)
		if c.U64(&st.mask); st.mask&1 == 0 {
			c.Corrupt("rx stream key %#x has not seen its top", k)
		}
		next = int(k) + 1
	}
	for v := range tp.tx {
		c.U64(&tp.tx[v].nextSeq)
		snapshot.Slice(c, &tp.tx[v].entries, func(e *txEntry) {
			c.U64s(e.pending[:])
			snapshot.AsU64(c, &e.lastSent)
			c.Int(&e.retries)
			c.Bool(&e.done)
			packetState(c, &e.proto)
		})
	}
	snapshot.Slice(c, &tp.ackDue, func(k *uint32) {
		switch c.U32(k); {
		case !c.Decoding():
		case int(*k) >= len(tp.rx):
			c.Corrupt("due ack for rx stream key %#x past the table", *k)
		default:
			tp.rx[*k].due = true
		}
	})
	snapshot.Slice(c, &tp.held, pkt)
	snapshot.Slice(c, &tp.lost, func(r *lossRec) {
		c.U64(&r.key)
		c.U64(&r.addr)
		c.Bool(&r.isPush)
	})
}

// vcAt codes the (port, index) coordinates of one of this router's input
// VCs and returns the VC they name.
func (rt *Router) vcAt(c *snapshot.Codec, port, idx int) *inputVC {
	if port = snapshot.Word(c, port, 1); port >= NumPorts {
		c.Corrupt("router %d input port %d out of range", rt.id, port)
		port = 0
	}
	return &rt.in[port][c.Index(idx, len(rt.in[port]), "router VC index")]
}

// state describes the router's primary state. Everything its datapath reads
// off that state through a mask, a count or a back pointer is derive's to
// rebuild, and checkPrimary audits what derive and the first tick rely on;
// what is refused here is only what the format cannot hold: a VC index past
// the port, a ring past its capacity, another filter slot count.
func (rt *Router) state(c *snapshot.Codec) {
	c.Section("noc.router")
	pkt := func(pp **Packet) { rt.ni.Packet(c, pp) }
	// Occupied VCs, in occupancy order: the order is load-bearing (the
	// position-keyed masks index it and round-robin arbitration walks it).
	snapshot.Slice(c, &rt.occ, func(pvc **inputVC) {
		port, idx := 0, 0
		if *pvc != nil {
			port, idx = int((*pvc).port), int((*pvc).idx)
		}
		vc := rt.vcAt(c, port, idx)
		*pvc = vc
		snapshot.AsU64(c, &vc.headAt)
		c.Bool(&vc.routed)
		c.Bool(&vc.reserved)
		c.U8(&vc.pending)
		if snapshot.Has(c, &vc.pkt) {
			pkt(&vc.pkt)
		}
	})
	// Switch streams, keyed by output port: outStream[o] is nil or &streams[o],
	// and the VC a stream drains travels as its coordinates.
	for o := range rt.outStream {
		if !snapshot.Has(c, &rt.outStream[o]) {
			continue
		}
		s, vcIdx := &rt.streams[o], 0
		if c.Decoding() {
			// nbr is nil behind the local port; the stream's flits are
			// counted through the cycle before the barrier.
			rt.outStream[o], *s = s, stream{outPort: o, downR: rt.nbr[o], last: rt.net.eng.Now() - 1}
		} else {
			vcIdx = int(s.vc.idx)
		}
		c.Mark(&s.inPort)
		s.vc = rt.vcAt(c, s.inPort, vcIdx)
		s.inPort = int(s.vc.port)
		c.Int(&s.sent)
		c.Int(&s.size)
		snapshot.AsU8(c, &s.class)
		snapshot.AsU8(c, &s.dstUnit)
		c.Bool(&s.isPush)
		if snapshot.Has(c, &s.replica) {
			pkt(&s.replica)
		}
	}
	// Link rings, oldest entry first.
	for p := range rt.arrivals {
		r := &rt.arrivals[p]
		ringState(c, &r.head, &r.tail, &r.buf, func(e *arrEntry) {
			snapshot.AsU64(c, &e.at)
			pkt(&e.pkt)
		})
	}
	for p := range rt.credRet {
		r := &rt.credRet[p]
		ringState(c, &r.head, &r.tail, &r.buf, func(e *credEntry) {
			snapshot.AsU8(c, &e.vnet)
			snapshot.AsU64(c, &e.at)
		})
	}
	// Arbitration and accounting state. minHeadAt may sit below the earliest
	// unrouted head (releases leave it stale low), so a rebuilt one would
	// serialize differently from the one it replaced: it travels.
	for o := range rt.rr {
		snapshot.AsU64(c, &rt.rr[o])
	}
	snapshot.AsU64(c, &rt.minHeadAt)
	for o := range rt.credits {
		for v := range rt.credits[o] {
			c.I16(&rt.credits[o][v])
		}
	}
	if fb := rt.filters; snapshot.Present(c, &rt.filters, "router filter bank") {
		// Every entry travels, matured clears included: scheduleClear re-arms
		// a valid entry whatever its clear time says.
		c.Mark(&fb.entries)
		c.Count(len(fb.entries), "filter slots")
		for i := range fb.entries {
			e := &fb.entries[i]
			c.Bool(&e.valid)
			c.U64(&e.addr)
			c.U64s(e.dests[:])
			c.Bool(&e.clearPending)
			snapshot.AsU64(c, &e.clearAt)
		}
	}
	if c.Decoding() && c.Err() == nil {
		if err := rt.checkPrimary(); err != nil {
			c.Corrupt("router %d: %v", rt.id, err)
		}
	}
}

// ringState describes the live window of a link ring, oldest entry first. A
// decoded ring's window starts wherever the fresh ring's head sits, which is
// invisible: only the window is ever read.
func ringState[E any](c *snapshot.Codec, head, tail *uint32, buf *[ringCap]E, entry func(*E)) {
	n := c.Len(int(*tail - *head))
	if n > ringCap {
		c.Corrupt("link ring holds %d entries, capacity %d", n, ringCap)
		return
	}
	if c.Decoding() {
		*tail = *head + uint32(n)
	}
	for h := *head; h != *tail; h++ {
		entry(&buf[h%ringCap])
	}
}
