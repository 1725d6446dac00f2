package noc

// End-to-end message recovery for lossy interconnects.
//
// When the fault plan schedules MsgDrop/MsgDup/MsgCorrupt, the network arms
// a transport layer at every NI:
//
//   - The sender stamps each injected packet with a per-(source NI, vnet)
//     64-bit sequence number, which never wraps, and a header checksum, and
//     retains a copy in a bounded selective-repeat window until every
//     destination has acked it. An entry unacked for RetryTimeout cycles is
//     retransmitted to its remaining destinations; after MaxRetries unacked
//     retransmissions the run aborts with ErrUnrecoverable.
//   - The receiver verifies the checksum (a MsgCorrupt verdict surfaces as a
//     mismatch and the packet is discarded like a drop), suppresses replayed
//     sequence numbers with an anti-replay window (top counter + 64-bit
//     backward mask, reorder-tolerant), acks every survivor — including
//     suppressed duplicates, so a lost ack is healed by the retransmission
//     it provokes — and parks invalidations whose address has a dropped push
//     outstanding, preserving OrdPush's push-before-invalidation order
//     across a loss.
//
// Acks are cumulative: one single-flit VNetCtrl packet per (source, vnet)
// stream carrying the receiver's whole anti-replay state (top + mask), sent
// outside the sequence space (acking acks would recurse) and coalesced per
// stream while waiting for injection. They are themselves droppable and
// duplicable — a lost ack carries no recovery obligation of its own, because
// the unacked data's retransmission provokes a fresh ack with fresher state.
// The window bounds how far an unacked entry can trail the receiver's top
// (RetryWindow <= 64, the mask's horizon), so a live entry is always
// coverable; how far a fresh one can lead it is unbounded (see rxSeen), and
// every comparison of two numbers is a plain one, since 2^64 is never spent.
// Every transport decision is a pure function of deterministic state, so
// lossy runs replay byte-identically on the wake-driven and dense kernels.
// All state below is tile-local.

import (
	"fmt"
	"slices"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/trace"
)

// txEntry is one unacked packet in a sender NI's retransmit window.
type txEntry struct {
	// proto is the retransmission template: a field copy of the packet as
	// injected, message words and sequence number included.
	proto Packet
	// pending is the destinations that have not acked yet.
	pending  DestSet
	lastSent sim.Cycle
	retries  int
	done     bool
}

// txWindow is a sender NI's per-vnet selective-repeat window, ordered by
// sequence number; the front is popped as soon as it is fully acked.
type txWindow struct {
	entries []txEntry
	nextSeq uint64
}

// rxStream is the receiver's per-(source, vnet) anti-replay state: top is
// the highest sequence accepted, mask bit i records whether top-i was seen.
// Bit 0 (top itself) is set from the first arrival on, so a zero mask is a
// stream that has seen nothing.
type rxStream struct {
	top  uint64
	due  bool `snap:"-,derived: membership of the stream's key in ackDue"`
	mask uint64
}

// lossRec is one stream key discarded at this NI and not yet re-seen: its
// re-arrival emits KMsgRecover (the checker's loss invariant), and while a
// push's record stands, invalidations of its line are parked.
type lossRec struct {
	key    uint64
	addr   uint64
	isPush bool
}

// niTransport is one NI's recovery state; nil when the run is not lossy.
type niTransport struct {
	tx [NumVNets]txWindow
	// rx is the anti-replay state of every (source, vnet) stream, indexed by
	// rxKey: src*NumVNets+vnet.
	rx []rxStream
	// ackDue is the FIFO of rx stream keys owing a cumulative ack; a stream's
	// due bit marks it listed. Coalescing per stream (rather than queueing
	// one ack per delivered packet) bounds the backlog: per-packet acks
	// congestively collapse under multicast load — delivery rate outruns the
	// ctrl-vnet injection rate, ack latency diverges, and senders exhaust
	// their retries on traffic that did arrive.
	ackDue []uint32
	// held parks delivered invalidations whose line has a lost push record
	// (pushLost); flushed FIFO once the push re-arrives.
	held []*Packet
	// lost lists the stream keys discarded here and not yet re-seen, in
	// discard order. It stays short (at most 30 records at one NI measured
	// on 16 cores up to 100 per mille, 29 on 64 at 20), so it is scanned,
	// not indexed.
	lost []lossRec
	// dead is the ErrUnrecoverable verdict once a window entry exhausts its
	// retries; the run's finished-check aborts on it at the next cycle edge.
	dead error
	// retxAt is a lower bound on the earliest retransmit deadline: lowered
	// by stampTransport, rebuilt exactly by each walk of the windows, so
	// neither checkRetransmits nor transportDeadline walks them on a tick
	// before it. An ack that retires an entry leaves it stale low, which
	// costs one spurious walk. Zero after a restore, so the first tick walks.
	retxAt sim.Cycle `snap:"-,derived: lower bound on the windows' earliest retransmit deadline, rebuilt by the first walk"`
}

func (ni *NI) initTransport() {
	if ni.tp == nil {
		ni.tp = &niTransport{rx: make([]rxStream, ni.net.cfg.Nodes()*NumVNets)}
	}
}

// rxKey names the arrival's (source, vnet) stream in the rx table.
func rxKey(p *Packet) uint32 { return uint32(p.Src)*NumVNets + uint32(p.VNet) }

// lostAt returns the index of key's loss record, or -1.
func (tp *niTransport) lostAt(key uint64) int {
	return slices.IndexFunc(tp.lost, func(r lossRec) bool { return r.key == key })
}

// pushLost reports whether a push for the line was discarded here and has
// not re-arrived.
func (tp *niTransport) pushLost(addr uint64) bool {
	return slices.ContainsFunc(tp.lost, func(r lossRec) bool { return r.isPush && r.addr == addr })
}

// windowFull reports whether the vnet's retransmit window has no room for a
// new entry; Inject refuses the packet, surfacing as ordinary backpressure.
func (ni *NI) windowFull(vnet int) bool {
	return len(ni.tp.tx[vnet].entries) >= ni.net.cfg.RetryWindow
}

// streamKey packs (source, stream, seq) into the 64-bit key used by the loss
// trace events and the loss list. stream is the vnet for sequenced
// packets and 4|ackVNet for acks (acks carry no sequence of their own; the
// key only labels their loss events, which are always orphans). The key
// holds the number's low 32 bits: it only has to tell open losses apart, and
// the lost list and the checker's obligations hold a key only while its loss
// is open, which MaxRetries retransmissions RetryTimeout cycles apart (and
// the checker's lossBound) bound far below 2^32 numbers.
func streamKey(src NodeID, stream uint8, seq uint64) uint64 {
	return uint64(uint32(seq)) | uint64(stream)<<32 | uint64(uint32(src))<<40
}

func (p *Packet) transportKey() uint64 {
	if p.IsAck {
		return streamKey(p.Src, 4|uint8(p.AckVNet), p.Seq)
	}
	return streamKey(p.Src, uint8(p.VNet), p.Seq)
}

// checksum hashes the packet's stable header fields. Dests is excluded (it
// differs per retransmission subset); each packet copy is verified against
// the value stamped at its own injection. Only Seq's low 32 bits reach the
// hash.
func (n *Network) checksum(p *Packet) uint32 {
	x := p.ID ^ p.Addr*0x9E3779B97F4A7C15 ^ p.Seq<<32 ^
		uint64(uint32(p.Src))<<8 ^ uint64(p.VNet) ^ uint64(p.Size)<<16
	if p.IsAck {
		x ^= 0xACC<<44 ^ p.AckMask*0x2545F4914F6CDD1D
	}
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return uint32(x)
}

// stampTransport assigns a fresh sequence number and window entry to a
// first-injection packet (retransmissions and acks keep theirs) and stamps
// the checksum. Runs inside Inject, after the window-full refusal check.
//
// Filterable requests are exempt from sequencing: the in-network filter may
// legitimately consume them mid-route (the push answers instead), so an ack
// can never be owed end-to-end. Their loss-recovery path is the protocol
// level — the L2's MSHR retry timer reissues an unanswered GetS.
func (ni *NI) stampTransport(pkt *Packet, now sim.Cycle) {
	if !pkt.IsAck && !pkt.retx && !pkt.Filterable {
		w := &ni.tp.tx[pkt.VNet]
		pkt.Seq = w.nextSeq
		w.nextSeq++
		if cap(w.entries) == 0 {
			w.entries = make([]txEntry, 0, ni.net.cfg.RetryWindow)
		}
		w.entries = append(w.entries, txEntry{proto: *pkt, pending: pkt.Dests, lastSent: now})
		ni.tp.retxAt = min(ni.tp.retxAt, now+sim.Cycle(ni.net.cfg.RetryTimeout))
	}
	pkt.Csum = ni.net.checksum(pkt)
}

// transportAdmit applies the lossy verdict and the receiver protocol to one
// matured delivery. It reports whether the packet should be handed to the
// endpoint, plus the verdict (LossDup survivors are re-presented and
// suppressed after the handoff, modeling the duplicated arrival).
func (ni *NI) transportAdmit(pkt *Packet, now sim.Cycle) (bool, LossVerdict) {
	tp := ni.tp
	fate := LossNone
	if f := ni.net.faults; f != nil {
		fate = f.LossyVerdict(ni.node, now, pkt.ID)
	}
	if c := ni.net.checksum(pkt); fate != LossCorrupt && c != pkt.Csum {
		panic(fmt.Sprintf("noc: checksum mismatch without corruption fault at node %d: %v", ni.node, pkt))
	}
	key := pkt.transportKey()
	if fate == LossDrop || fate == LossCorrupt {
		// An orphan drop carries no recovery obligation, so the checker's
		// loss invariant must not wait for a KMsgRecover; it is flagged in B.
		// A filterable request is unsequenced (see stampTransport): its loss
		// is recovered at protocol level, by the requester's MSHR retry
		// timer. An ack is a stateless cumulative snapshot: whatever this one
		// would have retired, the entry's own retransmission provokes a
		// fresher one. And a sequence number already accepted here is a
		// duplicate whose original got through. Nothing will — or needs to —
		// carry such a key again.
		orphan := pkt.Filterable || pkt.IsAck || ni.rxSeenPeek(pkt)
		kind := trace.Kind(trace.KMsgDrop)
		if fate == LossCorrupt {
			kind = trace.KMsgCorrupt
			ni.st.Net.CorruptDetected++
		} else {
			ni.st.Net.MsgDropped++
		}
		var b int32
		if orphan {
			b = 1
		}
		ni.tr.Emit(trace.Event{Cycle: uint64(now), Kind: kind, Node: int32(ni.node),
			Addr: pkt.Addr, ID: pkt.ID, Aux: trace.Aux{key}, A: int32(pkt.Src), B: b})
		if !orphan && tp.lostAt(key) < 0 {
			tp.lost = append(tp.lost, lossRec{key: key, addr: pkt.Addr, isPush: pkt.IsPush})
		}
		ni.net.eng.Progress()
		ni.Recycle(pkt)
		return false, fate
	}
	if pkt.Filterable {
		// No ack and no dedup. Duplicates of an unsequenced request cannot
		// be detected here; requests are idempotent anyway, and the second
		// arrival is modeled as suppressed (the LossDup verdict flows to
		// suppress, which skips the ack for these).
		return true, fate
	}
	if i := tp.lostAt(key); i >= 0 {
		// A previously discarded key arrived (retransmission or re-ack):
		// the loss is healed. Clearing before dedup matters — recovery may
		// arrive as a suppressed duplicate when the original got through
		// and only a retransmitted copy was dropped.
		tp.lost = slices.Delete(tp.lost, i, i+1)
		ni.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KMsgRecover, Node: int32(ni.node),
			Addr: pkt.Addr, ID: pkt.ID, Aux: trace.Aux{key}, A: int32(pkt.Src)})
	}
	if pkt.IsAck {
		ni.consumeAck(pkt, now)
		if fate == LossDup {
			ni.consumeAck(pkt, now) // second arrival; retiring twice is a no-op
		}
		ni.net.eng.Progress()
		ni.Recycle(pkt)
		return false, fate
	}
	if ni.rxSeen(pkt) {
		ni.suppress(pkt, now)
		ni.net.eng.Progress()
		ni.Recycle(pkt)
		return false, fate
	}
	ni.sendAck(pkt, now)
	if pkt.IsInv && tp.pushLost(pkt.Addr) {
		// A push for this line was dropped here and its retransmission is
		// still due: applying the invalidation first would let the replayed
		// push install stale data after the line was invalidated. Park the
		// inv (it is acked and dedup-marked already) until the push
		// re-arrives.
		tp.held = append(tp.held, pkt)
		if fate == LossDup {
			ni.suppress(pkt, now)
		}
		return false, LossNone
	}
	return true, fate
}

// suppress is the dedup window discarding a replayed arrival — a real one,
// or the second arrival of a duplicated delivery — and re-acking it: the
// sender's copy may be waiting on a lost ack.
func (ni *NI) suppress(pkt *Packet, now sim.Cycle) {
	ni.st.Net.DupSuppressed++
	ni.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KMsgDup, Node: int32(ni.node),
		Addr: pkt.Addr, ID: pkt.ID, Aux: trace.Aux{pkt.transportKey()}, A: int32(pkt.Src)})
	if !pkt.Filterable {
		ni.sendAck(pkt, now) // unsequenced requests are never acked
	}
}

// rxSeen consults and updates the (source, vnet) anti-replay window:
// it reports true for an already-seen sequence number and records fresh
// ones.
//
// A fresh arrival is never 64 or more behind top: the sender cannot still
// hold an entry RetryWindow (at most 64) older than one it sent later. But
// it may be any distance ahead, because the sender's one counter also
// numbers its packets to every other destination, and this stream skips all
// of those (504 ahead is measured on bfs tiny/16 OrdPush at 10 per mille).
// An arrival ahead of top shifts the mask (a shift of 64 or more empties
// it); one behind marks its bit. A fresh stream (top 0, mask 0) is behind
// nothing.
func (ni *NI) rxSeen(pkt *Packet) bool {
	st := &ni.tp.rx[rxKey(pkt)]
	if st.seen(pkt.Seq) {
		return true
	}
	if pkt.Seq >= st.top {
		st.mask = st.mask<<(pkt.Seq-st.top) | 1
		st.top = pkt.Seq
	} else {
		st.mask |= 1 << (st.top - pkt.Seq)
	}
	return false
}

// seen reports whether the stream would suppress seq as a duplicate: a
// number at or behind top that is marked, or one beyond the mask horizon (an
// ancient duplicate). A stream that has seen nothing has no mark.
func (st *rxStream) seen(seq uint64) bool {
	return seq <= st.top && (st.top-seq >= 64 || st.mask&(1<<(st.top-seq)) != 0)
}

// rxSeenPeek is rxSeen without the state update: it reports whether the
// sequence number would be suppressed as a duplicate, for classifying a
// dropped arrival as an orphan (no recovery obligation).
func (ni *NI) rxSeenPeek(pkt *Packet) bool { return ni.tp.rx[rxKey(pkt)].seen(pkt.Seq) }

// sendAck marks the arrival's (source, vnet) stream as owing a cumulative
// ack; flushAcks (end of the same deliver pass) builds and injects it from
// the stream's then-current anti-replay state. Re-marking an already-due
// stream is a no-op — the eventual ack covers this arrival too, since
// rxSeen recorded it already.
func (ni *NI) sendAck(orig *Packet, now sim.Cycle) {
	key := rxKey(orig)
	if st := &ni.tp.rx[key]; !st.due {
		st.due = true
		ni.tp.ackDue = append(ni.tp.ackDue, key)
	}
}

// buildAck materializes the cumulative ack for one rx stream key: a
// single-flit ctrl packet carrying the stream's current (top, mask).
func (ni *NI) buildAck(key uint32) *Packet {
	st := &ni.tp.rx[key]
	a := ni.NewPacket()
	a.VNet = VNetCtrl
	a.Class = stats.ClassAck
	a.SrcUnit = stats.UnitL2
	a.Dests = OneDest(NodeID(key / NumVNets))
	a.DstUnit = stats.UnitL2 // unused: acks are consumed at the transport
	a.Size = 1
	a.IsAck = true
	a.Seq = st.top
	a.AckMask = st.mask
	a.AckVNet = int8(key % NumVNets)
	return a
}

// flushAcks injects due cumulative acks in FIFO order, stopping at the
// first refusal (the stream stays due; reschedule keeps the NI awake).
func (ni *NI) flushAcks(now sim.Cycle) {
	tp := ni.tp
	n := 0
	for n < len(tp.ackDue) {
		a := ni.buildAck(tp.ackDue[n])
		if !ni.Inject(a, now) {
			ni.Recycle(a)
			break
		}
		tp.rx[tp.ackDue[n]].due = false
		n++
	}
	tp.ackDue = slices.Delete(tp.ackDue, 0, n)
}

// flushHeld releases parked invalidations whose line no longer has a lost
// push record, in arrival order. It runs after the arrival loop of every
// deliver pass, so a push and an inv maturing the same cycle apply in
// push-then-inv order.
func (ni *NI) flushHeld(now sim.Cycle) {
	if len(ni.tp.held) == 0 {
		return
	}
	q := ni.tp.held
	kept := q[:0]
	for _, pkt := range q {
		if ni.tp.pushLost(pkt.Addr) {
			kept = append(kept, pkt)
			continue
		}
		ni.handoff(pkt, now)
	}
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	ni.tp.held = kept
}

// consumeAck retires the acking destination from every window entry the
// cumulative ack covers — entry seq equal to the ack's top, or within the
// 64-bit backward mask — and pops fully-acked entries off the window's
// front. Entries ahead of the ack's top (sent but not yet received when the
// ack was built) stay pending; stale and reordered acks cover subsets and
// are harmless.
func (ni *NI) consumeAck(a *Packet, now sim.Cycle) {
	if a.AckVNet < 0 || int(a.AckVNet) >= NumVNets {
		panic(fmt.Sprintf("noc: ack with invalid vnet %d at node %d", a.AckVNet, ni.node))
	}
	w := &ni.tp.tx[a.AckVNet]
	for i := range w.entries {
		e := &w.entries[i]
		if e.done || !e.pending.Has(a.Src) {
			continue
		}
		// A shift of 64 or more (an entry past the mask horizon) is 0.
		if e.proto.Seq > a.Seq || a.AckMask&(1<<(a.Seq-e.proto.Seq)) == 0 {
			continue // ahead of top, or not (yet) seen by the receiver
		}
		e.pending = e.pending.Remove(a.Src)
		if e.pending.Empty() {
			e.done = true
			e.proto = Packet{}
		}
	}
	n := 0
	for n < len(w.entries) && w.entries[n].done {
		n++
	}
	w.entries = slices.Delete(w.entries, 0, n) // zeroes the vacated tail
}

// checkRetransmits re-injects overdue unacked window entries, walking the
// windows only once retxAt has come due and rebuilding it exactly as it goes.
// A refused injection (queue backpressure) leaves the entry overdue;
// reschedule keeps the NI awake and it retries next cycle. Exhausting
// MaxRetries marks the sender dead with ErrUnrecoverable; the run's
// finished-check picks that up at the next cycle edge.
func (ni *NI) checkRetransmits(now sim.Cycle) {
	tp := ni.tp
	if tp.dead != nil || now < tp.retxAt {
		return
	}
	timeout := sim.Cycle(ni.net.cfg.RetryTimeout)
	next := sim.NeverWake
	for v := range tp.tx {
		w := &tp.tx[v]
		for i := range w.entries {
			e := &w.entries[i]
			if e.done {
				continue
			}
			if now-e.lastSent < timeout {
				next = min(next, e.lastSent+timeout)
				continue
			}
			if e.retries >= ni.net.cfg.MaxRetries {
				tp.dead = fmt.Errorf("noc: node %d vnet %d seq %d addr %#x: %d retransmissions unacked (dests %v): %w",
					ni.node, v, e.proto.Seq, e.proto.Addr, e.retries, e.pending, ErrUnrecoverable)
				return
			}
			p := ni.getPacket()
			*p = e.proto
			p.pooled = true
			p.retx = true
			p.Dests = e.pending
			if !ni.Inject(p, now) {
				ni.Recycle(p)
				next = min(next, e.lastSent+timeout) // still overdue
				continue
			}
			e.retries++
			e.lastSent = now
			next = min(next, now+timeout)
			ni.st.Net.Retransmits++
			ni.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KRetransmit, Node: int32(ni.node),
				Addr: p.Addr, ID: p.ID, Aux: trace.Aux{p.transportKey()}, A: int32(e.retries)})
		}
	}
	tp.retxAt = next
}

// transportDeadline returns a lower bound on the earliest retransmit deadline
// (idle=true), or idle=false when the NI must stay awake regardless (queued
// acks to retry, or a dead sender waiting for the run's finished-check).
func (ni *NI) transportDeadline() (sim.Cycle, bool) {
	tp := ni.tp
	if tp == nil {
		return sim.NeverWake, true
	}
	if len(tp.ackDue) != 0 || tp.dead != nil {
		return 0, false
	}
	return tp.retxAt, true
}

// Unrecoverable returns the first (lowest-node) sender's ErrUnrecoverable
// verdict, or nil. Called between cycles from the run's finished-check.
func (n *Network) Unrecoverable() error {
	if !n.lossy {
		return nil
	}
	for _, ni := range n.nis {
		if ni.tp != nil && ni.tp.dead != nil {
			return ni.tp.dead
		}
	}
	return nil
}
