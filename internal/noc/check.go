package noc

import (
	"fmt"
	"math/bits"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/trace"
)

// This file is the NoC's white-box surface for the runtime invariant
// checker (internal/check): tracer wiring, the per-VC credit and
// occupancy conservation audit, and the push-in-flight scan backing the
// filter-soundness check. It lives inside the package because the
// invariants are phrased over unexported router state (occ lists,
// candidate masks, filter slots) that has no business being exported.

// SetTracer installs the run's tracer on every NI and router.
func (n *Network) SetTracer(t *trace.Tracer) {
	for _, ni := range n.nis {
		ni.tr = t
	}
	for _, r := range n.routers {
		r.tr = t
	}
}

// pktFlags packs a packet's protocol-relevant flags into a trace event's
// B field.
func pktFlags(pkt *Packet) int32 {
	var f int32
	if pkt.IsPush {
		f |= trace.FlagPush
	}
	if pkt.IsInv {
		f |= trace.FlagInv
	}
	if pkt.Filterable {
		f |= trace.FlagFilterable
	}
	return f
}

// CheckConservation audits every router against ground truth: the primary
// state's own invariants (checkPrimary), every derived field — masks,
// candidate counters, back pointers, filter liveness accounting — against
// what Router.derive rebuilds from that primary state, head timing and
// per-link credit conservation; then every NI's transport (NI.audit). Each
// derived field is something the hot path trusts blindly; a drifted one
// silently corrupts arbitration or filtering long before any end-state
// counter notices. Returns the first violation found.
func (n *Network) CheckConservation(now sim.Cycle) error {
	for _, r := range n.routers {
		if err := r.checkConservation(now); err != nil {
			return fmt.Errorf("router %d: %w", r.id, err)
		}
	}
	return n.auditNIs()
}

// auditNIs runs every NI's audit; restore runs it too.
func (n *Network) auditNIs() error {
	for _, ni := range n.nis {
		if err := ni.audit(); err != nil {
			return fmt.Errorf("NI %d: %w", ni.node, err)
		}
	}
	return nil
}

// audit checks the NI's transport: a stream is due exactly while ackDue
// lists it, and only a stream that has seen something is; each window holds
// at most RetryWindow entries, numbered consecutively up to nextSeq-1 (a
// retired entry's number went with its template); and retxAt may sit below
// the earliest deadline of a live entry, never above one (the NI would sleep
// through that retransmission).
func (ni *NI) audit() error {
	tp := ni.tp
	if tp == nil {
		return nil
	}
	due := 0
	for i := range tp.rx {
		if tp.rx[i].due {
			due++
		}
	}
	for _, k := range tp.ackDue {
		if !tp.rx[k].due || tp.rx[k].mask == 0 {
			return fmt.Errorf("ackDue lists stream %#x, which is not due or has seen nothing", k)
		}
	}
	if due != len(tp.ackDue) {
		return fmt.Errorf("%d streams are due but ackDue lists %d", due, len(tp.ackDue))
	}
	for v := range tp.tx {
		w := &tp.tx[v]
		if len(w.entries) > ni.net.cfg.RetryWindow {
			return fmt.Errorf("vnet %d window holds %d entries, RetryWindow is %d", v, len(w.entries), ni.net.cfg.RetryWindow)
		}
		for i := range w.entries {
			e := &w.entries[i]
			if e.done {
				continue
			}
			if want := w.nextSeq - uint64(len(w.entries)-i); e.proto.Seq != want {
				return fmt.Errorf("vnet %d window entry %d is seq %d, not %d", v, i, e.proto.Seq, want)
			}
			if d := e.lastSent + sim.Cycle(ni.net.cfg.RetryTimeout); d < tp.retxAt {
				return fmt.Errorf("retransmit bound %d is above vnet %d seq %d's deadline %d", tp.retxAt, v, e.proto.Seq, d)
			}
		}
	}
	return nil
}

// checkPrimary audits the router's primary state alone, reading the
// occupied list itself: VC wiring, each occupied VC listed once and no free
// one listed, a buffered packet on its VC's vnet, minHeadAt at or below
// every unrouted head, pending ports only on routed packets that route
// there, switch streams over occupied VCs with one stream per input, and
// credit returns only toward a neighbour. Derive trusts all of it, so
// restore runs it on every router before any derive.
func (r *Router) checkPrimary() error {
	vcs := r.net.cfg.VCsPerVNet
	perPort := len(r.in[0])
	var listed uint64 // by VC number, port-major
	for _, vc := range r.occ {
		bit := uint64(1) << uint(int(vc.port)*perPort+int(vc.idx))
		if listed&bit != 0 {
			return fmt.Errorf("VC (%s,%d) is listed as occupied twice", PortName(int(vc.port)), vc.idx)
		}
		listed |= bit
	}
	for p := range r.in {
		for i := range r.in[p] {
			vc, bit := &r.in[p][i], uint64(1)<<uint(p*perPort+i)
			if int(vc.port) != p || int(vc.idx) != i || int(vc.vnet) != i/vcs {
				return fmt.Errorf("VC (%s,%d) is wired as (%s,%d) vnet %d", PortName(p), i, PortName(int(vc.port)), vc.idx, vc.vnet)
			}
			switch free, on := vc.pkt == nil && !vc.reserved, listed&bit != 0; {
			case free && on:
				return fmt.Errorf("free VC (%s,%d) is listed as occupied", PortName(p), i)
			case !free && !on:
				return fmt.Errorf("occupied VC (%s,%d) is missing from the occupied list", PortName(p), i)
			}
			// Every pending port must still have destinations to serve, and
			// only a routed packet has pending ports.
			for m := vc.pending; m != 0; m &= m - 1 {
				if o := bits.TrailingZeros8(m); vc.pkt == nil || !vc.routed || o >= NumPorts || r.portDests(vc, o).Empty() {
					return fmt.Errorf("VC (%s,%d) pending mask %#b names a port its packet does not route to", PortName(p), i, vc.pending)
				}
			}
			if vc.pkt == nil {
				continue
			}
			if vc.pkt.VNet != int(vc.vnet) {
				return fmt.Errorf("VC (%s,%d) of vnet %d holds a vnet-%d packet", PortName(p), i, vc.vnet, vc.pkt.VNet)
			}
			if !vc.routed && r.minHeadAt > vc.headAt {
				return fmt.Errorf("minHeadAt=%d above unrouted head arrival %d at (%s,%d)", r.minHeadAt, vc.headAt, PortName(p), i)
			}
		}
	}
	var heldIn uint8
	for o, s := range r.outStream {
		if s == nil {
			continue
		}
		if s != &r.streams[o] || s.outPort != o || s.vc == nil || s.vc.pkt == nil ||
			int(s.vc.port) != s.inPort || heldIn&(1<<uint(s.inPort)) != 0 {
			return fmt.Errorf("broken stream links at output %s", PortName(o))
		}
		heldIn |= 1 << uint(s.inPort)
	}
	for p := range r.credRet {
		if r.credRet[p].len() != 0 && r.nbr[p] == nil {
			return fmt.Errorf("returns credits through %s, which has no neighbour", PortName(p))
		}
	}
	return nil
}

func (r *Router) checkConservation(now sim.Cycle) error {
	if err := r.checkPrimary(); err != nil {
		return err
	}
	b := rebuild{audit: true}
	if r.derive(&b); b.err != nil {
		return b.err
	}
	// Head timing. An unrouted head or an arrival entry ripe before now
	// means the router slept or skipped through the cycle that should have
	// routed or popped it — legal only while a RouterSlow window froze the
	// pipeline.
	f := r.net.faults
	for _, vc := range r.occ {
		if vc.pkt != nil && !vc.routed && vc.headAt <= now && (f == nil || !f.FrozenIn(r.id, vc.headAt, now)) {
			return fmt.Errorf("unrouted head at (%s,%d) overdue: headAt=%d now=%d", PortName(int(vc.port)), vc.idx, vc.headAt, now)
		}
	}
	for p := 0; p < NumPorts; p++ {
		var ripeErr error
		r.arrivals[p].forEach(func(pkt *Packet, at sim.Cycle) {
			if at <= now && ripeErr == nil {
				if f == nil || !f.FrozenIn(r.id, at, now) {
					ripeErr = fmt.Errorf("arrival ring at %s holds an overdue head: at=%d now=%d", PortName(p), at, now)
				}
			}
		})
		if ripeErr != nil {
			return ripeErr
		}
	}
	// For every link, the upstream credit count plus everything in flight on
	// the link (queued handoffs, queued credit returns, occupied downstream
	// VCs) must reassemble the full VC pool.
	vcs := r.net.cfg.VCsPerVNet
	for o := 0; o < NumPorts; o++ {
		nb := r.nbr[o]
		if nb == nil {
			continue
		}
		ip := opposite[o]
		var inFlight [NumVNets]int16
		nb.arrivals[ip].forEach(func(pkt *Packet, at sim.Cycle) {
			inFlight[pkt.VNet]++
		})
		for v := 0; v < NumVNets; v++ {
			queuedCred := int16(nb.credRet[ip].count(v))
			heldDown := int16(vcs - bits.OnesCount16(nb.freeVCs[ip]&nb.vnetVCs[v]))
			sum := r.credits[o][v] + inFlight[v] + queuedCred + heldDown
			if sum != int16(vcs) {
				return fmt.Errorf("link credit conservation broken at %s vnet %d: %d credits + %d in-flight + %d returning + %d held != %d",
					PortName(o), v, r.credits[o][v], inFlight[v], queuedCred, heldDown, vcs)
			}
		}
	}
	return nil
}

// PushInFlight reports whether a push embedding a response for
// (addr, requester) is anywhere in the network: queued or streaming at an
// NI, riding out a delivery link, waiting in its sender's retransmit window,
// or buffered or streaming in a router. The filter-soundness check uses it:
// a filtered request is legal only while the covering push can still reach
// the requester (or already has). The walk starts at the requester's tile,
// routers first, where a push headed for it is most likely met.
func (n *Network) PushInFlight(addr uint64, requester NodeID) bool {
	for k := range n.routers {
		if n.routers[(int(requester)+k)%len(n.routers)].pushCovering(addr, requester) {
			return true
		}
	}
	for k := range n.nis {
		if n.nis[(int(requester)+k)%len(n.nis)].pushInFlight(addr, requester) {
			return true
		}
	}
	return false
}

// pushInFlight is PushInFlight at one NI: its queues and stream
// (QueuedPushes), its delivery link, and its retransmit window.
func (ni *NI) pushInFlight(addr uint64, requester NodeID) bool {
	if ni.QueuedPushes(addr).Has(requester) {
		return true
	}
	for _, d := range ni.delivery {
		if d.pkt.IsPush && d.pkt.Addr == addr && d.pkt.Dests.Has(requester) {
			return true
		}
	}
	// Under lossy faults a push may live nowhere but the sender's retransmit
	// window: the replica headed for the requester was dropped and its
	// re-send has not fired yet. The unacked window entry is the guarantee
	// that it still reaches the requester.
	if tp := ni.tp; tp != nil {
		for v := range tp.tx {
			for i := range tp.tx[v].entries {
				e := &tp.tx[v].entries[i]
				if !e.done && e.proto.IsPush && e.proto.Addr == addr && e.pending.Has(requester) {
					return true
				}
			}
		}
	}
	return false
}

// pushCovering is PushInFlight at one router. Its derived masks and
// occupancy list name the streams, rings and VCs that hold anything (the
// conservation sweep audits them).
func (r *Router) pushCovering(addr uint64, requester NodeID) bool {
	// Streams read through the buffered original, not the replica: past the
	// head flit the replica pointer is nil (ownership moved into the
	// downstream arrival ring, which the ring scan below covers until the pop
	// moves it into an input VC).
	for o := r.heldOut; o != 0; o &= o - 1 {
		p := bits.TrailingZeros8(o)
		if s := r.outStream[p]; s.isPush && s.vc.pkt.Addr == addr && r.portDests(s.vc, p).Has(requester) {
			return true
		}
	}
	for q := r.arrQueued; q != 0; q &= q - 1 {
		found := false
		r.arrivals[bits.TrailingZeros8(q)].forEach(func(pkt *Packet, at sim.Cycle) {
			found = found || pkt.IsPush && pkt.Addr == addr && pkt.Dests.Has(requester)
		})
		if found {
			return true
		}
	}
	for _, vc := range r.occ {
		pkt := vc.pkt
		if pkt == nil || !pkt.IsPush || pkt.Addr != addr {
			continue
		}
		if !vc.routed {
			// Original destination set still intact.
			if pkt.Dests.Has(requester) {
				return true
			}
			continue
		}
		for m := vc.pending; m != 0; m &= m - 1 {
			if r.portDests(vc, bits.TrailingZeros8(m)).Has(requester) {
				return true
			}
		}
	}
	return false
}
