package cache

import (
	"pushmulticast/internal/coherence"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// delayQueue models a controller's input pipeline: packets become visible to
// the controller a fixed latency after network delivery, in FIFO order. The
// backing array is managed as a sliding window (head index plus compaction)
// so steady-state operation never reallocates.
type delayQueue struct {
	items   []delayed
	head    int       `snap:"-,derived: a decoded queue is compacted"` // items[head:] are live
	latency sim.Cycle `snap:"-,config"`
}

type delayed struct {
	pkt     *noc.Packet
	readyAt sim.Cycle
}

// push enqueues a packet and returns the cycle it becomes visible.
func (q *delayQueue) push(pkt *noc.Packet, now sim.Cycle) sim.Cycle {
	if q.head > 0 {
		if q.head == len(q.items) {
			q.items = q.items[:0]
			q.head = 0
		} else if q.head >= 16 && q.head*2 >= len(q.items) {
			n := copy(q.items, q.items[q.head:])
			for i := n; i < len(q.items); i++ {
				q.items[i] = delayed{}
			}
			q.items = q.items[:n]
			q.head = 0
		}
	}
	at := now + q.latency
	q.items = append(q.items, delayed{pkt, at})
	return at
}

// pushBack re-enqueues a packet at the tail with an explicit ready cycle
// (retry backoff). The entry's readyAt may be later than entries pushed
// afterwards; the queue is head-blocking, so FIFO order still holds.
func (q *delayQueue) pushBack(pkt *noc.Packet, at sim.Cycle) {
	q.items = append(q.items, delayed{pkt, at})
}

// pushFront re-enqueues a packet at the head for immediate reprocessing
// (stall-and-wait wakeups).
func (q *delayQueue) pushFront(pkt *noc.Packet, at sim.Cycle) {
	if q.head > 0 {
		q.head--
		q.items[q.head] = delayed{pkt, at}
		return
	}
	q.items = append(q.items, delayed{})
	copy(q.items[1:], q.items)
	q.items[0] = delayed{pkt, at}
}

// pop returns the head packet if it has matured, else nil.
func (q *delayQueue) pop(now sim.Cycle) *noc.Packet {
	if q.head == len(q.items) || q.items[q.head].readyAt > now {
		return nil
	}
	p := q.items[q.head].pkt
	q.items[q.head] = delayed{}
	q.head++
	return p
}

// nextReady returns the cycle at which the head entry matures. The queue is
// head-blocking (later entries cannot be processed first), so this is the
// earliest cycle the controller can make progress on queued input.
func (q *delayQueue) nextReady() (sim.Cycle, bool) {
	if q.head == len(q.items) {
		return 0, false
	}
	return q.items[q.head].readyAt, true
}

// live returns the live entries in FIFO order (callers iterating the queue
// must not index items directly: entries before head are dead).
func (q *delayQueue) live() []delayed { return q.items[q.head:] }

// removeIf deletes queued packets matching the predicate and returns them
// (LLC request coalescing scans its input queue for same-line reads).
func (q *delayQueue) removeIf(match func(*noc.Packet) bool) []*noc.Packet {
	var out []*noc.Packet
	live := q.items[q.head:]
	kept := live[:0]
	for _, d := range live {
		if match(d.pkt) {
			out = append(out, d.pkt)
		} else {
			kept = append(kept, d)
		}
	}
	for i := len(kept); i < len(live); i++ {
		live[i] = delayed{}
	}
	q.items = q.items[:q.head+len(kept)]
	return out
}

// outbox buffers outgoing packets until the NI accepts them, so controllers
// never block mid-transition on injection backpressure.
type outbox struct {
	ni   *noc.NI     `snap:"-,wiring"`
	cfg  *noc.Config `snap:"-,config"`
	unit stats.Unit  `snap:"-,config"`
	// h, when set, is woken on every send: a sleeping controller with a
	// non-empty outbox must tick to retry injection.
	h    *sim.Handle `snap:"-,wiring"`
	pkts []*noc.Packet
}

// send writes m into a pool-backed packet from the outbox's unit to dstUnit
// at dests and queues it for injection. It is the controllers' one send.
func (o *outbox) send(m coherence.Msg, dests noc.DestSet, dstUnit stats.Unit) {
	p := o.ni.NewPacket()
	m.FillPacket(p, *o.cfg, o.unit, dstUnit, dests)
	o.pkts = append(o.pkts, p)
	if o.h != nil {
		o.h.Wake()
	}
}

// heldPush reports whether a same-line push is among the packets already held
// back this drain pass.
func heldPush(held []*noc.Packet, addr uint64) bool {
	for _, p := range held {
		if p.IsPush && p.Addr == addr {
			return true
		}
	}
	return false
}

// drain injects as many buffered packets as the NI accepts this cycle,
// preserving order per virtual network. An invalidation is additionally
// held behind any same-line push still waiting in the outbox: OrdPush's
// in-network ordering only protects packets that have entered the NoC, so
// the ordering must also be enforced here, before injection.
func (o *outbox) drain(now sim.Cycle) {
	kept := o.pkts[:0]
	blocked := [noc.NumVNets]bool{}
	for _, p := range o.pkts {
		if p.IsInv && heldPush(kept, p.Addr) {
			blocked[p.VNet] = true
			kept = append(kept, p)
			continue
		}
		if blocked[p.VNet] || !o.ni.Inject(p, now) {
			blocked[p.VNet] = true
			kept = append(kept, p)
			continue
		}
	}
	for i := len(kept); i < len(o.pkts); i++ {
		o.pkts[i] = nil
	}
	o.pkts = kept
}

// congested reports whether the outbox is backing up; controllers pause
// processing new work when it is.
func (o *outbox) congested() bool { return len(o.pkts) >= 8 }
