package noc

import "pushmulticast/internal/sim"

// Link rings carry the two kinds of cross-router traffic: head flit handoffs
// travelling down a link, and credit returns travelling back up it. They are
// the link's timing model — a head matures two cycles after it is sent, a
// credit one cycle after its buffer frees — and the only way a router's tick
// reaches a neighbour: it touches its own state, the consumer end of the
// rings it drains, and the producer end of the rings it feeds, so tick order
// carries no timing meaning.
//
// Each ring has exactly one producer and one consumer, fixed at wiring
// time: the arrivals ring behind input port p is fed only by the adjacent
// router's output stream through that link, and a credit-return ring is fed
// only by the ring's owner and drained only by that same neighbour. Entry
// maturity times are non-decreasing per ring (arrival jitter is clamped
// monotonic per port, and credits are stamped in tick order), so the
// consumer pops a prefix of matured entries and stops at the first future
// one; the producer's WakeAt covers a consumer asleep when the entry lands.
//
// Capacity: per (input port, vnet) at most VCsPerVNet packets can be
// outstanding (credit-limited), and Validate caps NumVNets*VCsPerVNet at
// ringCap, so neither ring can overflow; push panics if that invariant is
// ever broken.

// ringCap is the fixed ring capacity (a power of two for cheap wrapping).
const ringCap = 16

// arrEntry is one head-flit handoff: the replica whose ownership moves
// downstream, and the cycle its head arrives there.
type arrEntry struct {
	pkt *Packet
	at  sim.Cycle
}

// arrRing is the ring of head-flit handoffs behind one router input
// port. Producer: the upstream router's sendFlit. Consumer: the owning
// router's acceptArrivals.
type arrRing struct {
	head, tail uint32 `snap:"-,derived: only the live window travels"`
	buf        [ringCap]arrEntry
}

// push appends a handoff. Producer side only.
func (r *arrRing) push(pkt *Packet, at sim.Cycle) {
	if r.tail-r.head >= ringCap {
		panic("noc: arrival ring overflow (credit invariant broken)")
	}
	r.buf[r.tail%ringCap] = arrEntry{pkt: pkt, at: at}
	r.tail++
}

// pop removes and returns the oldest entry if it has matured by now.
// Consumer side only.
func (r *arrRing) pop(now sim.Cycle) (*Packet, sim.Cycle, bool) {
	if r.head == r.tail {
		return nil, 0, false
	}
	e := r.buf[r.head%ringCap]
	if e.at > now {
		return nil, 0, false
	}
	r.buf[r.head%ringCap] = arrEntry{}
	r.head++
	return e.pkt, e.at, true
}

// earliest returns the oldest entry's maturity time; the ring must not be
// empty. Entry times are non-decreasing, so this is the ring's minimum.
// Consumer side only.
func (r *arrRing) earliest() sim.Cycle { return r.buf[r.head%ringCap].at }

// forEach visits every queued entry, oldest first (checker use).
func (r *arrRing) forEach(fn func(pkt *Packet, at sim.Cycle)) {
	for h := r.head; h != r.tail; h++ {
		e := r.buf[h%ringCap]
		fn(e.pkt, e.at)
	}
}

// len returns the number of queued entries.
func (r *arrRing) len() int { return int(r.tail - r.head) }

// credEntry is one credit return: the vnet whose downstream VC freed, and
// the cycle the upstream router may reuse it.
type credEntry struct {
	vnet int32
	at   sim.Cycle
}

// credRing is the ring of credit returns travelling from a router back
// to the upstream neighbour behind one of its input ports. Producer: the
// owning router's release. Consumer: the upstream router's acceptCredits.
type credRing struct {
	head, tail uint32 `snap:"-,derived: only the live window travels"`
	buf        [ringCap]credEntry
}

// push appends a credit return. Producer side only.
func (r *credRing) push(vnet int, at sim.Cycle) {
	if r.tail-r.head >= ringCap {
		panic("noc: credit ring overflow (credit invariant broken)")
	}
	r.buf[r.tail%ringCap] = credEntry{vnet: int32(vnet), at: at}
	r.tail++
}

// pop removes and returns the oldest credit if it has matured by now.
// Consumer side only.
func (r *credRing) pop(now sim.Cycle) (int, bool) {
	if r.head == r.tail {
		return 0, false
	}
	e := r.buf[r.head%ringCap]
	if e.at > now {
		return 0, false
	}
	r.buf[r.head%ringCap] = credEntry{}
	r.head++
	return int(e.vnet), true
}

// earliest returns the oldest credit's maturity time; the ring must not be
// empty. Consumer side only.
func (r *credRing) earliest() sim.Cycle { return r.buf[r.head%ringCap].at }

// len returns the number of queued credits.
func (r *credRing) len() int { return int(r.tail - r.head) }

// count returns the number of queued credits for the given vnet (checker
// use).
func (r *credRing) count(vnet int) int {
	n := 0
	for h := r.head; h != r.tail; h++ {
		if int(r.buf[h%ringCap].vnet) == vnet {
			n++
		}
	}
	return n
}
