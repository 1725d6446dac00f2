package noc

import (
	"sync/atomic"

	"pushmulticast/internal/sim"
)

// Single-producer single-consumer rings carrying the two kinds of
// cross-router traffic that used to be direct neighbour-state writes: head
// flit handoffs travelling down a link, and credit returns travelling back
// up it. Routing all neighbour communication through these rings (plus the
// engine's staged wakes) is what lets routers tick on parallel lanes: a
// router's tick then touches only its own state, its own rings' consumer
// ends, and the producer end of the rings it feeds.
//
// Each ring has exactly one producer and one consumer, fixed at wiring
// time: the arrivals ring behind input port p is fed only by the adjacent
// router's output stream through that link, and a credit-return ring is fed
// only by the ring's owner and drained only by that same neighbour. Entry
// maturity times are non-decreasing per ring (arrival jitter is clamped
// monotonic per port, and credits are stamped in tick order), so the
// consumer pops a prefix of matured entries and stops at the first future
// one. An entry pushed while the consumer is mid-pop always carries a
// maturity time beyond the current cycle, so a racy tail read can never
// change what a pop consumes — only whether the not-yet-due entry is seen
// at all, which the producer's staged WakeAt covers.
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

// arrRing is the SPSC ring of head-flit handoffs behind one router input
// port. Producer: the upstream router's sendFlit. Consumer: the owning
// router's acceptArrivals.
type arrRing struct {
	head, tail atomic.Uint32 `snap:"-,derived: only the live window travels"`
	buf        [ringCap]arrEntry
}

// push appends a handoff. Producer side only.
func (r *arrRing) push(pkt *Packet, at sim.Cycle) {
	t := r.tail.Load()
	if t-r.head.Load() >= ringCap {
		panic("noc: arrival ring overflow (credit invariant broken)")
	}
	r.buf[t%ringCap] = arrEntry{pkt: pkt, at: at}
	r.tail.Store(t + 1)
}

// pop removes and returns the oldest entry if it has matured by now.
// Consumer side only.
func (r *arrRing) pop(now sim.Cycle) (*Packet, sim.Cycle, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return nil, 0, false
	}
	e := r.buf[h%ringCap]
	if e.at > now {
		return nil, 0, false
	}
	r.buf[h%ringCap] = arrEntry{}
	r.head.Store(h + 1)
	return e.pkt, e.at, true
}

// earliest returns the oldest entry's maturity time. Entry times are
// non-decreasing, so this is the ring's minimum. Consumer side only.
func (r *arrRing) earliest() (sim.Cycle, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return 0, false
	}
	return r.buf[h%ringCap].at, true
}

// forEach visits every queued entry, oldest first. Only safe from the
// consumer at a quiescent point (the serial checker / Quiescent scans).
func (r *arrRing) forEach(fn func(pkt *Packet, at sim.Cycle)) {
	for h, t := r.head.Load(), r.tail.Load(); h != t; h++ {
		e := r.buf[h%ringCap]
		fn(e.pkt, e.at)
	}
}

// len returns the number of queued entries (checker use).
func (r *arrRing) len() int { return int(r.tail.Load() - r.head.Load()) }

// credEntry is one credit return: the vnet whose downstream VC freed, and
// the cycle the upstream router may reuse it.
type credEntry struct {
	vnet int32
	at   sim.Cycle
}

// credRing is the SPSC ring of credit returns travelling from a router back
// to the upstream neighbour behind one of its input ports. Producer: the
// owning router's release. Consumer: the upstream router's acceptCredits.
type credRing struct {
	head, tail atomic.Uint32 `snap:"-,derived: only the live window travels"`
	buf        [ringCap]credEntry
}

// push appends a credit return. Producer side only.
func (r *credRing) push(vnet int, at sim.Cycle) {
	t := r.tail.Load()
	if t-r.head.Load() >= ringCap {
		panic("noc: credit ring overflow (credit invariant broken)")
	}
	r.buf[t%ringCap] = credEntry{vnet: int32(vnet), at: at}
	r.tail.Store(t + 1)
}

// pop removes and returns the oldest credit if it has matured by now.
// Consumer side only.
func (r *credRing) pop(now sim.Cycle) (int, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return 0, false
	}
	e := r.buf[h%ringCap]
	if e.at > now {
		return 0, false
	}
	r.buf[h%ringCap] = credEntry{}
	r.head.Store(h + 1)
	return int(e.vnet), true
}

// earliest returns the oldest credit's maturity time. Consumer side only.
func (r *credRing) earliest() (sim.Cycle, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return 0, false
	}
	return r.buf[h%ringCap].at, true
}

// count returns the number of queued credits for the given vnet (checker
// use; only safe at a quiescent point).
func (r *credRing) count(vnet int) int {
	n := 0
	for h, t := r.head.Load(), r.tail.Load(); h != t; h++ {
		if int(r.buf[h%ringCap].vnet) == vnet {
			n++
		}
	}
	return n
}
