package noc

import (
	"errors"

	"pushmulticast/internal/sim"
)

// LossVerdict is the fate a lossy fault assigns to one packet arrival at an
// NI: intact, discarded, delivered twice, or payload-corrupted (caught by the
// per-packet checksum and then discarded like a drop).
type LossVerdict uint8

// Loss verdicts.
const (
	LossNone LossVerdict = iota
	LossDrop
	LossDup
	LossCorrupt
)

// ErrUnrecoverable is the loud-failure sentinel of the recovery layer: a
// sender NI exhausted MaxRetries retransmissions of one window entry without
// an ack. Runs abort promptly with this error (wrapped with the sender and
// stream identity) and a trace tail — never a silent hang or a watchdog
// deadlock, since MaxRetries*RetryTimeout is far below the progress watchdog.
var ErrUnrecoverable = errors.New("noc: message unrecoverable after max retries")

// FaultHook is the network's view of the fault-injection layer
// (internal/fault implements it). Every method must be a pure function of
// (fault plan, cycle, component identity, packet identity) so that a fault
// schedule replays byte-identically on the wake-driven and dense kernels,
// whose tick counts differ: a method may keep bookkeeping (clamp state,
// counters) only where the call itself is part of simulated behaviour.
type FaultHook interface {
	// RouterFrozen reports that the router's pipeline is held this cycle
	// (RouterSlow); the router skips its entire tick and stays awake.
	RouterFrozen(node NodeID, now sim.Cycle) bool
	// FrozenIn reports that the router was frozen at some cycle in
	// [from, to]; the conservation audit uses it to excuse unrouted heads a
	// frozen router legitimately left overdue.
	FrozenIn(node NodeID, from, to sim.Cycle) bool
	// LinkBlocked reports that the router's output port accepts no new
	// replica allocation this cycle (LinkStall); in-flight streams finish.
	LinkBlocked(node NodeID, port int, now sim.Cycle) bool
	// Arrival maps a head flit's base arrival cycle on the router's output
	// port to its (possibly jittered) faulted arrival. Implementations must
	// keep per-port arrivals monotonic so links never reorder.
	Arrival(node NodeID, port int, now, base sim.Cycle, pktID uint64, vnet int) sim.Cycle
	// InjQueueCap returns the NI's effective injection-queue depth, at most
	// the configured depth (InjSpike). Must be a pure read: endpoints poll
	// it a kernel-dependent number of times.
	InjQueueCap(node NodeID, depth int) int
	// SuppressFilterHit reports that the router's filter bank is offline for
	// lookups this cycle (FilterDrop); hits are treated as misses.
	SuppressFilterHit(node NodeID, now sim.Cycle) bool
	// LossyEnabled reports whether the plan schedules any lossy kind
	// (MsgDrop/MsgDup/MsgCorrupt); the network arms its end-to-end recovery
	// layer only when it does.
	LossyEnabled() bool
	// LossyVerdict decides the fate of one packet arrival at the node's NI.
	// Must be a pure read.
	LossyVerdict(node NodeID, now sim.Cycle, pktID uint64) LossVerdict
}

// SetFaults installs the fault hook. Must be called before the first tick;
// a nil hook (the default) keeps every fault check off the hot paths. A hook
// with lossy faults scheduled arms the recovery layer: NIs allocate their
// retransmit windows and dedup state here, so fault-free runs pay nothing.
func (n *Network) SetFaults(h FaultHook) {
	n.faults = h
	if h != nil && h.LossyEnabled() {
		n.lossy = true
		for _, ni := range n.nis {
			ni.initTransport()
		}
	}
}

// WakeTile wakes a tile's router and NI. The fault injector calls it at
// window boundaries: a router whose traffic a fault blocked may be asleep
// with no other wake coming once the fault lifts. Spurious wakes are
// harmless in every kernel (a quiescent component's tick is a no-op).
func (n *Network) WakeTile(node NodeID) {
	n.routers[node].h.Wake()
	n.nis[node].h.Wake()
}
