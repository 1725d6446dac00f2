// Package trace provides a bounded, structured event trace for the
// simulator: components emit fixed-size events into the run's one Tracer,
// which folds each into a bounded ring buffer plus a running hash of the
// full event history as it is emitted.
//
// The design has two consumers:
//
//   - Debugging: on a checker violation, watchdog deadlock, or panic, the
//     last N events are dumped, turning "cycle 21262 differs" into a
//     replayable causal history.
//   - Equivalence: the running hash covers *every* event ever emitted, in a
//     deterministic order, so comparing (hash, count) across the
//     wake-driven and dense kernels compares full causal histories rather
//     than end-state counters.
//
// Determinism contract: a simulation runs on one goroutine, and both kernels
// run every tick that does work in registration order, so the history's
// order — (cycle, tick order, program order), the order of emission — is
// the same on either kernel. The invariant checker, when one is attached,
// judges each cycle's events after every emitter has ticked.
package trace

import (
	"fmt"
	"io"
	"math/bits"

	"pushmulticast/internal/sim"
)

// Kind identifies the type of a traced event.
type Kind uint8

// Event kinds. The A/B/Aux fields are kind-specific; see the comments.
const (
	// KInject: packet injected at an NI. Node = source tile, A = dest unit,
	// B = flag bits, Aux = destination set.
	KInject Kind = iota
	// KDeliver: packet delivered by an NI to its local endpoint. Node =
	// delivering tile, A = dest unit, B = flag bits, Aux = destination set
	// at injection.
	KDeliver
	// KFilterReg: filter entry registered at a router for a passing request.
	// Node = router, A = output port, B = input port.
	KFilterReg
	// KFilterClear: lazy de-registration scheduled after a push tail flit.
	// Node = router, A = output port, B = input port.
	KFilterClear
	// KFilterHit: in-flight request squashed by a router filter entry.
	// Node = router, A = requester tile.
	KFilterHit
	// KFilterStationary: request squashed by the stationary (local-port)
	// filter. Node = router, A = requester tile.
	KFilterStationary
	// KFilterHome: request pruned at the home LLC slice because a covering
	// push is queued or in flight. Node = home tile, A = requester tile.
	KFilterHome
	// KPushTrigger: home LLC slice triggered a push. Node = home tile,
	// A = requester tile (or -1), Aux = destination set.
	KPushTrigger
	// KMemRead: memory controller performed a line read. Node = controller
	// tile, A = requester tile.
	KMemRead
	// KMemWrite: memory controller performed a line writeback. Node =
	// controller tile, A = requester tile.
	KMemWrite
	// KMsgDrop: a MsgDrop fault discarded a packet at the receiving NI.
	// Node = receiving tile, A = source tile, Aux = transport stream key
	// (seq | stream<<32 | src<<40).
	KMsgDrop
	// KMsgCorrupt: checksum verification failed under a MsgCorrupt fault;
	// the packet was discarded like a drop. Fields as KMsgDrop.
	KMsgCorrupt
	// KMsgDup: receiver dedup suppressed an already-delivered arrival.
	// Fields as KMsgDrop.
	KMsgDup
	// KMsgRecover: a previously dropped/corrupted transport stream key was
	// delivered (or dedup-suppressed) at the same NI — the loss is healed.
	// Fields as KMsgDrop.
	KMsgRecover
	// KRetransmit: sender NI re-injected an unacked window entry after a
	// timeout. Node = sender tile, ID = the retransmit copy's packet ID,
	// Aux = transport stream key, A = retry count.
	KRetransmit

	numKinds
)

var kindNames = [numKinds]string{
	KInject:           "inject",
	KDeliver:          "deliver",
	KFilterReg:        "filter-reg",
	KFilterClear:      "filter-clear",
	KFilterHit:        "filter-hit",
	KFilterStationary: "filter-stationary",
	KFilterHome:       "filter-home",
	KPushTrigger:      "push-trigger",
	KMemRead:          "mem-read",
	KMemWrite:         "mem-write",
	KMsgDrop:          "msg-drop",
	KMsgCorrupt:       "msg-corrupt",
	KMsgDup:           "msg-dup",
	KMsgRecover:       "msg-recover",
	KRetransmit:       "retransmit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Flag bits packed into Event.B for KInject/KDeliver.
const (
	FlagPush       = 1 << iota // packet carries speculative push data
	FlagInv                    // packet is an invalidation
	FlagFilterable             // packet is a filterable request (GetS)
)

// Aux is the kind-specific wide payload of an event. Destination sets need
// four words to cover 256-node meshes (it converts directly to and from
// noc.DestSet); scalar payloads such as transport stream keys live in word 0
// (Scalar) with the rest zero.
type Aux [4]uint64

// Scalar returns word 0, the whole value for scalar-payload kinds.
func (a Aux) Scalar() uint64 { return a[0] }

// String renders the payload compactly: just word 0 unless the high words
// are populated.
func (a Aux) String() string {
	if a[1] == 0 && a[2] == 0 && a[3] == 0 {
		return fmt.Sprintf("%#x", a[0])
	}
	return fmt.Sprintf("%#x:%#x:%#x:%#x", a[3], a[2], a[1], a[0])
}

// Event is one fixed-size trace record.
type Event struct {
	Cycle uint64 // commit cycle of the emission
	Addr  uint64 // line address, when meaningful
	ID    uint64 // packet ID (shared by multicast replicas), when meaningful
	Aux   Aux    // kind-specific (destination sets, transport stream keys)
	Kind  Kind
	Node  int32 // emitting component's tile / router node
	A     int32 // kind-specific
	B     int32 // kind-specific
}

// String renders the event for trace dumps.
func (e Event) String() string {
	return fmt.Sprintf("cycle=%-8d %-17s node=%-3d addr=%#x a=%d b=%d id=%#x aux=%s",
		e.Cycle, e.Kind, e.Node, e.Addr, e.A, e.B, e.ID, e.Aux)
}

// Tracer is the run's one event history: the bounded ring of recent events
// and the running hash and count of every event emitted. A nil *Tracer is
// valid and makes Emit a no-op — tracing is off.
type Tracer struct {
	// h is the attached checker's handle (nil when none is): every Emit
	// queues its event in cycle and wakes it.
	h     *sim.Handle `snap:"-,wiring"`
	cycle []Event     `snap:"-,transient: empty at every barrier, where the checker has drained it"`
	ring  []Event
	next  int `snap:"-,derived: the ring travels oldest-first, so it restarts at 0"` // ring write position
	count uint64
	hash  uint64
}

// New returns a tracer retaining the last ringN events. ringN <= 0 keeps
// no ring (hash and count still accumulate).
func New(ringN int) *Tracer {
	t := &Tracer{hash: fnvOffset}
	if ringN > 0 {
		t.ring = make([]Event, 0, ringN)
	}
	return t
}

// Emit folds one event into the history. While a checker is attached it
// also queues the event for the checker's Drain and wakes it, so the event
// is judged this same cycle.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.record(e)
	if t.h != nil {
		t.cycle = append(t.cycle, e)
		t.h.Wake()
	}
}

// Attach attaches the checker whose scheduler handle is h.
func (t *Tracer) Attach(h *sim.Handle) { t.h = h }

// Drain hands fn the events emitted since the last drain, in emission
// order. The list keeps its capacity.
func (t *Tracer) Drain(fn func(Event)) {
	for _, e := range t.cycle {
		fn(e)
	}
	t.cycle = t.cycle[:0]
}

// FNV-1a 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPow[k] is fnvPrime to the k: FNV-1a folds a zero byte by multiplying by
// the prime alone, so k zero bytes are one multiplication by fnvPow[k].
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// mix folds the eight bytes of x, least significant first, into the hash:
// bytewise FNV-1a up to x's highest nonzero byte, and the zero bytes above
// it in one step. Most words a trace event carries are small or zero.
func (t *Tracer) mix(x uint64) {
	h, n := t.hash, (bits.Len64(x)+7)>>3
	for i := 0; i < n; i++ {
		h = (h ^ x&0xff) * fnvPrime
		x >>= 8
	}
	t.hash = h * fnvPow[8-n]
}

func (t *Tracer) record(e Event) {
	t.count++
	t.mix(e.Cycle)
	t.mix(e.Addr)
	t.mix(e.ID)
	for _, w := range e.Aux {
		t.mix(w)
	}
	t.mix(uint64(e.Kind)<<32 | uint64(uint32(e.Node)))
	t.mix(uint64(uint32(e.A))<<32 | uint64(uint32(e.B)))
	if cap(t.ring) == 0 {
		return
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.next] = e
	t.next = (t.next + 1) % len(t.ring)
}

// Hash returns the running FNV-1a hash of every event emitted so far.
func (t *Tracer) Hash() uint64 { return t.hash }

// Events returns the number of events emitted so far.
func (t *Tracer) Events() uint64 { return t.count }

// Tail returns the retained events, oldest first.
func (t *Tracer) Tail() []Event {
	if len(t.ring) < cap(t.ring) {
		out := make([]Event, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dump writes the retained tail, oldest first, to w.
func (t *Tracer) Dump(w io.Writer) {
	tail := t.Tail()
	fmt.Fprintf(w, "--- event trace tail: last %d of %d events ---\n", len(tail), t.count)
	for _, e := range tail {
		fmt.Fprintln(w, e.String())
	}
	fmt.Fprintf(w, "--- end trace (history hash %#x) ---\n", t.hash)
}
