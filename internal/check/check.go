// Package check implements the runtime coherence-invariant checker: a
// monitor component that registers on the simulation engine *after* every
// other component, judges the cycle's trace events every cycle it is woken,
// and periodically sweeps the machine's global state for protocol invariant
// violations.
//
// The monitor validates two classes of property:
//
//   - Event-driven invariants, checked as trace events stream past: filter
//     soundness (a filter bank or home slice never squashes a GetS whose
//     answer is not already guaranteed in flight) and OrdPush ordering (an
//     invalidation never overtakes an earlier push to the same line from
//     the same source — the property the ordered-push protocol exists to
//     provide).
//   - Structural invariants, swept every CheckEvery cycles: SWMR, directory
//     sharers-superset and data-value coherence (Coherence), L1 ⊆ L2
//     inclusion, the caches' tag indexes and directories, and per-VC
//     credit/occupancy conservation in every router. The cache checks look
//     only at what changed: the monitor tracks every cache array, which
//     marks each way it hands out, and a sweep judges the marked ways and
//     the lines they stopped holding (every way, on the first sweep after a
//     build or a restore).
//
// The first violation is sticky: Err() reports it with the cycle it was
// detected, and the run loop in core aborts and dumps the trace tail.
package check

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/trace"
)

// ErrViolation wraps every invariant violation the monitor detects.
var ErrViolation = errors.New("invariant checker violation")

// DefaultCheckEvery is the structural sweep period when the config leaves
// CheckEvery at zero.
const DefaultCheckEvery = 64

// pktTrack follows one multicast packet (push or invalidation) from
// injection until every replica has been delivered.
type pktTrack struct {
	addr uint64
	src  int32
	push bool        // a push; an invalidation otherwise
	seq  uint64      // per-source injection serial
	left noc.DestSet // destinations not yet delivered
	// next is the ID of the next in-flight push to the same line (noPush at
	// the end of the line's list); unused on an invalidation.
	next uint64
}

// noPush ends a line's list of in-flight pushes: packet IDs carry their
// source node in the high word, and no node is numbered 2^32-1.
const noPush = ^uint64(0)

// Monitor is the invariant checker. It implements sim.Ticker and must be
// registered last so that, within any cycle, it ticks after every emitter
// and judges the cycle's events against the state they left.
type Monitor struct {
	cfg  *config.System `snap:"-,config"`
	net  *noc.Network   `snap:"-,wiring"`
	l2s  []*cache.L2    `snap:"-,wiring"`
	llcs []*cache.LLC   `snap:"-,wiring"`
	tr   *trace.Tracer  `snap:"-,wiring"`
	// coh judges the lines each sweep's marks touched.
	coh *Coherence `snap:"-,derived: its holder index is rebuilt by the first sweep after a restore, which sees every way marked"`
	// onSweep, when set, runs at the start of every sweep, before the marks
	// are read (tests).
	onSweep func() `snap:"-,wiring"`

	h          *sim.Handle `snap:"-,wiring"`
	checkEvery sim.Cycle   `snap:"-,config"`
	nextScan   sim.Cycle

	// Sticky first violation.
	err error `snap:"-,transient: a monitor with a violation refuses to snapshot"`

	// OrdPush ordering state: per-source injection serials and one table of
	// in-flight pushes and invalidations, keyed by packet ID (multicast
	// replicas share their parent's ID). pushLines indexes the pushes by
	// line: the first of each line's list.
	ordered   bool `snap:"-,config"`
	seq       []uint64
	tracks    map[uint64]pktTrack
	pushLines map[uint64]uint64 `snap:"-,derived: relinked from the pushes in tracks after decoding"`

	// Lossy-recovery state (armed when the fault plan schedules message
	// loss): every non-orphan KMsgDrop/KMsgCorrupt opens an obligation that
	// a KMsgRecover on the same (node, stream key) must close before the age
	// bound — the "every dropped message is eventually retransmitted or the
	// run aborts" invariant. open lists the obligations in (node, key)
	// order; at most a few hundred are open at a time (273 at 100 per mille
	// on tiny 16-tile runs), so it is searched, not indexed. lossSeq keeps
	// the smallest OrdPush injection serial of the copies lost under each
	// stream key, so a retransmission clone (which gets a fresh packet ID
	// and a fresh, artificially late serial) inherits the original's place
	// in the ordering; it lives while an obligation names its key.
	lossy     bool `snap:"-,config"`
	open      []obligation
	lossSeq   map[uint64]uint64
	lossBound uint64 `snap:"-,config"`
}

// obligation is one open loss obligation: the NI that discarded the message,
// the transport stream key it carried, and the cycle of its latest loss.
type obligation struct {
	node int32
	key  uint64
	at   uint64
}

// compareObligations orders obligations by (node, key).
func compareObligations(a, b obligation) int {
	return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.key, b.key))
}

// New builds a monitor. tr must be the tracer every component emits into.
// The monitor tracks every array of the given caches from here on.
func New(cfg *config.System, net *noc.Network, l2s []*cache.L2, llcs []*cache.LLC, tr *trace.Tracer) *Monitor {
	m := &Monitor{
		cfg:  cfg,
		net:  net,
		l2s:  l2s,
		llcs: llcs,
		tr:   tr,
		coh:  NewCoherence(cfg, l2s, llcs),
	}
	m.checkEvery = sim.Cycle(cfg.CheckEvery)
	if m.checkEvery <= 0 {
		m.checkEvery = DefaultCheckEvery
	}
	for i, l2 := range l2s {
		l2.Array().Track()
		l2.L1().Array().Track()
		llcs[i].Array().Track()
	}
	if cfg.Scheme.Push && cfg.Scheme.Protocol == config.ProtoOrdPush {
		m.ordered = true
		m.seq = make([]uint64, cfg.Tiles())
		m.tracks = make(map[uint64]pktTrack)
		m.pushLines = make(map[uint64]uint64)
	}
	if cfg.Faults.Lossy() {
		m.lossy = true
		m.lossSeq = make(map[uint64]uint64)
		// A drop must be healed within the transport's full retry budget
		// (with slack for queueing and the final in-flight hop); past that,
		// either the retransmissions are not happening or the recovery
		// bookkeeping lost the key — both are liveness bugs the abort path
		// should have caught first.
		m.lossBound = uint64(cfg.NoC.MaxRetries+4)*uint64(cfg.NoC.RetryTimeout) + 20_000
	}
	return m
}

// Register installs the monitor on the engine and attaches it to the
// tracer. Call it after every other component has been registered: the
// engine ticks components in registration order, so registering last
// guarantees the monitor drains the trace after all of a cycle's emissions.
func (m *Monitor) Register(eng *sim.Engine) {
	m.h = eng.Register(m)
	m.tr.Attach(m.h)
	m.nextScan = m.checkEvery
	m.h.SleepUntil(m.nextScan)
}

// Err returns the first violation detected, or nil.
func (m *Monitor) Err() error { return m.err }

func (m *Monitor) fail(cycle uint64, format string, args ...any) {
	if m.err != nil {
		return
	}
	// Under fault injection the checker stays fully armed — a legal fault
	// plan must never violate an invariant — but a failure then means the
	// graceful-degradation contract broke, which is a different bug hunt
	// than a clean-run violation; annotate so the two are never confused.
	if m.cfg.Faults != nil && len(m.cfg.Faults.Faults) > 0 {
		m.err = fmt.Errorf("%w at cycle %d (fault injection active; degradation contract breached): %s",
			ErrViolation, cycle, fmt.Sprintf(format, args...))
		return
	}
	m.err = fmt.Errorf("%w at cycle %d: %s", ErrViolation, cycle, fmt.Sprintf(format, args...))
}

// Tick judges the cycle's trace events and, on scan boundaries, sweeps the
// structural invariants.
func (m *Monitor) Tick(now sim.Cycle) {
	m.tr.Drain(m.checkEvent)
	if now >= m.nextScan {
		if m.err == nil {
			m.scan(now)
		}
		m.nextScan = now + m.checkEvery
	}
	m.h.SleepUntil(m.nextScan)
}

// checkEvent validates the event-driven invariants on one trace record.
func (m *Monitor) checkEvent(e trace.Event) {
	if m.err != nil {
		return
	}
	switch e.Kind {
	case trace.KFilterHit, trace.KFilterStationary, trace.KFilterHome:
		m.checkFilterSoundness(e)
	case trace.KInject:
		if m.ordered {
			m.trackInject(e)
		}
	case trace.KDeliver:
		if m.ordered {
			m.trackDeliver(e)
		}
	case trace.KMsgDrop, trace.KMsgCorrupt:
		m.trackLoss(e)
	case trace.KMsgDup:
		if m.ordered {
			m.clearReplica(e, false)
		}
	case trace.KMsgRecover:
		m.trackRecover(e)
	case trace.KRetransmit:
		if m.ordered {
			m.inheritSerial(e)
		}
	}
}

// trackLoss opens (or refreshes) the recovery obligation for a discarded
// message and, in ordered mode, retires the lost replica from its packet's
// tracking entry — the retransmission clone, injected under a fresh ID,
// takes over from here.
func (m *Monitor) trackLoss(e trace.Event) {
	orphan := e.B&1 != 0
	if m.ordered {
		m.clearReplica(e, m.lossy && !orphan)
	}
	if !m.lossy || orphan {
		return // orphan drop: nothing will, or needs to, carry this key again
	}
	o := obligation{node: e.Node, key: e.Aux.Scalar(), at: e.Cycle}
	if i, found := slices.BinarySearchFunc(m.open, o, compareObligations); found {
		m.open[i].at = e.Cycle
	} else {
		m.open = slices.Insert(m.open, i, o)
	}
}

// trackRecover closes the obligation the re-arrival of a dropped stream key
// discharges, and forgets the key's serial once no obligation names it.
func (m *Monitor) trackRecover(e trace.Event) {
	if !m.lossy {
		return
	}
	key := e.Aux.Scalar()
	i, found := slices.BinarySearchFunc(m.open, obligation{node: e.Node, key: key}, compareObligations)
	if !found {
		return
	}
	m.open = slices.Delete(m.open, i, i+1)
	if !slices.ContainsFunc(m.open, func(o obligation) bool { return o.key == key }) {
		delete(m.lossSeq, key)
	}
}

// clearReplica retires the replica a loss event names (the copy headed for
// e.Node under packet e.ID). For a suppressed duplicate the node already
// received the packet, so the clear is an idempotent no-op. recordSeq
// additionally keeps the packet's injection serial under its stream key, for
// the retransmission clone to inherit (see inheritSerial). Every copy of a
// message is injected no earlier than the original, so the smallest serial
// recorded is the original's: a timeout clone lost after it must not move
// the key's place forward.
func (m *Monitor) clearReplica(e trace.Event, recordSeq bool) {
	p, ok := m.tracks[e.ID]
	if !ok {
		return
	}
	if recordSeq {
		key := e.Aux.Scalar()
		if seq, kept := m.lossSeq[key]; !kept || p.seq < seq {
			m.lossSeq[key] = p.seq
		}
	}
	m.retire(e.ID, p, noc.NodeID(e.Node))
}

// inheritSerial rewrites a retransmission clone's injection serial to the
// original's: the clone was injected just now (fresh ID, late serial), but
// it logically occupies the dropped packet's slot in the OrdPush order, and
// judging it by its re-injection time would fabricate ordering violations.
func (m *Monitor) inheritSerial(e trace.Event) {
	seq, ok := m.lossSeq[e.Aux.Scalar()]
	if !ok {
		return
	}
	if p, tracked := m.tracks[e.ID]; tracked {
		p.seq = seq
		m.tracks[e.ID] = p
	}
}

// checkFilterSoundness asserts that squashing the requester's GetS was
// legal: the data it wants must already be headed its way (a covering push
// in flight in the mesh, a push queued at the home slice, or data already
// pending at its own L2), or the requester must no longer have a read
// outstanding for the line (its MSHR entry was satisfied or cancelled, so
// the squashed request was a stale duplicate). This is the liveness side
// of lazy filter de-registration: a stale entry that survives past its
// registration's usefulness must never eat a request that still needs an
// answer.
func (m *Monitor) checkFilterSoundness(e trace.Event) {
	req := noc.NodeID(e.A)
	if int(req) < 0 || int(req) >= len(m.l2s) {
		m.fail(e.Cycle, "filter event with bad requester: %s", e)
		return
	}
	// Any one answer clears the squash; the walk of the whole network goes
	// last.
	l2 := m.l2s[req]
	if !l2.ReadOutstanding(e.Addr) || l2.IncomingDataPending(e.Addr) ||
		e.Kind == trace.KFilterHome && m.llcs[e.Node].PushQueued(e.Addr, req) ||
		m.net.PushInFlight(e.Addr, req) {
		return
	}
	m.fail(e.Cycle, "unsound filter squash: requester %d still awaits line %#x with no covering push in flight (%s)",
		req, e.Addr, e)
}

// trackInject assigns the packet its per-source injection serial and
// starts tracking pushes and invalidations.
func (m *Monitor) trackInject(e trace.Event) {
	m.seq[e.Node]++
	p := pktTrack{addr: e.Addr, src: e.Node, push: e.B&trace.FlagPush != 0,
		seq: m.seq[e.Node], left: noc.DestSet(e.Aux)}
	switch {
	case p.push:
		m.linkPush(e.ID, p)
	case e.B&trace.FlagInv != 0:
		m.tracks[e.ID] = p
	}
}

// linkPush tracks push id, heading its line's list.
func (m *Monitor) linkPush(id uint64, p pktTrack) {
	p.next = noPush
	if head, ok := m.pushLines[p.addr]; ok {
		p.next = head
	}
	m.tracks[id] = p
	m.pushLines[p.addr] = id
}

// retire retires packet id's replica at tile at, and the packet once no
// replica is left, unlinking a push from its line's list.
func (m *Monitor) retire(id uint64, p pktTrack, at noc.NodeID) {
	if p.left = p.left.Remove(at); !p.left.Empty() {
		m.tracks[id] = p
		return
	}
	delete(m.tracks, id)
	if !p.push {
		return
	}
	if m.pushLines[p.addr] == id {
		if p.next == noPush {
			delete(m.pushLines, p.addr)
		} else {
			m.pushLines[p.addr] = p.next
		}
		return
	}
	for prev := m.pushLines[p.addr]; ; {
		q := m.tracks[prev]
		if q.next == id {
			q.next = p.next
			m.tracks[prev] = q
			return
		}
		prev = q.next
	}
}

// trackDeliver retires delivered replicas and asserts the OrdPush ordering
// invariant: an invalidation delivered at a tile must not leave behind an
// undelivered push to the same line, from the same source, injected
// earlier — if it does, the invalidation overtook the push and the stale
// data will be installed after the line was invalidated. Of several
// overtaken pushes, the earliest injected is the one reported.
func (m *Monitor) trackDeliver(e trace.Event) {
	if e.B&(trace.FlagPush|trace.FlagInv) == 0 {
		return // neither tracked nor ordered
	}
	at := noc.NodeID(e.Node)
	p, ok := m.tracks[e.ID]
	if !ok {
		return // injected before tracking began; nothing to order against
	}
	if !p.push {
		overtaken, found := noPush, false
		var worst pktTrack
		for id, listed := m.pushLines[p.addr]; listed && id != noPush; {
			q := m.tracks[id]
			if q.src == p.src && q.seq < p.seq && q.left.Has(at) && (!found || q.seq < worst.seq) {
				overtaken, worst, found = id, q, true
			}
			id = q.next
		}
		if found {
			m.fail(e.Cycle, "OrdPush ordering violated: inv (src %d seq %d) delivered at tile %d before push id %#x (seq %d) to line %#x",
				p.src, p.seq, at, overtaken, worst.seq, worst.addr)
			return
		}
	}
	m.retire(e.ID, p, at)
}

// scanLossAge asserts the recovery liveness invariant: no dropped message
// may stay unrecovered past the transport's full retry budget. The worst
// offender is the oldest, ties going to the first in (node, key) order.
func (m *Monitor) scanLossAge(cyc uint64) {
	var worst obligation
	found := false
	for _, o := range m.open {
		if cyc-o.at > m.lossBound && (!found || o.at < worst.at) {
			worst, found = o, true
		}
	}
	if found {
		m.fail(cyc, "message loss never recovered: stream key %#x dropped at tile %d on cycle %d, still outstanding after %d cycles (bound %d)",
			worst.key, worst.node, worst.at, cyc-worst.at, m.lossBound)
	}
}

// scan sweeps the structural invariants. The cache checks judge what the
// arrays marked since the last sweep, and a tile's marks are cleared once
// its checks have passed.
func (m *Monitor) scan(now sim.Cycle) {
	if m.onSweep != nil {
		m.onSweep()
	}
	cyc := uint64(now)
	if m.lossy {
		m.scanLossAge(cyc)
		if m.err != nil {
			return
		}
	}
	if err := m.coh.sweep(); err != nil {
		m.fail(cyc, "%v", err)
		return
	}
	if err := m.net.CheckConservation(now); err != nil {
		m.fail(cyc, "%v", err)
		return
	}
	for i, l2 := range m.l2s {
		if m.scanTile(cyc, i, l2, m.llcs[i]); m.err != nil {
			return
		}
		l2.Array().ClearMarks()
		l2.L1().Array().ClearMarks()
		m.llcs[i].Array().ClearMarks()
	}
}

// scanTile audits tile i's tag indexes and LLC directory on the ways they
// marked, and asserts L1 ⊆ L2 for every line a marked way holds or an L2 way
// stopped holding: every valid L1 line must be backed by an L2 line in a
// state with readable or incoming data. The audits run first: a drifted index
// would hide exactly the lines the inclusion check is after.
func (m *Monitor) scanTile(cyc uint64, i int, l2 *cache.L2, llc *cache.LLC) {
	if err := l2.AuditMarked(); err != nil {
		m.fail(cyc, "tile %d cache tag index: %v", i, err)
		return
	}
	if err := llc.AuditMarked(); err != nil {
		m.fail(cyc, "LLC slice %d tag index: %v", i, err)
		return
	}
	l1 := l2.L1().Array()
	included := func(addr uint64, _ *cache.Line) {
		if m.err != nil || l1.Peek(addr) == nil {
			return
		}
		backing := l2.Line(addr)
		if backing == nil {
			m.fail(cyc, "inclusion violated: line %#x valid in L1 of tile %d but absent from its L2", addr, i)
			return
		}
		switch backing.State {
		case cache.StateS, cache.StateM, cache.StateSMD:
		default:
			m.fail(cyc, "inclusion violated: line %#x valid in L1 of tile %d but L2 holds it in %v", addr, i, backing.State)
		}
	}
	l1.ForEachMarked(included)
	l2.Array().ForEachMarked(included)
	for _, addr := range l2.Array().Freed() {
		included(addr, nil)
	}
}
