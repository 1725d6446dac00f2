// Package check implements the runtime coherence-invariant checker: a
// monitor component that registers on the simulation engine *after* every
// other component, drains the structured event trace every cycle it is
// woken, and periodically sweeps the machine's global state for protocol
// invariant violations.
//
// The monitor validates two classes of property:
//
//   - Event-driven invariants, checked as trace events stream past: filter
//     soundness (a filter bank or home slice never squashes a GetS whose
//     answer is not already guaranteed in flight) and OrdPush ordering (an
//     invalidation never overtakes an earlier push to the same line from
//     the same source — the property the ordered-push protocol exists to
//     provide).
//   - Structural invariants, swept every CheckEvery cycles over a global
//     snapshot: SWMR and data-value coherence (delegated to the core
//     package's checker via a callback, avoiding an import cycle), the
//     directory sharers-superset property, L1 ⊆ L2 inclusion, and per-VC
//     credit/occupancy conservation in every router.
//
// The first violation is sticky: Err() reports it with the cycle it was
// detected, and the run loop in core aborts and dumps the trace tail.
package check

import (
	"errors"
	"fmt"

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
	seq  uint64      // per-source injection serial
	left noc.DestSet // destinations not yet delivered
}

// Monitor is the invariant checker. It implements sim.Ticker and must be
// registered last so that, within any cycle, it ticks after every emitter
// — this is what makes the trace drain order deterministic across the
// wake-driven and dense kernels.
type Monitor struct {
	cfg       *config.System `snap:"-,config"`
	net       *noc.Network   `snap:"-,wiring"`
	l2s       []*cache.L2    `snap:"-,wiring"`
	llcs      []*cache.LLC   `snap:"-,wiring"`
	coherence func() error   `snap:"-,wiring"` // core's SWMR/data-value snapshot checker
	tr        *trace.Tracer  `snap:"-,wiring"`

	h          *sim.Handle `snap:"-,wiring"`
	checkEvery sim.Cycle   `snap:"-,config"`
	nextScan   sim.Cycle

	// Sticky first violation.
	err error `snap:"-,transient: a monitor with a violation refuses to snapshot"`

	// OrdPush ordering state: per-source injection serials and the set of
	// in-flight pushes and invalidations, keyed by packet ID (multicast
	// replicas share their parent's ID).
	ordered bool `snap:"-,config"`
	seq     []uint64
	pushes  map[uint64]*pktTrack
	invs    map[uint64]*pktTrack

	// Lossy-recovery state (armed when the fault plan schedules message
	// loss): every non-orphan KMsgDrop/KMsgCorrupt opens an obligation that
	// a KMsgRecover on the same (node, stream key) must close before the age
	// bound — the "every dropped message is eventually retransmitted or the
	// run aborts" invariant. lossSeq remembers the dropped packet's OrdPush
	// injection serial per stream key so a retransmission clone (which gets
	// a fresh packet ID and a fresh, artificially late serial) inherits the
	// original's place in the ordering; lossRef counts the nodes holding an
	// open obligation per key so lossSeq lives exactly as long as any does.
	lossy       bool `snap:"-,config"`
	pendingLoss map[lossKey]uint64
	lossRef     map[uint64]int
	lossSeq     map[uint64]uint64
	lossBound   uint64 `snap:"-,config"`
}

// lossKey identifies one open loss obligation: the NI that discarded the
// message and the transport stream key it carried.
type lossKey struct {
	node int32
	key  uint64
}

// New builds a monitor. coherence is the core package's global snapshot
// checker (passed as a callback so check does not import core). tr must be
// the tracer every component's shard feeds.
func New(cfg *config.System, net *noc.Network, l2s []*cache.L2, llcs []*cache.LLC,
	coherence func() error, tr *trace.Tracer) *Monitor {
	m := &Monitor{
		cfg:       cfg,
		net:       net,
		l2s:       l2s,
		llcs:      llcs,
		coherence: coherence,
		tr:        tr,
	}
	m.checkEvery = sim.Cycle(cfg.CheckEvery)
	if m.checkEvery <= 0 {
		m.checkEvery = DefaultCheckEvery
	}
	if cfg.Check && cfg.Scheme.Push && cfg.Scheme.Protocol == config.ProtoOrdPush {
		m.ordered = true
		m.seq = make([]uint64, cfg.Tiles())
		m.pushes = make(map[uint64]*pktTrack)
		m.invs = make(map[uint64]*pktTrack)
	}
	if cfg.Check && cfg.Faults.Lossy() {
		m.lossy = true
		m.pendingLoss = make(map[lossKey]uint64)
		m.lossRef = make(map[uint64]int)
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

// Register installs the monitor on the engine. Call it after every other
// component has been registered: the engine ticks components in
// registration order, so registering last guarantees the monitor drains
// the trace after all of a cycle's emissions.
func (m *Monitor) Register(eng *sim.Engine) {
	m.h = eng.Register(m)
	m.tr.SetHandle(m.h)
	if m.cfg.Check {
		m.nextScan = m.checkEvery
		m.h.SleepUntil(m.nextScan)
	} else {
		m.h.Sleep()
	}
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

// Tick drains the trace (folding the cycle's events into the history hash
// and ring) and, on scan boundaries, sweeps the structural invariants.
func (m *Monitor) Tick(now sim.Cycle) {
	if m.cfg.Check && m.err == nil {
		m.tr.Drain(m.checkEvent)
	} else {
		m.tr.Drain(nil)
	}
	if !m.cfg.Check {
		m.h.Sleep() // emissions wake us; nothing periodic to do
		return
	}
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
	k := lossKey{node: e.Node, key: e.Aux.Scalar()}
	if _, open := m.pendingLoss[k]; !open {
		m.lossRef[e.Aux.Scalar()]++
	}
	m.pendingLoss[k] = e.Cycle
}

// trackRecover closes the obligation the re-arrival of a dropped stream key
// discharges.
func (m *Monitor) trackRecover(e trace.Event) {
	if !m.lossy {
		return
	}
	k := lossKey{node: e.Node, key: e.Aux.Scalar()}
	if _, open := m.pendingLoss[k]; !open {
		return
	}
	delete(m.pendingLoss, k)
	if m.lossRef[e.Aux.Scalar()]--; m.lossRef[e.Aux.Scalar()] <= 0 {
		delete(m.lossRef, e.Aux.Scalar())
		delete(m.lossSeq, e.Aux.Scalar())
	}
}

// clearReplica retires the replica a loss event names (the copy headed for
// e.Node under packet e.ID) from the ordered-mode tracking maps. For a
// suppressed duplicate the node already received the packet, so the clear
// is an idempotent no-op. recordSeq additionally remembers the packet's
// injection serial under its stream key, for the retransmission clone to
// inherit (see inheritSerial).
func (m *Monitor) clearReplica(e trace.Event, recordSeq bool) {
	at := noc.NodeID(e.Node)
	if p, ok := m.pushes[e.ID]; ok {
		if recordSeq {
			m.lossSeq[e.Aux.Scalar()] = p.seq
		}
		p.left = p.left.Remove(at)
		if p.left.Empty() {
			delete(m.pushes, e.ID)
		}
		return
	}
	if p, ok := m.invs[e.ID]; ok {
		if recordSeq {
			m.lossSeq[e.Aux.Scalar()] = p.seq
		}
		p.left = p.left.Remove(at)
		if p.left.Empty() {
			delete(m.invs, e.ID)
		}
	}
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
	if p, tracked := m.pushes[e.ID]; tracked {
		p.seq = seq
		return
	}
	if p, tracked := m.invs[e.ID]; tracked {
		p.seq = seq
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
	l2 := m.l2s[req]
	if m.net.PushInFlight(e.Addr, req) {
		return
	}
	if l2.IncomingDataPending(e.Addr) {
		return
	}
	if e.Kind == trace.KFilterHome && m.llcs[e.Node].PushQueued(e.Addr, req) {
		return
	}
	if !l2.ReadOutstanding(e.Addr) {
		return
	}
	m.fail(e.Cycle, "unsound filter squash: requester %d still awaits line %#x with no covering push in flight (%s)",
		req, e.Addr, e)
}

// trackInject assigns the packet its per-source injection serial and
// starts tracking pushes and invalidations.
func (m *Monitor) trackInject(e trace.Event) {
	m.seq[e.Node]++
	switch {
	case e.B&trace.FlagPush != 0:
		m.pushes[e.ID] = &pktTrack{addr: e.Addr, src: e.Node, seq: m.seq[e.Node], left: noc.DestSet(e.Aux)}
	case e.B&trace.FlagInv != 0:
		m.invs[e.ID] = &pktTrack{addr: e.Addr, src: e.Node, seq: m.seq[e.Node], left: noc.DestSet(e.Aux)}
	}
}

// trackDeliver retires delivered replicas and asserts the OrdPush ordering
// invariant: an invalidation delivered at a tile must not leave behind an
// undelivered push to the same line, from the same source, injected
// earlier — if it does, the invalidation overtook the push and the stale
// data will be installed after the line was invalidated.
func (m *Monitor) trackDeliver(e trace.Event) {
	at := noc.NodeID(e.Node)
	switch {
	case e.B&trace.FlagPush != 0:
		if p, ok := m.pushes[e.ID]; ok {
			p.left = p.left.Remove(at)
			if p.left.Empty() {
				delete(m.pushes, e.ID)
			}
		}
	case e.B&trace.FlagInv != 0:
		inv, ok := m.invs[e.ID]
		if !ok {
			return // injected before tracking began; nothing to order against
		}
		for id, p := range m.pushes {
			if p.addr == inv.addr && p.src == inv.src && p.seq < inv.seq && p.left.Has(at) {
				m.fail(e.Cycle, "OrdPush ordering violated: inv (src %d seq %d) delivered at tile %d before push id %#x (seq %d) to line %#x",
					inv.src, inv.seq, at, id, p.seq, p.addr)
				return
			}
		}
		inv.left = inv.left.Remove(at)
		if inv.left.Empty() {
			delete(m.invs, e.ID)
		}
	}
}

// scanLossAge asserts the recovery liveness invariant: no dropped message
// may stay unrecovered past the transport's full retry budget. The worst
// offender is picked by (age, node, key) so the failure message does not
// depend on map iteration order.
func (m *Monitor) scanLossAge(cyc uint64) {
	var worst lossKey
	var worstAt uint64
	found := false
	for k, at := range m.pendingLoss {
		if cyc-at <= m.lossBound {
			continue
		}
		if !found || at < worstAt ||
			(at == worstAt && (k.node < worst.node || (k.node == worst.node && k.key < worst.key))) {
			worst, worstAt, found = k, at, true
		}
	}
	if found {
		m.fail(cyc, "message loss never recovered: stream key %#x dropped at tile %d on cycle %d, still outstanding after %d cycles (bound %d)",
			worst.key, worst.node, worstAt, cyc-worstAt, m.lossBound)
	}
}

// scan sweeps the structural invariants over a global snapshot.
func (m *Monitor) scan(now sim.Cycle) {
	cyc := uint64(now)
	if m.lossy {
		m.scanLossAge(cyc)
		if m.err != nil {
			return
		}
	}
	if err := m.coherence(); err != nil {
		m.fail(cyc, "%v", err)
		return
	}
	if err := m.net.CheckConservation(now); err != nil {
		m.fail(cyc, "%v", err)
		return
	}
	m.scanSharersSuperset(cyc)
	if m.err == nil {
		m.scanInclusion(cyc)
	}
}

// scanSharersSuperset asserts that every private copy is visible to its
// home directory: for each L2 line in S, M, or SM_D, the home slice's
// conservative directory view (sharer vector ∪ owner ∪ in-flight episode
// state) contains that L2's tile. A line the directory has lost track of
// can never be invalidated or pushed to — the silent-sharer bug class.
func (m *Monitor) scanSharersSuperset(cyc uint64) {
	for _, l2 := range m.l2s {
		id := l2.ID()
		l2.ForEachLine(func(l *cache.Line) {
			if m.err != nil {
				return
			}
			switch l.State {
			case cache.StateS, cache.StateM, cache.StateSMD:
			default:
				return
			}
			home := m.cfg.HomeSlice(l.Tag)
			view, ok := m.llcs[home].DirectoryView(l.Tag)
			if !ok {
				m.fail(cyc, "line %#x cached %v at tile %d but absent from home slice %d",
					l.Tag, l.State, id, home)
				return
			}
			if !view.Has(id) {
				m.fail(cyc, "directory not a sharer superset: line %#x cached %v at tile %d, home %d view %v",
					l.Tag, l.State, id, home, view)
			}
		})
		if m.err != nil {
			return
		}
	}
}

// scanInclusion asserts L1 ⊆ L2 per tile: every valid L1 line must be
// backed by an L2 line in a state with readable or incoming data. It looks
// lines up through the arrays' tag indexes, so it audits those first: a
// drifted index would hide exactly the lines this scan is after.
func (m *Monitor) scanInclusion(cyc uint64) {
	for i, l2 := range m.l2s {
		if err := l2.Audit(); err != nil {
			m.fail(cyc, "tile %d cache tag index: %v", i, err)
			return
		}
		if err := m.llcs[i].Audit(); err != nil {
			m.fail(cyc, "LLC slice %d tag index: %v", i, err)
			return
		}
		l2.L1().ForEach(func(l *cache.Line) {
			if m.err != nil {
				return
			}
			backing := l2.Line(l.Tag)
			if backing == nil {
				m.fail(cyc, "inclusion violated: line %#x valid in L1 of tile %d but absent from its L2", l.Tag, i)
				return
			}
			switch backing.State {
			case cache.StateS, cache.StateM, cache.StateSMD:
			default:
				m.fail(cyc, "inclusion violated: line %#x valid in L1 of tile %d but L2 holds it in %v", l.Tag, i, backing.State)
			}
		})
		if m.err != nil {
			return
		}
	}
}
