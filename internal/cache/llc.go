package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"pushmulticast/internal/coherence"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/trace"
)

// txn is the transaction record of one blocked line: a line in LS_Inv, LM_Inv,
// LP or LFetch has exactly one, a line in any other state none. The line's
// state is the record's kind and its DirEntry.Epoch the episode's number, so
// the record holds only what neither says.
type txn struct {
	addr uint64
	// pending is the sharers whose InvAck (LS_Inv) or PushAck (LP) is
	// outstanding.
	pending noc.DestSet
	// writer is the GetM requester an LS_Inv write grants ownership to, and
	// noWriter on every other record.
	writer noc.NodeID
	// evict: in LS_Inv, the invalidations evict the line instead of serving a
	// writer; in LM_Inv, the line is freed once the owner's data returns.
	evict bool
	// readers are the read requesters merged into an LFetch fill.
	readers []noc.NodeID
	// parked holds the packets waiting for the line to leave its transient
	// state, in arrival order.
	parked []*noc.Packet
}

// noWriter is the writer of a record no GetM waits on.
const noWriter noc.NodeID = -1

// traceState supports the Fig 4 sharer-gap characterization.
type traceState struct {
	lastReader noc.NodeID
	lastAt     sim.Cycle
}

// LLC is one slice of the shared last-level cache with its embedded
// directory. It implements the home-node side of the MSI protocol, the
// paper's push trigger (§III-B: unicast to new sharers, speculative push
// multicast on re-references from existing sharers), the PushAck P state,
// the push resume knob, and the Coalesce baseline.
type LLC struct {
	id  noc.NodeID     `snap:"-,wiring"`
	cfg *config.System `snap:"-,config"`
	eng *sim.Engine    `snap:"-,wiring"`
	st  *stats.All     `snap:"-,wiring"`
	arr Array

	// txns is the transaction table, one record per blocked line: the live
	// records are txns[:len(txns)], in no particular order (a closed record
	// trades slots with the last live one and waits past the end, slices and
	// all, for the next record), so opening a record allocates nothing once
	// the table has grown. It holds pointers: a 96-byte record per slot would
	// double in place on growth, which costs more than the peak's records
	// (up to ~20 a slice at once on sparse64-lat). Every order the slice acts
	// in is address order.
	txns []*txn
	// parked is set by stall/retry during handle so Tick knows whether the
	// packet just processed was retained or can be recycled.
	parked bool `snap:"-,transient: set and read within one Tick"`
	inq    delayQueue
	out    outbox
	knob   resumeKnob
	h      *sim.Handle `snap:"-,wiring"`
	// lastTick lets a slice woken after sleeping advance the resume knob by
	// exactly the number of skipped cycles (tickN), keeping the phase
	// sequence identical to a dense run's.
	lastTick sim.Cycle `snap:"-,derived: the cycle before the barrier once the knob is settled"`
	traces   map[uint64]*traceState
	memNode  noc.NodeID `snap:"-,config"`
	// pred is the decoupled sharer predictor (PredictPush extension).
	pred *sharerPredictor
	// recent is a small table of just-sent pushes (addr -> dests/expiry).
	// A re-reference from a destination of a very recent push gets a
	// unicast instead of triggering another full multicast: its push is
	// still in flight and will (almost always) serve it, so a second
	// multicast would be pure redundancy. The unicast keeps the rare
	// dropped-push case correct.
	recent [recentPushEntries]recentPush
	// tr is the run's tracer (nil when tracing is off). The slice emits
	// into it from its own tick and from Receive (the tile's NI tick).
	tr *trace.Tracer `snap:"-,wiring"`
	// OnEvent, when set, is invoked as each message reaches the slice's
	// handler, with its type and the line's state before it is handled
	// ("absent" when the slice holds no way for it): the transition coverage
	// table.
	OnEvent func(state, event string) `snap:"-,wiring"`
}

// recentPush is one recent-push table entry.
type recentPush struct {
	addr  uint64
	dests noc.DestSet
	until sim.Cycle
	valid bool
}

// recentPushEntries and recentPushWindow size the table: a handful of
// entries covering roughly one NoC round trip.
const (
	recentPushEntries = 8
	recentPushWindow  = 256
)

// NewLLC builds a slice, its array on the machine's LLC pool, and attaches it
// to the network at the given tile. tr is the run's tracer, nil when tracing
// is off.
func NewLLC(id noc.NodeID, cfg *config.System, net *noc.Network, eng *sim.Engine, st *stats.All, pools Pools, tr *trace.Tracer) *LLC {
	s := &LLC{
		id:      id,
		tr:      tr,
		cfg:     cfg,
		eng:     eng,
		st:      st,
		arr:     pools.LLC.newArray(),
		inq:     delayQueue{latency: sim.Cycle(cfg.LLCLatency)},
		out:     outbox{ni: net.NI(id), cfg: &cfg.NoC, unit: stats.UnitLLC},
		knob:    newResumeKnob(cfg.TimeWindow, cfg.Scheme.Knob),
		memNode: cfg.NearestMemController(id),
	}
	if cfg.TraceSharerGaps {
		s.traces = make(map[uint64]*traceState)
	}
	if cfg.Scheme.PredictPush {
		s.pred = newSharerPredictor(1024)
	}
	net.Attach(id, stats.UnitLLC, s)
	s.h = eng.Register(s)
	s.out.h = s.h
	s.lastTick = ^sim.Cycle(0) // cycle -1: the first Tick, at cycle 0, advances the knob by 1
	return s
}

// ID returns the slice's tile.
func (s *LLC) ID() noc.NodeID { return s.id }

// Receive implements noc.Endpoint. Filterable read requests are checked
// against the tile's not-yet-departed pushes on arrival as well as at
// processing time; together with the in-network filters this covers every
// point where a request and the push embedding its response can meet.
func (s *LLC) Receive(pkt *noc.Packet, now sim.Cycle) {
	if pkt.Filterable && s.filtered(pkt, now) {
		s.out.ni.Recycle(pkt)
		return
	}
	s.h.WakeAt(s.inq.push(pkt, now))
}

// filtered is the home-side extension of the coherent filter, applied to a
// read request on arrival and again when it is handled: a request whose
// response is embedded in a push that has not yet left this tile (LLC outbox
// or NI injection queue) is pruned here, exactly as the local-port filter
// would prune it one cycle later.
func (s *LLC) filtered(pkt *noc.Packet, now sim.Cycle) bool {
	if !s.cfg.Scheme.Filter || !s.pushCovering(pkt.Addr, pkt.Requester) {
		return false
	}
	s.st.Net.FilteredRequests++
	s.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KFilterHome, Node: int32(s.id),
		Addr: pkt.Addr, ID: pkt.ID, A: int32(pkt.Requester)})
	return true
}

// Tick advances the resume knob, processes one matured message, and drains
// outgoing packets.
func (s *LLC) Tick(now sim.Cycle) {
	s.settle(now)
	if !s.out.congested() {
		if pkt := s.inq.pop(now); pkt != nil {
			s.eng.Progress()
			s.parked = false
			s.handle(pkt, now)
			// A handler either consumes the packet or parks it via
			// stall/retry; consumed delivery copies rejoin the network free
			// list.
			if !s.parked {
				s.out.ni.Recycle(pkt)
			}
		}
	}
	s.out.drain(now)
	s.reschedule()
}

// settle advances the resume knob through cycle through: by one cycle for
// each tick a slice that slept has skipped since lastTick, as a dense run,
// which ticks the slice every cycle, would have.
func (s *LLC) settle(through sim.Cycle) {
	s.knob.tickN(int(through - s.lastTick))
	s.lastTick = through
}

// reschedule puts the slice to sleep when it has nothing to do this cycle:
// an empty outbox (injection retries need a tick every cycle) and either an
// empty input queue or one whose head has not matured. Blocked lines and
// their parked packets resolve via future Receives, which wake the slice.
func (s *LLC) reschedule() {
	if len(s.out.pkts) != 0 {
		return
	}
	if at, ok := s.inq.nextReady(); ok {
		s.h.SleepUntil(at)
		return
	}
	s.h.Sleep()
}

// pushCovering reports whether a push embedding a response for the
// requester is still waiting in this slice's outbox or NI injection queue.
func (s *LLC) pushCovering(addr uint64, req noc.NodeID) bool {
	for _, p := range s.out.pkts {
		if p.IsPush && p.Addr == addr && p.Dests.Has(req) {
			return true
		}
	}
	return s.out.ni.QueuedPushes(addr).Has(req)
}

// txn returns the record of addr, or nil. Only a line in a transient state
// has one.
func (s *LLC) txn(addr uint64) *txn {
	for _, t := range s.txns {
		if t.addr == addr {
			return t
		}
	}
	return nil
}

// openTxn starts the record of addr, a line just put in a transient state,
// reusing the record that waits past the end of the table if there is one.
func (s *LLC) openTxn(addr uint64) *txn {
	s.txns = slices.Grow(s.txns, 1)[:len(s.txns)+1]
	t := s.txns[len(s.txns)-1]
	if t == nil {
		t = new(txn)
		s.txns[len(s.txns)-1] = t
	}
	*t = txn{addr: addr, writer: noWriter, readers: t.readers[:0], parked: t.parked[:0]}
	return t
}

// closeTxn ends the record of addr, whose line just left its transient state
// or was freed, and requeues its parked packets for immediate reprocessing in
// their original order. The last live record takes the slot.
func (s *LLC) closeTxn(addr uint64, now sim.Cycle) {
	t := s.txn(addr)
	for i := len(t.parked) - 1; i >= 0; i-- {
		s.inq.pushFront(t.parked[i], now)
	}
	clear(t.parked)
	i, last := slices.Index(s.txns, t), len(s.txns)-1
	s.txns[i], s.txns[last] = s.txns[last], t
	s.txns = s.txns[:last]
}

// stall parks a packet on the record of addr, a blocked line, until closeTxn
// requeues it.
func (s *LLC) stall(addr uint64, pkt *noc.Packet) {
	s.parked = true
	t := s.txn(addr)
	t.parked = append(t.parked, pkt)
}

// retry re-queues a packet that hit a transient resource (no allocatable
// way) with a small backoff. The packet goes to the back of the queue:
// putting it at the front would head-of-line-block the very fills that will
// eventually unblock it.
func (s *LLC) retry(pkt *noc.Packet, now sim.Cycle) {
	s.parked = true
	s.inq.pushBack(pkt, now+8)
}

func (s *LLC) handle(pkt *noc.Packet, now sim.Cycle) {
	m := coherence.From(pkt)
	if s.OnEvent != nil {
		state := "absent"
		if l := s.arr.Peek(m.Addr); l != nil {
			state = l.State.String()
		}
		s.OnEvent(state, m.Type.String())
	}
	switch m.Type {
	case coherence.GetS:
		s.handleGetS(pkt, m, now)
	case coherence.GetM:
		s.handleGetM(pkt, m, now)
	case coherence.PutM:
		s.handlePutM(m, now)
	case coherence.InvAck:
		s.handleInvAck(m, now)
	case coherence.InvAckData:
		s.handleInvAckData(m, now)
	case coherence.PushAck:
		s.handlePushAck(m, now)
	case coherence.MemData:
		s.handleMemData(m, now)
	default:
		panic(fmt.Sprintf("LLC %d: unexpected message %v", s.id, m))
	}
}

// --- read path ---

func (s *LLC) handleGetS(pkt *noc.Packet, m coherence.Msg, now sim.Cycle) {
	s.st.Cache.LLCAccesses++
	s.knob.onRequest(m.Requester, m.NeedPush)
	if s.filtered(pkt, now) {
		return
	}
	line := s.arr.Lookup(m.Addr)
	if line == nil {
		s.startFetch(pkt, m, now, true)
		return
	}
	switch line.State {
	case StateLV:
		line.LastUse = now
		s.traceSharerGap(line, m.Requester, now)
		d := s.arr.dirWay(line)
		if s.cfg.Scheme.Coalesce {
			// Concurrent same-line reads within the lookup window merge into
			// one reply.
			readers := noc.OneDest(m.Requester)
			absorbed := s.inq.removeIf(func(p *noc.Packet) bool {
				return p.Filterable && p.Addr == m.Addr // Filterable marks exactly the GetS packets
			})
			for _, p := range absorbed {
				readers = readers.Add(p.Requester)
				s.st.Cache.CoalescedRequests++
				s.out.ni.Recycle(p)
			}
			s.coalescedReply(line, d, m.Requester, readers)
			return
		}
		if s.cfg.Scheme.Push && !m.Prefetch && d.Sharers().Has(m.Requester) {
			// The push activated phase (§III-B): a re-reference from an
			// existing sharer speculates that every sharer will need the line
			// again. With every other sharer push-disabled, or a push that
			// covers the requester still in flight, it gets a unicast.
			dests := s.knob.pushable(d.Sharers()).Add(m.Requester)
			if dests.Count() > 1 && (s.cfg.NoRecentPushTable || !s.recentlyPushedTo(m.Addr, m.Requester, now)) {
				s.push(line, d, m.Requester, dests, now)
				return
			}
		}
		s.serveShared(line, d, m.Requester)
	case StateLP:
		// Semi-blocking P state: reads are still served with unicasts.
		line.LastUse = now
		s.serveShared(line, s.arr.dirWay(line), m.Requester)
	case StateLM:
		s.startRecall(line, false)
		s.stall(m.Addr, pkt)
	case StateLFetch:
		t := s.txn(m.Addr)
		t.readers = append(t.readers, m.Requester)
	default: // LSInv, LMInv
		s.stall(m.Addr, pkt)
	}
}

// serveShared answers reader req with a unicast DataS of line, embedding the
// resume knob's counter-reset flag when applicable, and makes req a sharer
// in d, the line's directory.
func (s *LLC) serveShared(line *Line, d DirWay, req noc.NodeID) {
	s.out.send(coherence.Msg{
		Type: coherence.DataS, Addr: s.arr.Tag(line), Requester: req,
		Version: line.Version, Reset: s.knob.resetFlagFor(req),
		Private: d.Sharers().Remove(req).Empty(),
	}, noc.OneDest(req), stats.UnitL2)
	d.SetSharers(d.Sharers().Add(req))
}

// push sends line to dests (§III-B), recording it in the stats, the trace and
// the recent-push table; under PushAck the line then waits in LP for the
// pushes' acknowledgments. req is the re-referencing sharer the push also
// answers, or -1 for a predictor fill no destination asked for, which is one
// multicast whose every copy is speculative. Without multicast, req gets a
// DataS and every other destination its own push (MSP).
func (s *LLC) push(line *Line, d DirWay, req noc.NodeID, dests noc.DestSet, now sim.Cycle) {
	addr, acks := s.arr.Tag(line), dests
	s.st.Cache.PushesTriggered++
	s.st.Cache.PushDestinations += uint64(dests.Count())
	s.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KPushTrigger, Node: int32(s.id),
		Addr: addr, Aux: trace.Aux(dests), A: int32(req)})
	s.recordRecentPush(addr, dests, now)
	if req < 0 || s.cfg.Scheme.Multicast {
		s.out.send(coherence.Msg{Type: coherence.PushData, Addr: addr, Requester: req,
			Version: line.Version}, dests, stats.UnitL2)
	} else {
		s.serveShared(line, d, req)
		acks = dests.Remove(req)
		acks.ForEach(func(dst noc.NodeID) {
			// Requester -1: each unicast copy is speculative for its
			// destination.
			s.out.send(coherence.Msg{Type: coherence.PushData, Addr: addr, Requester: -1,
				Version: line.Version}, noc.OneDest(dst), stats.UnitL2)
		})
	}
	if s.cfg.Scheme.Protocol == config.ProtoPushAck {
		d.Epoch++
		line.State = StateLP
		s.openTxn(addr).pending = acks
	}
}

// recordRecentPush notes a just-triggered push in the recent-push table,
// evicting the entry closest to expiry.
func (s *LLC) recordRecentPush(addr uint64, dests noc.DestSet, now sim.Cycle) {
	slot := 0
	for i := range s.recent {
		e := &s.recent[i]
		if !e.valid || e.until <= now {
			slot = i
			break
		}
		if e.until < s.recent[slot].until {
			slot = i
		}
	}
	s.recent[slot] = recentPush{addr: addr, dests: dests, until: now + recentPushWindow, valid: true}
}

// recentlyPushedTo reports whether a live recent push already covers the
// requester.
func (s *LLC) recentlyPushedTo(addr uint64, req noc.NodeID, now sim.Cycle) bool {
	for i := range s.recent {
		e := &s.recent[i]
		if e.valid && e.until > now && e.addr == addr && e.dests.Has(req) {
			return true
		}
	}
	return false
}

// coalescedReply is the Coalesce baseline's [38] reply: one multicast DataS
// answers the merged readers, first among them req, which become sharers in
// d, line's directory.
func (s *LLC) coalescedReply(line *Line, d DirWay, req noc.NodeID, readers noc.DestSet) {
	d.SetSharers(d.Sharers().Union(readers))
	s.out.send(coherence.Msg{Type: coherence.DataS, Addr: s.arr.Tag(line), Requester: req,
		Version: line.Version}, readers, stats.UnitL2)
}

// traceSharerGap records the interval between consecutive same-line reads
// from distinct sharers (Fig 4).
func (s *LLC) traceSharerGap(line *Line, req noc.NodeID, now sim.Cycle) {
	if s.traces == nil {
		return
	}
	addr := s.arr.Tag(line)
	t := s.traces[addr]
	if t == nil {
		s.traces[addr] = &traceState{lastReader: req, lastAt: now}
		return
	}
	if t.lastReader != req {
		key := int(t.lastReader)*noc.MaxNodes + int(req)
		s.st.ObserveGap(key, uint64(now-t.lastAt))
	}
	t.lastReader, t.lastAt = req, now
}

// --- write path ---

func (s *LLC) handleGetM(pkt *noc.Packet, m coherence.Msg, now sim.Cycle) {
	s.st.Cache.LLCAccesses++
	line := s.arr.Lookup(m.Addr)
	if line == nil {
		if s.startFetch(pkt, m, now, false) {
			// The write replays once the fill lands.
			s.stall(m.Addr, pkt)
		}
		return
	}
	switch line.State {
	case StateLV:
		d := s.arr.dirWay(line)
		others := d.Sharers().Remove(m.Requester)
		if others.Empty() {
			s.grantM(line, d, m.Requester)
			return
		}
		d.Epoch++
		line.State = StateLSInv
		t := s.openTxn(m.Addr)
		t.pending, t.writer = others, m.Requester
		others.ForEach(func(dst noc.NodeID) {
			s.out.send(coherence.Msg{Type: coherence.Inv, Addr: m.Addr, Requester: m.Requester,
				Epoch: d.Epoch}, noc.OneDest(dst), stats.UnitL2)
		})
	case StateLM:
		if d := s.arr.dirWay(line); d.Owner == m.Requester {
			// The owner asks again: its MSHR reissued the GetM in a lossy run
			// (the first DataM is late or lost). Grant it again; an LM line
			// has no sharers, so only the DataM is new.
			s.grantM(line, d, m.Requester)
			return
		}
		s.startRecall(line, false)
		s.stall(m.Addr, pkt)
	default: // LP (semi-blocking for writes), LSInv, LMInv, LFetch
		s.stall(m.Addr, pkt)
	}
}

func (s *LLC) grantM(line *Line, d DirWay, writer noc.NodeID) {
	line.State = StateLM
	d.Owner = writer
	d.SetSharers(noc.DestSet{})
	s.out.send(coherence.Msg{Type: coherence.DataM, Addr: s.arr.Tag(line), Requester: writer,
		Version: line.Version}, noc.OneDest(writer), stats.UnitL2)
}

// startRecall begins an owner-invalidation episode; evict frees the line
// when data returns.
func (s *LLC) startRecall(line *Line, evict bool) {
	addr, d := s.arr.Tag(line), s.arr.dirWay(line)
	d.Epoch++
	line.State = StateLMInv
	s.openTxn(addr).evict = evict
	s.out.send(coherence.Msg{Type: coherence.Inv, Addr: addr, Requester: d.Owner,
		Epoch: d.Epoch, Recall: true}, noc.OneDest(d.Owner), stats.UnitL2)
}

// handlePutM takes an owner's writeback: in LM it returns the line to LV, in
// LM_Inv the writeback raced with the recall and carries the data the
// episode was waiting for.
func (s *LLC) handlePutM(m coherence.Msg, now sim.Cycle) {
	line := s.arr.Lookup(m.Addr)
	if line == nil {
		panic(fmt.Sprintf("LLC %d: PutM for absent line %#x", s.id, m.Addr))
	}
	d := s.arr.dirWay(line)
	switch {
	case line.State != StateLM && line.State != StateLMInv:
		panic(fmt.Sprintf("LLC %d: PutM for %#x in %v", s.id, m.Addr, line.State))
	case line.State == StateLM && d.Owner != m.Requester:
		panic(fmt.Sprintf("LLC %d: PutM for %#x from %d, owner is %d", s.id, m.Addr, m.Requester, d.Owner))
	}
	line.Version = m.Version
	line.Dirty = true
	s.out.send(coherence.Msg{Type: coherence.WBAck, Addr: m.Addr, Requester: m.Requester},
		noc.OneDest(m.Requester), stats.UnitL2)
	if line.State == StateLMInv {
		s.completeRecall(line, now)
		return
	}
	clearOwner(d)
	line.State = StateLV
}

// clearOwner empties d, a directory whose owner gave the line back.
func clearOwner(d DirWay) {
	d.Owner = 0
	d.SetSharers(noc.DestSet{})
}

// lastAck takes from's acknowledgment off the pending set of addr's record
// and returns the record if no other acknowledgment is outstanding.
func (s *LLC) lastAck(addr uint64, from noc.NodeID) *txn {
	if t := s.txn(addr); t.pending.Has(from) {
		if t.pending = t.pending.Remove(from); t.pending.Empty() {
			return t
		}
	}
	return nil
}

// handleInvAck counts a sharer's acknowledgment toward an LS_Inv episode; an
// acknowledgment for a line in any other state or episode is stale. A
// recalled owner's InvAck needs nothing: it acknowledged from its
// writeback-in-flight state, and the PutM carrying the data completes the
// recall.
func (s *LLC) handleInvAck(m coherence.Msg, now sim.Cycle) {
	line := s.arr.Lookup(m.Addr)
	if line == nil || line.State != StateLSInv || s.arr.dirWay(line).Epoch != m.Epoch {
		return
	}
	t := s.lastAck(m.Addr, m.Requester)
	if t == nil {
		return
	}
	if t.evict {
		s.freeLine(line)
	} else {
		s.grantM(line, s.arr.dirWay(line), t.writer)
	}
	s.closeTxn(m.Addr, now)
}

func (s *LLC) handleInvAckData(m coherence.Msg, now sim.Cycle) {
	line := s.arr.Lookup(m.Addr)
	if line == nil || line.State != StateLMInv || s.arr.dirWay(line).Epoch != m.Epoch {
		return
	}
	line.Version = m.Version
	line.Dirty = true
	s.completeRecall(line, now)
}

func (s *LLC) completeRecall(line *Line, now sim.Cycle) {
	addr := s.arr.Tag(line)
	clearOwner(s.arr.dirWay(line))
	if s.txn(addr).evict {
		s.freeLine(line)
	} else {
		line.State = StateLV
	}
	s.closeTxn(addr, now)
}

func (s *LLC) handlePushAck(m coherence.Msg, now sim.Cycle) {
	line := s.arr.Lookup(m.Addr)
	if line == nil || line.State != StateLP || s.lastAck(m.Addr, m.Requester) == nil {
		return
	}
	line.State = StateLV
	s.closeTxn(m.Addr, now)
}

// --- miss path ---

// startFetch allocates a way (running an eviction episode first if needed)
// and issues the memory read, reporting whether it did. When isRead, the
// requester is recorded for the fill response; writers are stalled by the
// caller instead.
func (s *LLC) startFetch(pkt *noc.Packet, m coherence.Msg, now sim.Cycle, isRead bool) bool {
	victim := s.chooseVictim(m.Addr)
	if victim == nil {
		s.retry(pkt, now)
		return false
	}
	if victim.State == StateLV && !s.arr.dirWay(victim).Sharers().Empty() {
		s.startEvictShared(victim)
		s.stall(s.arr.Tag(victim), pkt)
		return false
	}
	if victim.State == StateLM {
		s.startRecall(victim, true)
		s.stall(s.arr.Tag(victim), pkt)
		return false
	}
	if victim.State == StateLV {
		s.freeLine(victim)
	}
	s.st.Cache.LLCMisses++
	s.arr.Install(victim, m.Addr, StateLFetch, now)
	t := s.openTxn(m.Addr)
	if isRead {
		t.readers = append(t.readers, m.Requester)
	}
	s.out.send(coherence.Msg{Type: coherence.MemRead, Addr: m.Addr, Requester: s.id},
		noc.OneDest(s.memNode), stats.UnitMem)
	return true
}

// chooseVictim prefers free ways, then sharerless valid lines, then shared
// lines, then owned lines; transient lines are never displaced.
func (s *LLC) chooseVictim(addr uint64) *Line {
	if v := s.arr.Victim(addr, func(l *Line) bool {
		return l.State == StateLV && s.arr.dirWay(l).Sharers().Empty()
	}); v != nil {
		return v
	}
	if v := s.arr.Victim(addr, func(l *Line) bool { return l.State == StateLV }); v != nil {
		return v
	}
	return s.arr.Victim(addr, func(l *Line) bool { return l.State == StateLM })
}

func (s *LLC) startEvictShared(line *Line) {
	addr, d := s.arr.Tag(line), s.arr.dirWay(line)
	if s.pred != nil {
		s.pred.remember(addr, d.Sharers())
	}
	d.Epoch++
	line.State = StateLSInv
	t := s.openTxn(addr)
	t.pending, t.evict = d.Sharers(), true
	t.pending.ForEach(func(dst noc.NodeID) {
		s.out.send(coherence.Msg{Type: coherence.Inv, Addr: addr, Requester: dst,
			Epoch: d.Epoch}, noc.OneDest(dst), stats.UnitL2)
	})
	d.SetSharers(noc.DestSet{})
}

// freeLine evicts a stable valid line, writing dirty data back to memory.
// Under the PredictPush extension the sharer set is remembered so a later
// refetch can restore the push coverage the eviction destroyed.
func (s *LLC) freeLine(line *Line) {
	addr := s.arr.Tag(line)
	if s.pred != nil && line.State == StateLV {
		s.pred.remember(addr, s.arr.dirWay(line).Sharers())
	}
	if line.Dirty {
		s.out.send(coherence.Msg{Type: coherence.MemWrite, Addr: addr, Requester: s.id,
			Version: line.Version}, noc.OneDest(s.memNode), stats.UnitMem)
	}
	if s.traces != nil {
		delete(s.traces, addr)
	}
	s.arr.Invalidate(line)
}

func (s *LLC) handleMemData(m coherence.Msg, now sim.Cycle) {
	line := s.arr.Lookup(m.Addr)
	if line == nil || line.State != StateLFetch {
		panic(fmt.Sprintf("LLC %d: MemData for %#x without fetch", s.id, m.Addr))
	}
	line.State = StateLV
	line.Version = m.Version
	line.Dirty = false
	line.LastUse = now
	d := s.arr.dirWay(line)
	if readers := s.txn(m.Addr).readers; s.cfg.Scheme.Coalesce && len(readers) > 0 {
		var dests noc.DestSet
		for _, r := range readers {
			dests = dests.Add(r)
		}
		if len(readers) > 1 {
			s.st.Cache.CoalescedRequests += uint64(len(readers))
		}
		s.coalescedReply(line, d, readers[0], dests)
	} else {
		for _, r := range readers {
			s.serveShared(line, d, r)
		}
	}
	s.closeTxn(m.Addr, now)
	// PredictPush extension: if the evicted incarnation of this line had a
	// remembered sharer set, push the fill to the sharers the directory no
	// longer knows about.
	if s.pred == nil {
		return
	}
	if predicted, ok := s.pred.predict(m.Addr); ok {
		if dests := s.knob.pushable(predicted.Subtract(d.Sharers())); !dests.Empty() {
			s.push(line, d, -1, dests, now)
			d.SetSharers(d.Sharers().Union(dests))
		}
	}
}

// ForEachLine exposes the slice's array, line by line with each line's
// address, to coherence checkers and tests.
func (s *LLC) ForEachLine(f func(addr uint64, l *Line)) { s.arr.ForEach(f) }

// Line returns the slice's entry for lineAddr, or nil, without marking it
// (checker use).
func (s *LLC) Line(lineAddr uint64) *Line { return s.arr.Peek(lineAddr) }

// Array returns the slice's array (checker use).
func (s *LLC) Array() *Array { return &s.arr }

// ForEachTxn visits the transaction records, in no particular order, each
// with its line's address and its fields rendered as text (tests that shadow
// the table).
func (s *LLC) ForEachTxn(f func(addr uint64, rec string)) {
	for _, t := range s.txns {
		f(t.addr, fmt.Sprint(t.pending, t.writer, t.evict, t.readers, t.parked))
	}
}

// Dir returns the directory of line, a valid line of this slice (checker and
// test use).
func (s *LLC) Dir(line *Line) DirWay { return s.arr.dirWay(line) }

// Audit checks the slice's tag index against its lines, and its directory
// against their states; the index's failure is the one reported.
func (s *LLC) Audit() error { return cmp.Or(s.arr.audit(), s.auditDirectory(s.arr.nextWay)) }

// AuditMarked is Audit on the ways handed out since the array's last
// ClearMarks (each against its set, for the index) and on every transaction
// record.
func (s *LLC) AuditMarked() error {
	return cmp.Or(s.arr.auditMarked(), s.auditDirectory(s.arr.nextMarked))
}

// auditDirectory checks the directory against the lines' states and the mesh:
// the transaction records and the blocked lines are one to one — each line in
// LS_Inv, LM_Inv, LP or LFetch has one record, and no other line has any —
// each record is shaped as its line's state says, and a valid line's sharers,
// and its owner in LM or LM_Inv, are tiles. The records are checked in full,
// the lines on the ways next yields (next(i): the first from i on, or -1).
// Restore refuses a snapshot that fails it.
func (s *LLC) auditDirectory(next func(int) int) error {
	tiles := s.cfg.Tiles()
	for _, t := range s.txns {
		line := s.arr.Peek(t.addr)
		if line == nil {
			return fmt.Errorf("transaction record for absent line %#x", t.addr)
		}
		if why := t.shape(line.State, tiles); why != "" {
			return fmt.Errorf("transaction record for line %#x in %v has %s", t.addr, line.State, why)
		}
	}
	// Only a way's last sharer word can name a non-tile (SetSharers refuses a
	// bit past the words), in its bits from tiles-64*(words-1) up: none when
	// the mesh fills the word, where the shift by 64 leaves 0.
	shift := uint(tiles - 64*(s.arr.sharerWords-1))
	for i := next(0); i >= 0; i = next(i + 1) {
		sl, k := s.arr.locate(i)
		if sl == nil || sl.lines[k].State == StateI {
			continue
		}
		l, addr, d := &sl.lines[k], sl.tags[k], s.arr.dirOf(sl, k)
		switch past := d.words[len(d.words)-1] >> shift; {
		case past != 0:
			return fmt.Errorf("line %#x has sharer %d past the %d-tile mesh", addr, tiles+bits.TrailingZeros64(past), tiles)
		case (l.State == StateLM || l.State == StateLMInv) && (d.Owner < 0 || int(d.Owner) >= tiles):
			return fmt.Errorf("line %#x in %v has owner %d past the %d-tile mesh", addr, l.State, d.Owner, tiles)
		case l.State.Transient():
			n := 0
			for _, t := range s.txns {
				if t.addr == addr {
					n++
				}
			}
			if n != 1 {
				return fmt.Errorf("line %#x in %v has %d transaction records", addr, l.State, n)
			}
		}
	}
	return nil
}

// shape names the first field of t that contradicts st, its line's state, or
// names no tile of a tiles-tile mesh; "" when there is none.
func (t *txn) shape(st State, tiles int) string {
	acks, write := st == StateLSInv || st == StateLP, st == StateLSInv && !t.evict
	outside := func(n noc.NodeID) bool { return n < 0 || int(n) >= tiles }
	switch {
	case !acks && st != StateLMInv && st != StateLFetch:
		return "a line that is not blocked"
	case t.evict && st != StateLSInv && st != StateLMInv:
		return "an evict bit"
	case write == (t.writer == noWriter) || write && outside(t.writer):
		return fmt.Sprintf("writer %d", t.writer)
	case acks == t.pending.Empty() || t.pending != t.pending.Mask(tiles):
		return fmt.Sprintf("%d pending acks", t.pending.Count())
	case st != StateLFetch && len(t.readers) > 0 || slices.ContainsFunc(t.readers, outside):
		return fmt.Sprintf("merged readers %v", t.readers)
	}
	return ""
}

// DirectoryView returns the directory's conservative view of the possible
// private holders of line, a valid line of this slice. The view merges the
// line's sharer vector with its transaction record: startEvictShared zeroes
// Sharers while its invalidations are in flight (the pending-ack set holds
// them), and an owner under recall lives only in the Owner field. The
// sharers-superset invariant is phrased against this view — any L2 actually
// holding the line must appear in it.
func (s *LLC) DirectoryView(line *Line) noc.DestSet {
	d := s.arr.dirWay(line)
	view := d.Sharers()
	switch line.State {
	case StateLM, StateLMInv:
		view = view.Add(d.Owner)
	case StateLSInv, StateLP:
		t := s.txn(s.arr.Tag(line))
		view = view.Union(t.pending)
		if t.writer != noWriter {
			view = view.Add(t.writer)
		}
	}
	return view
}

// PushQueued exposes pushCovering to the checker: a push embedding a
// response for (addr, req) has not yet left this tile.
func (s *LLC) PushQueued(addr uint64, req noc.NodeID) bool { return s.pushCovering(addr, req) }

// OutstandingTransactions reports whether any line is blocked.
func (s *LLC) OutstandingTransactions() bool { return len(s.txns) != 0 }
