package cache

import (
	"fmt"

	"pushmulticast/internal/coherence"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/trace"
)

// epKind identifies a directory episode (a multi-message transaction that
// blocks a line).
type epKind uint8

const (
	// epWrite: invalidating sharers on behalf of a pending writer.
	epWrite epKind = iota
	// epRecall: asking the M owner to invalidate and return data.
	epRecall
	// epEvictShared: invalidating sharers to evict the LLC line.
	epEvictShared
	// epPush: a push multicast outstanding (PushAck protocol's P state).
	epPush
)

// episode is the bookkeeping for one blocking directory transaction.
type episode struct {
	kind        epKind
	epoch       uint32
	pendingAcks noc.DestSet
	writer      noc.NodeID // epWrite: the waiting GetM requester
	evictAfter  bool       // epRecall: free the line once data returns
}

// fetchReq is one requester merged into an outstanding memory fetch.
type fetchReq struct {
	req      noc.NodeID
	prefetch bool
}

// fetch tracks an outstanding LLC miss.
type fetch struct {
	requesters []fetchReq
}

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
	arr *Array

	ep      map[uint64]*episode
	fetches map[uint64]*fetch
	// fetchFree recycles fetch records (and their requester-slice capacity)
	// between misses; handleGetS allocated one per LLC miss before.
	fetchFree []*fetch `snap:"-,pool"`
	stalled   map[uint64][]*noc.Packet
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
	// tr is this slice's trace shard (nil when tracing is off). Writes
	// happen from the slice's own tick and from Receive (the tile's NI
	// tick).
	tr *trace.Shard `snap:"-,wiring"`
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

// NewLLC builds a slice and attaches it to the network at the given tile.
func NewLLC(id noc.NodeID, cfg *config.System, net *noc.Network, eng *sim.Engine, st *stats.All) *LLC {
	s := &LLC{
		id:      id,
		cfg:     cfg,
		eng:     eng,
		st:      st,
		arr:     NewInterleavedArray(cfg.LLCSliceSize, cfg.LLCWays, cfg.Tiles()),
		ep:      make(map[uint64]*episode),
		fetches: make(map[uint64]*fetch),
		stalled: make(map[uint64][]*noc.Packet),
		inq:     delayQueue{latency: sim.Cycle(cfg.LLCLatency)},
		out:     outbox{ni: net.NI(id), unit: stats.UnitLLC},
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
	if pkt.Filterable && s.cfg.Scheme.Filter {
		if s.pushCovering(pkt.Addr, pkt.Requester) {
			s.st.Net.FilteredRequests++
			s.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KFilterHome, Node: int32(s.id),
				Addr: pkt.Addr, ID: pkt.ID, A: int32(pkt.Requester)})
			s.out.ni.Recycle(pkt)
			return
		}
	}
	s.h.WakeAt(s.inq.push(pkt, now))
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
// empty input queue or one whose head has not matured. Stalled packets,
// open episodes, and outstanding fetches all resolve via future Receives,
// which wake the slice.
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

// send writes m into a pool-backed packet and queues it for injection.
func (s *LLC) send(m coherence.Msg, dests noc.DestSet, dstUnit stats.Unit) {
	p := s.out.ni.NewPacket()
	m.FillPacket(p, s.cfg.NoC, stats.UnitLLC, dstUnit, dests)
	s.out.send(p)
}

// pushCovering reports whether a push embedding a response for the
// requester is still waiting in this slice's outbox or NI injection queue.
func (s *LLC) pushCovering(addr uint64, req noc.NodeID) bool {
	for _, p := range s.out.pkts {
		if p.IsPush && p.Addr == addr && p.Dests.Has(req) {
			return true
		}
	}
	return s.out.ni.PushCovering(addr, req)
}

// stall parks a packet until wake(addr) reinjects it.
func (s *LLC) stall(addr uint64, pkt *noc.Packet) {
	s.parked = true
	s.stalled[addr] = append(s.stalled[addr], pkt)
}

// wake re-queues packets stalled on addr for immediate reprocessing, in
// their original order.
func (s *LLC) wake(addr uint64, now sim.Cycle) {
	pkts := s.stalled[addr]
	if len(pkts) == 0 {
		return
	}
	delete(s.stalled, addr)
	for i := len(pkts) - 1; i >= 0; i-- {
		s.inq.pushFront(pkts[i], now)
	}
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
	// Home-side extension of the coherent filter: a request whose response
	// is embedded in a push that has not yet left this tile (LLC outbox or
	// NI injection queue) is pruned here, exactly as the local-port filter
	// would prune it one cycle later.
	if s.cfg.Scheme.Filter && s.pushCovering(m.Addr, m.Requester) {
		s.st.Net.FilteredRequests++
		s.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KFilterHome, Node: int32(s.id),
			Addr: m.Addr, ID: pkt.ID, A: int32(m.Requester)})
		return
	}
	line := s.arr.Lookup(m.Addr)
	if line == nil {
		if f, ok := s.fetches[m.Addr]; ok {
			f.requesters = append(f.requesters, fetchReq{m.Requester, m.Prefetch})
			return
		}
		s.startFetch(pkt, m, now, true)
		return
	}
	switch line.State {
	case StateLV:
		line.LastUse = now
		s.traceSharerGap(line, m.Requester, now)
		if s.cfg.Scheme.Coalesce {
			s.coalescedReply(line, m, now)
			return
		}
		if s.cfg.Scheme.Push && !m.Prefetch && line.Sharers.Has(m.Requester) {
			if !s.cfg.NoRecentPushTable && s.recentlyPushedTo(m.Addr, m.Requester, now) {
				s.unicastDataS(line, m.Requester, now)
				return
			}
			s.triggerPush(line, m.Requester, now)
			return
		}
		s.unicastDataS(line, m.Requester, now)
		line.Sharers = line.Sharers.Add(m.Requester)
	case StateLP:
		// Semi-blocking P state: reads are still served with unicasts.
		line.LastUse = now
		s.unicastDataS(line, m.Requester, now)
		line.Sharers = line.Sharers.Add(m.Requester)
	case StateLM:
		s.startRecall(line, false)
		s.stall(m.Addr, pkt)
	case StateLFetch:
		s.fetches[m.Addr].requesters = append(s.fetches[m.Addr].requesters, fetchReq{m.Requester, m.Prefetch})
	default: // LSInv, LMInv
		s.stall(m.Addr, pkt)
	}
}

// unicastDataS sends a shared data response, embedding the resume knob's
// counter-reset flag when applicable.
func (s *LLC) unicastDataS(line *Line, req noc.NodeID, now sim.Cycle) {
	s.send(coherence.Msg{
		Type: coherence.DataS, Addr: line.Tag, Requester: req,
		Version: line.Version, Reset: s.knob.resetFlagFor(req),
		Private: line.Sharers.Remove(req).Empty(),
	}, noc.OneDest(req), stats.UnitL2)
}

// triggerPush implements the push activated phase (§III-B): a re-reference
// from an existing sharer speculates that every sharer will need the line
// again and multicasts it to all of them (minus push-disabled requesters).
func (s *LLC) triggerPush(line *Line, req noc.NodeID, now sim.Cycle) {
	dests := line.Sharers
	if s.cfg.Scheme.Knob {
		dests = dests.Subtract(s.knob.pdr)
	}
	dests = dests.Add(req)
	if dests.Count() == 1 {
		// Every other sharer is push-disabled: degenerate to a unicast.
		s.unicastDataS(line, req, now)
		return
	}
	s.st.Cache.PushesTriggered++
	s.st.Cache.PushDestinations += uint64(dests.Count())
	s.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KPushTrigger, Node: int32(s.id),
		Addr: line.Tag, Aux: trace.Aux(dests), A: int32(req)})
	s.recordRecentPush(line.Tag, dests, now)
	if s.cfg.Scheme.Multicast {
		s.send(coherence.Msg{
			Type: coherence.PushData, Addr: line.Tag, Requester: req, Version: line.Version,
		}, dests, stats.UnitL2)
	} else {
		// MSP-style per-sharer unicast pushes: the demand requester gets a
		// normal response, every other destination an individual push.
		s.unicastDataS(line, req, now)
		dests.Remove(req).ForEach(func(d noc.NodeID) {
			// Requester -1: each unicast copy is speculative for its
			// destination (the demand requester got the DataS above).
			s.send(coherence.Msg{
				Type: coherence.PushData, Addr: line.Tag, Requester: -1, Version: line.Version,
			}, noc.OneDest(d), stats.UnitL2)
		})
	}
	if s.cfg.Scheme.Protocol == config.ProtoPushAck {
		acks := dests
		if !s.cfg.Scheme.Multicast {
			acks = acks.Remove(req)
		}
		line.Epoch++
		line.State = StateLP
		s.ep[line.Tag] = &episode{kind: epPush, epoch: line.Epoch, pendingAcks: acks}
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

// coalescedReply implements the Coalesce baseline [38]: concurrent same-line
// read requests within the LLC lookup window are merged and answered with a
// single multicast.
func (s *LLC) coalescedReply(line *Line, m coherence.Msg, now sim.Cycle) {
	dests := noc.OneDest(m.Requester)
	absorbed := s.inq.removeIf(func(p *noc.Packet) bool {
		return p.Filterable && p.Addr == m.Addr // Filterable marks exactly the GetS packets
	})
	for _, p := range absorbed {
		dests = dests.Add(p.Requester)
		s.st.Cache.CoalescedRequests++
		s.out.ni.Recycle(p)
	}
	line.Sharers = line.Sharers.Union(dests)
	s.send(coherence.Msg{
		Type: coherence.DataS, Addr: line.Tag, Requester: m.Requester, Version: line.Version,
	}, dests, stats.UnitL2)
}

// traceSharerGap records the interval between consecutive same-line reads
// from distinct sharers (Fig 4).
func (s *LLC) traceSharerGap(line *Line, req noc.NodeID, now sim.Cycle) {
	if s.traces == nil {
		return
	}
	t := s.traces[line.Tag]
	if t == nil {
		s.traces[line.Tag] = &traceState{lastReader: req, lastAt: now}
		return
	}
	if t.lastReader != req {
		key := int(t.lastReader)*64 + int(req)
		s.st.ObserveGap(key, uint64(now-t.lastAt))
	}
	t.lastReader, t.lastAt = req, now
}

// --- write path ---

func (s *LLC) handleGetM(pkt *noc.Packet, m coherence.Msg, now sim.Cycle) {
	s.st.Cache.LLCAccesses++
	line := s.arr.Lookup(m.Addr)
	if line == nil {
		if _, ok := s.fetches[m.Addr]; ok {
			s.stall(m.Addr, pkt)
			return
		}
		s.startFetch(pkt, m, now, false)
		if _, ok := s.fetches[m.Addr]; ok {
			// The fetch started; the write replays once the fill lands.
			s.stall(m.Addr, pkt)
		}
		return
	}
	switch line.State {
	case StateLV:
		others := line.Sharers.Remove(m.Requester)
		if others.Empty() {
			s.grantM(line, m.Requester)
			return
		}
		line.Epoch++
		line.State = StateLSInv
		s.ep[m.Addr] = &episode{kind: epWrite, epoch: line.Epoch, pendingAcks: others, writer: m.Requester}
		others.ForEach(func(d noc.NodeID) {
			s.send(coherence.Msg{Type: coherence.Inv, Addr: m.Addr, Requester: m.Requester,
				Epoch: line.Epoch}, noc.OneDest(d), stats.UnitL2)
		})
	case StateLM:
		if line.Owner == m.Requester {
			// Defensive: an owner never re-requests ownership.
			s.send(coherence.Msg{Type: coherence.DataM, Addr: m.Addr, Requester: m.Requester,
				Version: line.Version}, noc.OneDest(m.Requester), stats.UnitL2)
			return
		}
		s.startRecall(line, false)
		s.stall(m.Addr, pkt)
	default: // LP (semi-blocking for writes), LSInv, LMInv, LFetch
		s.stall(m.Addr, pkt)
	}
}

func (s *LLC) grantM(line *Line, writer noc.NodeID) {
	line.State = StateLM
	line.Owner = writer
	line.Sharers = noc.DestSet{}
	s.send(coherence.Msg{Type: coherence.DataM, Addr: line.Tag, Requester: writer,
		Version: line.Version}, noc.OneDest(writer), stats.UnitL2)
}

// startRecall begins an owner-invalidation episode; evict frees the line
// when data returns.
func (s *LLC) startRecall(line *Line, evict bool) {
	line.Epoch++
	line.State = StateLMInv
	s.ep[line.Tag] = &episode{kind: epRecall, epoch: line.Epoch, evictAfter: evict}
	s.send(coherence.Msg{Type: coherence.Inv, Addr: line.Tag, Requester: line.Owner,
		Epoch: line.Epoch, Recall: true}, noc.OneDest(line.Owner), stats.UnitL2)
}

func (s *LLC) handlePutM(m coherence.Msg, now sim.Cycle) {
	line := s.arr.Lookup(m.Addr)
	if line == nil {
		panic(fmt.Sprintf("LLC %d: PutM for absent line %#x", s.id, m.Addr))
	}
	switch line.State {
	case StateLM:
		if line.Owner != m.Requester {
			panic(fmt.Sprintf("LLC %d: PutM for %#x from %d, owner is %d", s.id, m.Addr, m.Requester, line.Owner))
		}
		line.Version = m.Version
		line.Dirty = true
		line.Owner = 0
		line.Sharers = noc.DestSet{}
		line.State = StateLV
		s.send(coherence.Msg{Type: coherence.WBAck, Addr: m.Addr, Requester: m.Requester},
			noc.OneDest(m.Requester), stats.UnitL2)
		s.wake(m.Addr, now)
	case StateLMInv:
		// Writeback raced with the recall: the PutM carries the data the
		// episode was waiting for.
		line.Version = m.Version
		line.Dirty = true
		s.send(coherence.Msg{Type: coherence.WBAck, Addr: m.Addr, Requester: m.Requester},
			noc.OneDest(m.Requester), stats.UnitL2)
		s.completeRecall(line, now)
	default:
		panic(fmt.Sprintf("LLC %d: PutM for %#x in %v", s.id, m.Addr, line.State))
	}
}

func (s *LLC) handleInvAck(m coherence.Msg, now sim.Cycle) {
	ep := s.ep[m.Addr]
	if ep == nil || ep.epoch != m.Epoch {
		return // stale acknowledgment from a closed episode
	}
	switch ep.kind {
	case epWrite, epEvictShared:
		if !ep.pendingAcks.Has(m.Requester) {
			return
		}
		ep.pendingAcks = ep.pendingAcks.Remove(m.Requester)
		if !ep.pendingAcks.Empty() {
			return
		}
		line := s.arr.Lookup(m.Addr)
		delete(s.ep, m.Addr)
		if ep.kind == epWrite {
			s.grantM(line, ep.writer)
		} else {
			s.freeLine(line)
		}
		s.wake(m.Addr, now)
	case epRecall:
		// The owner acknowledged from its writeback-in-flight state; the
		// data arrives in the PutM, which completes the episode.
	}
}

func (s *LLC) handleInvAckData(m coherence.Msg, now sim.Cycle) {
	ep := s.ep[m.Addr]
	if ep == nil || ep.epoch != m.Epoch || ep.kind != epRecall {
		return
	}
	line := s.arr.Lookup(m.Addr)
	line.Version = m.Version
	line.Dirty = true
	s.completeRecall(line, now)
}

func (s *LLC) completeRecall(line *Line, now sim.Cycle) {
	ep := s.ep[line.Tag]
	delete(s.ep, line.Tag)
	line.Owner = 0
	line.Sharers = noc.DestSet{}
	if ep.evictAfter {
		s.freeLine(line)
	} else {
		line.State = StateLV
	}
	s.wake(line.Tag, now)
}

func (s *LLC) handlePushAck(m coherence.Msg, now sim.Cycle) {
	ep := s.ep[m.Addr]
	if ep == nil || ep.kind != epPush || !ep.pendingAcks.Has(m.Requester) {
		return
	}
	ep.pendingAcks = ep.pendingAcks.Remove(m.Requester)
	if !ep.pendingAcks.Empty() {
		return
	}
	line := s.arr.Lookup(m.Addr)
	delete(s.ep, m.Addr)
	line.State = StateLV
	s.wake(m.Addr, now)
}

// --- miss path ---

// newFetch pops a recycled fetch record or allocates a fresh one; records
// return to the free list when the fill lands (handleMemData).
func (s *LLC) newFetch() *fetch {
	if k := len(s.fetchFree); k > 0 {
		f := s.fetchFree[k-1]
		s.fetchFree[k-1] = nil
		s.fetchFree = s.fetchFree[:k-1]
		return f
	}
	return &fetch{}
}

// startFetch allocates a way (running an eviction episode first if needed)
// and issues the memory read. When isRead, the requester is recorded for the
// fill response; writers are stalled by the caller instead.
func (s *LLC) startFetch(pkt *noc.Packet, m coherence.Msg, now sim.Cycle, isRead bool) {
	victim := s.chooseVictim(m.Addr)
	if victim == nil {
		s.retry(pkt, now)
		return
	}
	if victim.State == StateLV && !victim.Sharers.Empty() {
		s.startEvictShared(victim)
		s.stall(victim.Tag, pkt)
		return
	}
	if victim.State == StateLM {
		s.startRecall(victim, true)
		s.stall(victim.Tag, pkt)
		return
	}
	if victim.State == StateLV {
		s.freeLine(victim)
	}
	s.st.Cache.LLCMisses++
	s.arr.Install(victim, m.Addr, StateLFetch, now)
	f := s.newFetch()
	if isRead {
		f.requesters = append(f.requesters, fetchReq{m.Requester, m.Prefetch})
	}
	s.fetches[m.Addr] = f
	s.send(coherence.Msg{Type: coherence.MemRead, Addr: m.Addr, Requester: s.id},
		noc.OneDest(s.memNode), stats.UnitMem)
}

// chooseVictim prefers free ways, then sharerless valid lines, then shared
// lines, then owned lines; transient lines are never displaced.
func (s *LLC) chooseVictim(addr uint64) *Line {
	if v := s.arr.Victim(addr, func(l *Line) bool {
		return l.State == StateLV && l.Sharers.Empty()
	}); v != nil {
		return v
	}
	if v := s.arr.Victim(addr, func(l *Line) bool { return l.State == StateLV }); v != nil {
		return v
	}
	return s.arr.Victim(addr, func(l *Line) bool { return l.State == StateLM })
}

func (s *LLC) startEvictShared(line *Line) {
	if s.pred != nil {
		s.pred.remember(line.Tag, line.Sharers)
	}
	line.Epoch++
	line.State = StateLSInv
	s.ep[line.Tag] = &episode{kind: epEvictShared, epoch: line.Epoch, pendingAcks: line.Sharers}
	line.Sharers.ForEach(func(d noc.NodeID) {
		s.send(coherence.Msg{Type: coherence.Inv, Addr: line.Tag, Requester: d,
			Epoch: line.Epoch}, noc.OneDest(d), stats.UnitL2)
	})
	line.Sharers = noc.DestSet{}
}

// freeLine evicts a stable valid line, writing dirty data back to memory.
// Under the PredictPush extension the sharer set is remembered so a later
// refetch can restore the push coverage the eviction destroyed.
func (s *LLC) freeLine(line *Line) {
	if s.pred != nil && line.State == StateLV {
		s.pred.remember(line.Tag, line.Sharers)
	}
	if line.Dirty {
		s.send(coherence.Msg{Type: coherence.MemWrite, Addr: line.Tag, Requester: s.id,
			Version: line.Version}, noc.OneDest(s.memNode), stats.UnitMem)
	}
	s.st.Cache.LLCEvictions++
	if s.traces != nil {
		delete(s.traces, line.Tag)
	}
	s.arr.Invalidate(line)
}

func (s *LLC) handleMemData(m coherence.Msg, now sim.Cycle) {
	line := s.arr.Lookup(m.Addr)
	f := s.fetches[m.Addr]
	if line == nil || line.State != StateLFetch || f == nil {
		panic(fmt.Sprintf("LLC %d: MemData for %#x without fetch", s.id, m.Addr))
	}
	delete(s.fetches, m.Addr)
	line.State = StateLV
	line.Version = m.Version
	line.Dirty = false
	line.LastUse = now
	if len(f.requesters) > 0 {
		if s.cfg.Scheme.Coalesce {
			var dests noc.DestSet
			for _, r := range f.requesters {
				dests = dests.Add(r.req)
				if len(f.requesters) > 1 {
					s.st.Cache.CoalescedRequests++
				}
			}
			line.Sharers = line.Sharers.Union(dests)
			s.send(coherence.Msg{Type: coherence.DataS, Addr: m.Addr,
				Requester: f.requesters[0].req, Version: line.Version}, dests, stats.UnitL2)
		} else {
			for _, r := range f.requesters {
				s.unicastDataS(line, r.req, now)
				line.Sharers = line.Sharers.Add(r.req)
			}
		}
	}
	f.requesters = f.requesters[:0]
	s.fetchFree = append(s.fetchFree, f)
	// PredictPush extension: if the evicted incarnation of this line had a
	// remembered sharer set, push the fill to the sharers the directory no
	// longer knows about.
	if s.pred != nil {
		if predicted, ok := s.pred.predict(m.Addr); ok {
			dests := predicted.Subtract(line.Sharers)
			if s.cfg.Scheme.Knob {
				dests = dests.Subtract(s.knob.pdr)
			}
			if !dests.Empty() {
				s.st.Cache.PushesTriggered++
				s.st.Cache.PushDestinations += uint64(dests.Count())
				s.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KPushTrigger, Node: int32(s.id),
					Addr: line.Tag, Aux: trace.Aux(dests), A: -1})
				s.recordRecentPush(line.Tag, dests, now)
				// Requester -1: every copy is speculative; no destination
				// treats this push as its demand response.
				s.send(coherence.Msg{
					Type: coherence.PushData, Addr: line.Tag, Version: line.Version,
					Requester: -1,
				}, dests, stats.UnitL2)
				line.Sharers = line.Sharers.Union(dests)
				if s.cfg.Scheme.Protocol == config.ProtoPushAck {
					line.Epoch++
					line.State = StateLP
					s.ep[line.Tag] = &episode{kind: epPush, epoch: line.Epoch, pendingAcks: dests}
				}
			}
		}
	}
	s.wake(m.Addr, now)
}

// ForEachLine exposes the slice's array for coherence checkers and tests.
func (s *LLC) ForEachLine(f func(*Line)) { s.arr.ForEach(f) }

// Line returns the slice's entry for lineAddr, or nil (checker use).
func (s *LLC) Line(lineAddr uint64) *Line { return s.arr.Lookup(lineAddr) }

// Audit checks the slice's tag index against its lines.
func (s *LLC) Audit() error { return s.arr.audit() }

// SetTraceShard installs the slice's trace shard.
func (s *LLC) SetTraceShard(tr *trace.Shard) { s.tr = tr }

// DirectoryView returns the directory's conservative view of the line's
// possible private holders, or ok=false when the line is absent. The view
// merges the line's sharer vector with episode state: startEvictShared
// zeroes Sharers while its invalidations are in flight (the pending-ack
// set holds them), and an owner under recall lives only in the Owner
// field. The sharers-superset invariant is phrased against this view —
// any L2 actually holding the line must appear in it.
func (s *LLC) DirectoryView(lineAddr uint64) (noc.DestSet, bool) {
	line := s.arr.Lookup(lineAddr)
	if line == nil {
		return noc.DestSet{}, false
	}
	view := line.Sharers
	if line.State == StateLM || line.State == StateLMInv {
		view = view.Add(line.Owner)
	}
	if ep := s.ep[lineAddr]; ep != nil {
		view = view.Union(ep.pendingAcks)
		if ep.kind == epWrite {
			view = view.Add(ep.writer)
		}
	}
	return view, true
}

// PushQueued exposes pushCovering to the checker: a push embedding a
// response for (addr, req) has not yet left this tile.
func (s *LLC) PushQueued(addr uint64, req noc.NodeID) bool { return s.pushCovering(addr, req) }

// OutstandingTransactions reports open episodes or fetches.
func (s *LLC) OutstandingTransactions() bool {
	return len(s.ep) != 0 || len(s.fetches) != 0 || len(s.stalled) != 0
}

// PushDisabled exposes the PDRMap for tests.
func (s *LLC) PushDisabled(req noc.NodeID) bool { return s.knob.pushDisabled(req) }
