package noc

import (
	"fmt"
	"math/bits"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/trace"
)

// inputVC is one virtual-channel buffer at a router input port. Virtual
// cut-through flow control means a VC holds at most one packet and a packet
// is admitted only into an empty VC, so the buffer always has room for the
// whole packet. The struct is 32 bytes, two to a cache line: every pipeline
// stage reaches VCs through the occupied list.
type inputVC struct {
	// port/idx locate this VC at its router and vnet is the virtual network
	// idx belongs to; occPos is its position in the router's occupied list
	// (-1 when free).
	port, idx, vnet uint8 `snap:"-,wiring"`
	occPos          int8  `snap:"-,derived: position in occ"`
	// routed is set once stage 1 (route compute + filter actions) ran.
	routed bool
	// reserved marks a local-port VC claimed by the NI's pick whose head
	// flit has not been written yet (cleared at head delivery). Remote
	// arrivals never reserve: a head in flight lives in the input port's
	// arrival ring until it matures, and only then occupies a VC.
	reserved bool
	// pending is the mask of output ports that still need a replica sent;
	// asynchronous multicast drains them one at a time. The replica through
	// port o carries pkt.Dests & dmask[mode][o] (portDests): a buffered
	// packet's destination set never changes, so the subsets are recomputed
	// where they are needed instead of stored and zeroed per hop.
	pending uint8
	pkt     *Packet
	// headAt is the cycle the head flit is present in this buffer; flit i
	// is present at headAt+i (flits stream contiguously under the locked
	// input/output port discipline).
	headAt sim.Cycle
	// active is the stream currently draining this VC, if any.
	active *stream `snap:"-,derived: rewired from outStream"`
}

// stream is one in-progress replica transmission from an input VC through an
// output port; it lives in the router's streams slot of that output port.
// Both the input port and the output port are held until the tail flit
// departs, which keeps flit delivery contiguous and makes cut-through timing
// exact.
//
// The replica pointer is only valid until the head flit hands it to the
// downstream VC: from that moment the downstream router owns (and eventually
// recycles) the packet, and it can finish with it before this stream's tail
// departs — a RouterSlow window freezing this router mid-drain makes that
// overtaking real. What every flit needs is therefore copied here at
// allocation time; the rest (address, id, destinations) is read from the
// buffered original vc.pkt, which outlives all of its streams.
type stream struct {
	vc      *inputVC `snap:"-,derived: resolved from inPort and the VC index"`
	replica *Packet  // nil once the head flit transfers ownership downstream
	downR   *Router  `snap:"-,wiring"` // adjacent router behind outPort, nil for PortLocal
	inPort  int
	outPort int `snap:"-,derived: the streams slot"`
	sent    int
	size    int
	// last is the last cycle whose flit sent counts. A router asleep
	// through body flits leaves it behind the clock, and sendFlit or
	// Network.Settle counts a flit for each cycle since; a frozen cycle,
	// which sends none, moves it.
	last    sim.Cycle `snap:"-,derived: the cycle before the barrier once flits are settled"`
	class   stats.Class
	dstUnit stats.Unit
	isPush  bool
}

// Router is a 2-stage virtual-cut-through router: stage 1 performs buffer
// write + route computation (plus the filter's registration/lookup actions in
// parallel, Fig 7a), stage 2 performs VC/switch allocation and switch
// traversal. Links add one cycle.
type Router struct {
	// The fields are ordered by how a tick reads them, hottest first. A tick's
	// cost is its branches and instructions more than its cache lines (host
	// time per tile-cycle is flat from 16 to 256 cores, DESIGN.md §4b), which
	// is why the port loops below walk masks.
	id NodeID `snap:"-,wiring"`
	// arrQueued / credQueued mark the rings this router consumes that hold
	// entries: bit p for arrivals[p], bit o for the credRet ring of the
	// neighbour behind output port o. The producer sets the bit beside its
	// push, the consumer clears it when a pop empties the ring, so a tick
	// probes only rings with something in them — and none of the neighbours'
	// memory when nothing is in flight.
	arrQueued  uint8 `snap:"-,derived: the non-empty arrival rings"`
	credQueued uint8 `snap:"-,derived: the neighbours' non-empty credRet rings"`
	// heldIn / heldOut mark the input and output ports a stream holds (its
	// inPort, and outStream non-nil), wantOut the output ports with an allocation
	// candidate (candMask non-zero): allocation and traversal visit set bits
	// instead of testing all five ports twice a tick.
	heldIn  uint8       `snap:"-,derived: the input ports of the streams in outStream"`
	heldOut uint8       `snap:"-,derived: the ports with an outStream"`
	wantOut uint8       `snap:"-,derived: the ports with a non-zero candMask"`
	net     *Network    `snap:"-,wiring"`
	ni      *NI         `snap:"-,wiring"` // this tile's NI: packet recycling and local ejection
	h       *sim.Handle `snap:"-,wiring"`
	// occ lists VCs that hold or are reserved for a packet, so the per-
	// cycle pipeline stages touch only live work instead of scanning every
	// buffer.
	occ []*inputVC
	// unrouted marks the occ positions of VCs holding a head that stage 1
	// has not routed yet; stage 1 visits exactly those, and skips entirely
	// when it is zero.
	unrouted uint64 `snap:"-,derived: the occ entries with a packet and routed unset"`
	// minHeadAt lower-bounds the earliest arrival among unrouted heads still
	// in link transit; stage 1 skips its scan entirely before that cycle.
	// Head writes lower it, stage-1 scans recompute it exactly.
	minHeadAt sim.Cycle
	// candMask[o] marks the occ positions of allocatable VCs with a replica
	// pending for output port o — a VC draining a replica through the switch
	// is excluded until its stream completes, since no other replica of it
	// can place meanwhile. Allocation iterates set bits in round-robin
	// position order instead of scanning occ (Validate caps a router at 64
	// VCs so one word suffices). candV counts the same candidates by vnet so
	// allocation can prove a port unplaceable (every candidate vnet's
	// downstream VC pool exhausted) in O(1), and invCand counts the
	// invalidation candidates whose stalled-cycle accounting happens
	// mid-scan and therefore forbids that shortcut.
	candMask [NumPorts]uint64 `snap:"-,derived: the occ entries routed, not streaming, with the port pending"`
	invCand  [NumPorts]int16  `snap:"-,derived: the invalidations among a port's candidates"`
	// rr holds per-output-port round-robin arbitration state (an occ
	// position).
	rr [NumPorts]uint8
	// outStream serializes the switch at packet granularity: one replica owns
	// an output port (and its input port, heldIn) until its tail departs.
	// outStream[o] is nil or &streams[o].
	outStream [NumPorts]*stream
	// portOcc[p] marks the occ positions of the VCs of input port p. While a
	// stream holds p, none of them can win an output, so allocation masks
	// them out of its candidates without looking at them.
	portOcc [NumPorts]uint64          `snap:"-,derived: the occ entries by input port"`
	candV   [NumPorts][NumVNets]int16 `snap:"-,derived: a port's candidates by vnet"`
	// credits[o][v] counts downstream input VCs of vnet v this router may
	// still claim through output port o. It mirrors the neighbour's per-
	// (port, vnet) free-VC pool without reading neighbour state: allocation
	// decrements locally, and the neighbour's release sends the credit back
	// through its credRet ring, link-delayed one cycle. Unused for the local
	// port (the NI claims VCs directly).
	credits [NumPorts][NumVNets]int16
	// freeVCs[p] has bit i set while input VC i of port p is free, and
	// vnetVCs[v] selects the VC indices of vnet v, so finding a free VC is
	// one AND and a bit scan.
	freeVCs [NumPorts]uint16 `snap:"-,derived: the VCs not in occ"`
	vnetVCs [NumVNets]uint16 `snap:"-,config"`
	// nbr caches the adjacent router behind each output port (nil at mesh
	// edges and for the local port).
	nbr     [NumPorts]*Router `snap:"-,wiring"`
	filters *filterBank
	// st is the run's stats bundle (net.st, cached).
	st *stats.All `snap:"-,wiring"`
	// tr is the run's tracer (nil when tracing is off); the router emits
	// filter events into it from its own ticks.
	tr *trace.Tracer `snap:"-,wiring"`
	// scratch is reused for stage 1's iteration snapshots.
	scratch []*inputVC `snap:"-,scratch"`
	// streams[o] backs outStream[o]; a slot's contents are dead while
	// outStream[o] is nil.
	streams [NumPorts]stream
	in      [NumPorts][]inputVC `snap:"-,storage: occupied VCs travel through occ, free ones hold no state"`
	// dmask[mode][o] is the set of destinations this router forwards through
	// output port o under YX (mode 0) or XY (mode 1) dimension-order routing.
	// Route computation reduces to one AND per port against the packet's
	// destination set.
	dmask [2][NumPorts]DestSet `snap:"-,config"`
	// arrivals[p] queues head-flit handoffs arriving through input port p;
	// the upstream router produces, this router consumes matured entries at
	// the top of its tick. Unused for the local port.
	arrivals [NumPorts]arrRing
	// credRet[p] queues credits this router returns to the upstream
	// neighbour behind input port p; this router produces (at release), the
	// neighbour consumes. Unused for the local port.
	credRet [NumPorts]credRing
}

func newRouter(id NodeID, net *Network) *Router {
	r := &Router{id: id, net: net, st: net.st}
	vcs := net.cfg.VCsPerVNet
	backing := make([]inputVC, NumPorts*NumVNets*vcs)
	for p := 0; p < NumPorts; p++ {
		r.in[p], backing = backing[:NumVNets*vcs:NumVNets*vcs], backing[NumVNets*vcs:]
		for i := range r.in[p] {
			r.in[p][i] = inputVC{port: uint8(p), idx: uint8(i), vnet: uint8(i / vcs), occPos: -1}
		}
		r.freeVCs[p] = 1<<uint(NumVNets*vcs) - 1
	}
	for v := 0; v < NumVNets; v++ {
		r.vnetVCs[v] = (1<<uint(vcs) - 1) << uint(v*vcs)
	}
	for mode := 0; mode < 2; mode++ {
		for d := 0; d < net.cfg.Nodes(); d++ {
			p := net.cfg.nextPort(id, NodeID(d), mode == 1)
			r.dmask[mode][p] = r.dmask[mode][p].Add(NodeID(d))
		}
	}
	if net.cfg.FilterEnabled || net.cfg.OrdPushInvStall {
		r.filters = newFilterBank(vcs)
	}
	return r
}

// claim registers a VC as occupied and wakes the router for the head the
// NI writes into it this cycle, present next cycle. Only the local NI calls
// it; remote arrivals enter through the arrival rings and enlist from the
// router's own tick.
func (r *Router) claim(vc *inputVC, now sim.Cycle) {
	r.h.WakeAt(now + 1)
	r.enlist(vc)
}

// enlist adds a VC to the occupied list and takes it out of the free mask.
func (r *Router) enlist(vc *inputVC) {
	if vc.occPos >= 0 {
		return
	}
	vc.occPos = int8(len(r.occ))
	r.occ = append(r.occ, vc)
	r.portOcc[vc.port] |= 1 << uint(vc.occPos)
	r.freeVCs[vc.port] &^= 1 << vc.idx
}

// writeHead places a packet's head flit, present from cycle at, into an
// enlisted VC and queues it for stage 1.
func (r *Router) writeHead(vc *inputVC, pkt *Packet, at sim.Cycle) {
	vc.pkt = pkt
	vc.headAt = at
	r.unrouted |= 1 << uint(vc.occPos)
	if at < r.minHeadAt {
		r.minHeadAt = at
	}
}

// portDests returns the destinations of vc's packet that leave through
// output port o.
func (r *Router) portDests(vc *inputVC, o int) DestSet {
	d := vc.pkt.Dests
	m := &r.dmask[routeMode(int(vc.vnet))][o]
	for w := range d {
		d[w] &= m[w]
	}
	return d
}

// candidates adds (d = +1) or removes (d = -1) vc's pending ports in the
// allocation candidate mask and counters. Callers hold the invariant that a
// VC is counted exactly while it is routed, has no active stream, and still
// has ports pending.
func (r *Router) candidates(vc *inputVC, d int16) {
	bit := uint64(1) << uint(vc.occPos)
	inv := vc.pkt.IsInv
	for m := vc.pending; m != 0; m &= m - 1 {
		o := bits.TrailingZeros8(m)
		if d > 0 {
			r.candMask[o] |= bit
			r.wantOut |= 1 << uint(o)
		} else if r.candMask[o] &^= bit; r.candMask[o] == 0 {
			r.wantOut &^= 1 << uint(o)
		}
		r.candV[o][vc.vnet] += d
		if inv {
			r.invCand[o] += d
		}
	}
}

// release resets a VC, drops it from the occupied list, and recycles the
// held packet: at this point every replica carries its own copy, so the
// buffered packet is dead.
func (r *Router) release(vc *inputVC, now sim.Cycle) {
	// Candidate accounting must read the packet's inv flag and the VC's
	// still-valid occ position, so it runs before the packet is recycled and
	// before the occ swap below hands the position to another VC. A VC with
	// an active stream was already removed from the counts at placement.
	if vc.pkt != nil {
		if vc.active == nil && vc.pending != 0 {
			r.candidates(vc, -1)
		}
		r.unrouted &^= 1 << uint(vc.occPos)
		r.ni.Recycle(vc.pkt)
	}
	if vc.occPos >= 0 {
		last := len(r.occ) - 1
		moved := r.occ[last]
		r.occ[vc.occPos] = moved
		r.occ = r.occ[:last]
		r.portOcc[vc.port] &^= 1 << uint(vc.occPos)
		if moved != vc {
			// The swap moved the tail VC into the freed position; follow it
			// with any mask bits it held at its old position.
			bit := uint64(1) << uint(last)
			nbit := uint64(1) << uint(vc.occPos)
			moved.occPos = vc.occPos
			r.portOcc[moved.port] = r.portOcc[moved.port]&^bit | nbit
			for o := range r.candMask {
				if r.candMask[o]&bit != 0 {
					r.candMask[o] = r.candMask[o]&^bit | nbit
				}
			}
			if r.unrouted&bit != 0 {
				r.unrouted = r.unrouted&^bit | nbit
			}
		}
		vc.occPos = -1
		r.freeVCs[vc.port] |= 1 << vc.idx
	}
	vc.pkt = nil
	vc.reserved = false
	vc.routed = false
	vc.pending = 0
	vc.active = nil
	// Credit return: the freed buffer is new downstream space for the
	// adjacent upstream router. The credit travels back through this
	// router's ring with one cycle of link delay. The upstream router banks
	// it at the top of its next tick whenever that is; only a candidate
	// waiting for the port needs that tick at the credit's cycle, so only
	// then is it woken (the credQueued bit, which its reschedule reads for
	// the ports it wants, covers the case where it ticks after us this cycle
	// and would otherwise clobber the wake).
	if nb := r.nbr[vc.port]; nb != nil {
		o := uint(opposite[vc.port])
		r.credRet[vc.port].push(int(vc.vnet), now+1)
		nb.credQueued |= 1 << o
		if nb.wantOut&(1<<o) != 0 {
			nb.h.WakeAt(now + 1)
		}
	}
}

// freeVC returns the lowest-indexed free input VC for the vnet at the given
// port, or nil.
func (r *Router) freeVC(port, vnet int) *inputVC {
	m := r.freeVCs[port] & r.vnetVCs[vnet]
	if m == 0 {
		return nil
	}
	return &r.in[port][bits.TrailingZeros16(m)]
}

// Tick advances the router by one cycle: stage 0 drains matured ring
// traffic (returned credits, arrived heads), stage 1 routes newly arrived
// heads, then allocation, then switch/link traversal for all held streams.
// A RouterSlow fault window freezes the whole pipeline on its off-duty
// cycles — ring entries stay queued and ripen untouched, and streams send
// no flit, so their marks move; skipping reschedule too keeps the router
// awake, so it observes every cycle of the window exactly like the dense
// kernel does.
func (r *Router) Tick(now sim.Cycle) {
	if f := r.net.faults; f != nil && f.RouterFrozen(r.id, now) {
		for m := r.heldOut; m != 0; m &= m - 1 {
			r.streams[bits.TrailingZeros8(m)].last = now
		}
		return
	}
	if r.credQueued != 0 {
		r.acceptCredits(now)
	}
	if r.arrQueued != 0 {
		r.acceptArrivals(now)
	}
	r.stage1(now)
	r.allocate(now)
	// Traversal: one flit per held output port; heads are delivered
	// downstream and completed replicas retired.
	streaming := r.heldOut != 0
	for m := r.heldOut; m != 0; m &= m - 1 {
		r.sendFlit(&r.streams[bits.TrailingZeros8(m)], now)
	}
	r.reschedule(now, streaming)
}

// acceptCredits banks matured credit returns from the adjacent routers whose
// credRet ring behind the shared link holds any. This router is the
// designated consumer of each such ring. It runs first in every tick, so
// allocation sees the count a dense tick would even when the router slept
// through the credits' cycles.
func (r *Router) acceptCredits(now sim.Cycle) {
	for m := r.credQueued; m != 0; m &= m - 1 {
		o := bits.TrailingZeros8(m)
		ring := &r.nbr[o].credRet[opposite[o]]
		for {
			v, ok := ring.pop(now)
			if !ok {
				break
			}
			r.credits[o][v]++
		}
		if ring.len() == 0 {
			r.credQueued &^= 1 << uint(o)
		}
	}
}

// acceptArrivals moves matured head-flit handoffs from the input-port
// arrival rings into free input VCs. The credit protocol guarantees a free
// VC of the packet's vnet exists for every matured entry: the upstream
// router spent a credit per handoff, and credits only return after a VC
// frees.
func (r *Router) acceptArrivals(now sim.Cycle) {
	for m := r.arrQueued; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		ring := &r.arrivals[p]
		for {
			pkt, at, ok := ring.pop(now)
			if !ok {
				break
			}
			vc := r.freeVC(p, pkt.VNet)
			if vc == nil {
				panic(fmt.Sprintf("noc: router %d has no free VC at (%s, vnet %d) for a credited arrival",
					r.id, PortName(p), pkt.VNet))
			}
			r.enlist(vc)
			r.writeHead(vc, pkt, at)
		}
		if ring.len() == 0 {
			r.arrQueued &^= 1 << uint(p)
		}
	}
}

// reschedule decides whether the router can skip cycles. With the occupied
// list empty and every ring drained the router is fully quiescent (a
// streaming VC stays occupied until its tail departs, so no streams remain
// either; filter entries expire lazily and need no ticking). A non-empty
// occ still allows sleeping when every held packet is blocked on an event
// with a known or wake-covered cycle: a future head arrival, a queued ring
// entry ripening, or a downstream credit returning for a port a candidate
// wants (its release schedules our wake). Credits for ports nobody wants
// wake nothing: the next tick banks them first, whenever it comes. And when
// every occupied VC is streaming, only body flits move until the earliest
// tail, which the router sleeps to.
//
// Reading the queued-ring masks below is load-bearing, not an optimization:
// a producer that runs after this router within the same cycle pairs its
// push with a WakeAt, but a push that happened *before* this tick already
// spent its WakeAt on an awake handle (a no-op), so the only record of the
// pending event is the ring entry — and the mask bit its producer set in
// the same breath. Missing it here would sleep through the event: the
// classic lost wakeup.
func (r *Router) reschedule(now sim.Cycle, streaming bool) {
	next := sim.NeverWake
	for m := r.arrQueued; m != 0; m &= m - 1 {
		if at := r.arrivals[bits.TrailingZeros8(m)].earliest(); at < next {
			next = at
		}
	}
	for m := r.credQueued & r.wantOut; m != 0; m &= m - 1 {
		o := bits.TrailingZeros8(m)
		if at := r.nbr[o].credRet[opposite[o]].earliest(); at < next {
			next = at
		}
	}
	if len(r.occ) == 0 {
		if next == sim.NeverWake {
			r.h.Sleep()
		} else {
			r.h.SleepUntil(next)
		}
		return
	}
	if streaming {
		// Flits moved or ports were held this cycle; output and input locks
		// may have freed mid-tick, so allocation must re-run next cycle —
		// unless every occupied VC is streaming (each stream drains its own
		// VC, so the counts match exactly then): no candidate, no unrouted
		// head and no reserved VC is left, and until the earliest tail or
		// arrival the ticks would move body flits and nothing else. Under a
		// fault hook the router stays awake: a frozen cycle sends no flit,
		// and a window may block or jitter what the tail hands on.
		if r.net.faults != nil || len(r.occ) != bits.OnesCount8(r.heldOut) {
			return
		}
		for m := r.heldOut; m != 0; m &= m - 1 {
			s := &r.streams[bits.TrailingZeros8(m)]
			if t := now + sim.Cycle(s.size-s.sent); t < next {
				next = t
			}
		}
		r.net.eng.ProgressThrough(next - 1)
		r.h.SleepUntil(next)
		return
	}
	for _, vc := range r.occ {
		if vc.pkt == nil {
			// Reserved by the local NI's pick; its pump writes the head in
			// the same NI tick, so this is transient within a cycle.
			continue
		}
		if !vc.routed {
			if vc.headAt < next {
				next = vc.headAt // stage 1 runs in the head's arrival cycle
			}
			continue
		}
		if r.net.cfg.OrdPushInvStall && vc.pkt.IsInv {
			// StalledInvCycles accrues once per ticked cycle while an
			// invalidation waits behind a live registered push; sleeping
			// would skip those counts. Filter registrations happen only
			// during this router's own ticks (route → register), so if no
			// live entry matches now, none can appear while we sleep and
			// no counts are missed; liveness only decays with time.
			for m := vc.pending; m != 0; m &= m - 1 {
				if r.filters.hasAddr(bits.TrailingZeros8(m), vc.pkt.Addr, now) {
					return
				}
			}
		}
		if vc.active != nil {
			return // draining stream (unreachable when !streaming); stay awake
		}
		if t := vc.headAt + 1; t > now {
			if t < next {
				next = t // stage-2 eligibility
			}
			continue
		}
		// Allocation-eligible but not placed: blocked on exhausted credits;
		// the downstream router's release schedules our wake at the
		// credit's return cycle (and the ring masks above caught any credit
		// already in flight).
	}
	if next == sim.NeverWake {
		r.h.Sleep()
	} else {
		r.h.SleepUntil(next)
	}
}

// stage1 runs buffer-write/route-compute for heads that arrived by now.
// Push packets are processed before requests so that the "Filtering at Port"
// case (push and request arriving in the same cycle) resolves in the push's
// favour, as in Fig 7a.
func (r *Router) stage1(now sim.Cycle) {
	if r.unrouted == 0 || now < r.minHeadAt {
		return // nothing unrouted, or every unrouted head still in transit
	}
	// Collect the arrived unrouted heads, in occ order, so the two routing
	// passes below are insulated from occ mutations (route's stationary
	// filtering releases VCs). Heads still in link transit (headAt in the
	// future) stay marked but cannot route yet.
	snap := r.scratch[:0]
	minNext := sim.NeverWake
	for m := r.unrouted; m != 0; m &= m - 1 {
		vc := r.occ[bits.TrailingZeros64(m)]
		if now >= vc.headAt {
			snap = append(snap, vc)
		} else if vc.headAt < minNext {
			minNext = vc.headAt
		}
	}
	// Every unrouted head was just visited, so minNext is the exact earliest
	// in-transit arrival (releases can only leave it stale low, which merely
	// costs one wasted scan).
	r.minHeadAt = minNext
	r.scratch = snap
	// Pass 1: route pushes and everything non-filterable; register filters.
	for _, vc := range snap {
		if vc.pkt == nil || vc.routed || vc.pkt.Filterable {
			continue
		}
		r.route(vc, now)
	}
	// Pass 2: filterable read requests (lookup may drop them).
	for _, vc := range snap {
		if vc.pkt == nil || vc.routed || !vc.pkt.Filterable {
			continue
		}
		if r.filters != nil && r.net.cfg.FilterEnabled &&
			r.filters.lookup(int(vc.port), vc.pkt.Addr, vc.pkt.Requester, now) &&
			r.squash(vc, trace.KFilterHit, now) {
			continue
		}
		r.route(vc, now)
	}
}

// squash drops the filterable request in vc on a filter hit of the given
// kind and reports whether it did. A FilterDrop window turns the hit into a
// miss: the request travels on and triggers a redundant response the private
// cache discards — pure degradation, no protocol state touched.
func (r *Router) squash(vc *inputVC, kind trace.Kind, now sim.Cycle) bool {
	if f := r.net.faults; f != nil && f.SuppressFilterHit(r.id, now) {
		return false
	}
	r.st.Net.FilteredRequests++
	r.net.eng.Progress()
	r.tr.Emit(trace.Event{Cycle: uint64(now), Kind: kind, Node: int32(r.id),
		Addr: vc.pkt.Addr, ID: vc.pkt.ID, A: int32(vc.pkt.Requester), B: int32(vc.port)})
	r.release(vc, now)
	return true
}

// route performs route computation for the packet in vc and, for pushes,
// the filter registration and stationary-filtering actions.
func (r *Router) route(vc *inputVC, now sim.Cycle) {
	pkt := vc.pkt
	dm := &r.dmask[routeMode(pkt.VNet)]
	var ports uint8
	for w, d := range &pkt.Dests {
		if d == 0 {
			continue
		}
		for o := range dm {
			if d&dm[o][w] != 0 {
				ports |= 1 << uint(o)
			}
		}
	}
	if ports == 0 {
		panic(fmt.Sprintf("noc: router %d routed packet with no outputs: %v", r.id, pkt))
	}
	vc.pending = ports
	vc.routed = true
	r.unrouted &^= 1 << uint(vc.occPos)
	r.candidates(vc, +1)

	// Filter registration happens whenever the filter banks exist: request
	// pruning needs it, and so does OrdPush invalidation ordering even when
	// pruning is ablated away (Fig 20's Push+Multicast point).
	if pkt.IsPush && r.filters != nil {
		port := int(vc.port)
		dataVC := int(vc.idx) - VNetData*r.filters.dataVCs
		if dataVC < 0 || dataVC >= r.filters.dataVCs {
			panic("noc: push packet outside the data vnet")
		}
		for m := ports; m != 0; m &= m - 1 {
			o := bits.TrailingZeros8(m)
			out := r.portDests(vc, o)
			// Filter Registration.
			r.filters.register(o, port, dataVC, pkt.Addr, out)
			r.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KFilterReg, Node: int32(r.id),
				Addr: pkt.Addr, ID: pkt.ID, Aux: trace.Aux(out), A: int32(o), B: int32(port)})
			// Stationary Filtering: prune matched read requests already
			// buffered (or arriving) at the input port facing the push's
			// output direction; they travel the reverse path and their
			// response is embedded in this push.
			if r.net.cfg.FilterEnabled {
				r.stationaryFilter(o, pkt.Addr, out, now)
			}
		}
	}
}

// stationaryFilter drops buffered read requests at input port `port` whose
// response is covered by a registered push (addr, dests). Only idle,
// single-flit filterable requests are dropped; a request already draining
// through the switch is left alone (it will trigger a redundant unicast that
// the private cache discards).
func (r *Router) stationaryFilter(port int, addr uint64, dests DestSet, now sim.Cycle) {
	for m := ^r.freeVCs[port] & r.vnetVCs[VNetReq]; m != 0; m &= m - 1 {
		vc := &r.in[port][bits.TrailingZeros16(m)]
		if vc.pkt == nil || vc.active != nil || !vc.pkt.Filterable {
			continue
		}
		if vc.pkt.Addr == addr && dests.Has(vc.pkt.Requester) {
			r.squash(vc, trace.KFilterStationary, now)
		}
	}
}

// allocate performs VC + switch allocation: each free output port picks one
// eligible (input VC, replica) candidate round-robin, reserves a downstream
// VC, and locks both ports for the replica's duration.
func (r *Router) allocate(now sim.Cycle) {
	f := r.net.faults
	// locked collects the VCs behind held input ports; a placement below
	// adds its own.
	var locked uint64
	for m := r.heldIn; m != 0; m &= m - 1 {
		locked |= r.portOcc[bits.TrailingZeros8(m)]
	}
	for m := r.wantOut &^ r.heldOut; m != 0; m &= m - 1 {
		o := bits.TrailingZeros8(m)
		if r.candMask[o]&^locked == 0 {
			continue
		}
		// A LinkStall window refuses new allocations onto the port before
		// allocateOutput runs, so per-candidate side effects (invalidation
		// stall accounting) stay identical across kernels. The injector wakes
		// this router when the window ends; it may have slept meanwhile.
		if f != nil && f.LinkBlocked(r.id, o, now) {
			continue
		}
		if s := r.allocateOutput(o, now, locked); s != nil {
			locked |= r.portOcc[s.inPort]
		}
	}
}

// allocateOutput places at most one replica on output port o, choosing among
// its candidates outside locked, and returns the stream it started.
func (r *Router) allocateOutput(o int, now sim.Cycle, locked uint64) *stream {
	// invStall: an invalidation candidate may have to stall behind a
	// same-line push still registered at this output port (OrdPush ordering).
	invStall := r.invCand[o] != 0 && r.net.cfg.OrdPushInvStall && r.filters != nil
	if o != PortLocal && r.invCand[o] == 0 {
		// Exact fast-fail under congestion: when every vnet with candidates
		// for this port has exhausted credits, no scan iteration could place
		// a replica (each would stop at the same credit check).
		// Invalidation candidates force the full scan because their
		// stalled-cycle accounting is a mid-scan side effect.
		placeable := false
		for v := 0; v < NumVNets; v++ {
			if r.candV[o][v] != 0 && r.credits[o][v] != 0 {
				placeable = true
				break
			}
		}
		if !placeable {
			return nil
		}
	}
	total := len(r.occ)
	// Iterate the candidate bitmask in round-robin position order: the set
	// bits at or above the arbitration pointer first, then the wrapped-around
	// bits below it. This visits exactly the VCs a linear occ scan would, in
	// the same order, without touching non-candidates (a set bit already
	// implies a routed packet with port o pending and no active stream) or
	// candidates whose input port another stream holds.
	// Nothing before placement mutates the mask, so the snapshot stays exact;
	// placement returns.
	start := int(r.rr[o]) % total
	below := uint64(1)<<uint(start) - 1
	m := r.candMask[o] &^ locked
	for _, mm := range [2]uint64{m &^ below, m & below} {
		for ; mm != 0; mm &= mm - 1 {
			idx := bits.TrailingZeros64(mm)
			vc := r.occ[idx]
			// Stage-2 eligibility: stage 1 ran in the head's arrival cycle.
			if now < vc.headAt+1 {
				continue
			}
			if invStall && vc.pkt.IsInv && r.filters.hasAddr(o, vc.pkt.Addr, now) {
				r.st.Net.StalledInvCycles++
				continue
			}
			if o != PortLocal {
				if r.nbr[o] == nil {
					panic(fmt.Sprintf("noc: router %d routed %v to edge port %s", r.id, vc.pkt, PortName(o)))
				}
				if r.credits[o][vc.vnet] == 0 {
					continue // no downstream VC credit this cycle
				}
				r.credits[o][vc.vnet]--
			}
			pkt := vc.pkt
			// The replica comes out of the pool as it went in and is
			// overwritten whole.
			replica := r.ni.getPacket()
			*replica = *pkt
			replica.pooled = true
			replica.Dests = r.portDests(vc, o)
			if vc.pending&(vc.pending-1) != 0 {
				r.st.Net.MulticastReplicas++
			}
			p := int(vc.port)
			s := &r.streams[o]
			*s = stream{
				vc: vc, replica: replica, downR: r.nbr[o], inPort: p, outPort: o,
				size: pkt.Size, class: pkt.Class, dstUnit: pkt.DstUnit, isPush: pkt.IsPush,
				last: now - 1, // the head leaves in this tick's traversal
			}
			// The VC streams until the replica's tail departs; its remaining
			// pending ports cannot place meanwhile, so the whole VC leaves
			// the candidate counts (sendFlit restores the rest at stream
			// completion).
			r.candidates(vc, -1)
			vc.pending &^= 1 << uint(o)
			vc.active = s
			r.outStream[o] = s
			r.heldOut |= 1 << uint(o)
			r.heldIn |= 1 << uint(p)
			r.rr[o] = uint8((idx + 1) % total)
			return s
		}
	}
	return nil
}

// sendFlit sends the stream's flit of this cycle, counting in first the body
// flits of any cycles the router slept through.
func (r *Router) sendFlit(s *stream, now sim.Cycle) {
	r.countFlits(s, now)
	r.net.eng.Progress()
	if s.outPort != PortLocal && s.sent == 1 {
		// Head flit: hand the replica into the downstream router's arrival
		// ring, ripening after switch + link traversal; the downstream
		// router pops it into a credited VC at that cycle. A VCJitter fault
		// may delay the arrival; the hook keeps per-port arrivals monotonic,
		// so the link slows but never reorders (and ring entries stay
		// maturity-ordered).
		arr := now + 2
		if f := r.net.faults; f != nil {
			arr = f.Arrival(r.id, s.outPort, now, arr, s.replica.ID, int(s.vc.vnet))
		}
		// Ownership hand-off: from here the downstream router holds — and
		// eventually recycles — the replica. If this router is slowed
		// mid-drain (RouterSlow), the downstream one can finish with the
		// packet before our tail departs, so no later flit may dereference
		// it; the remaining cycles run off the stream's own fields.
		ip := opposite[s.outPort]
		s.downR.arrivals[ip].push(s.replica, arr)
		s.downR.arrQueued |= 1 << uint(ip)
		s.replica = nil
		s.downR.h.WakeAt(arr)
	}
	if s.sent < s.size {
		return
	}
	// Tail departed: release ports, lazily de-register the filter slot, free
	// the VC if all replicas are out, and complete local ejection.
	vc := s.vc
	r.outStream[s.outPort] = nil
	r.heldOut &^= 1 << uint(s.outPort)
	r.heldIn &^= 1 << uint(s.inPort)
	vc.active = nil
	// The VC's remaining pending ports become allocatable again now that the
	// stream is done; restore them to the candidate counts.
	if vc.pending != 0 {
		r.candidates(vc, +1)
	}
	if s.isPush && r.filters != nil {
		r.filters.scheduleClear(s.outPort, s.inPort, int(vc.idx)-VNetData*r.filters.dataVCs, now+2)
		r.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KFilterClear, Node: int32(r.id),
			Addr: vc.pkt.Addr, ID: vc.pkt.ID, A: int32(s.outPort), B: int32(s.inPort)})
	}
	if vc.pending == 0 {
		r.release(vc, now)
	}
	if s.outPort == PortLocal {
		// Local ejection never hands the replica off, so it is still owned
		// here; the NI recycles it after delivery.
		at := now + 2
		if f := r.net.faults; f != nil {
			at = f.Arrival(r.id, PortLocal, now, at, s.replica.ID, int(vc.vnet))
		}
		r.ni.scheduleDelivery(s.replica, at)
	}
}

// countFlits accounts the flits the stream sent in the cycles after its
// mark, through cycle through (one a cycle), on the link it leaves by or as
// ejected flits, and moves the mark there.
func (r *Router) countFlits(s *stream, through sim.Cycle) {
	n := int(through - s.last)
	s.last = through
	s.sent += n
	if s.outPort == PortLocal {
		r.st.Net.EjectedFlits[s.dstUnit][s.class] += uint64(n)
		return
	}
	r.st.Net.LinkFlits[int(r.id)*4+s.outPort] += uint64(n)
	r.st.Net.TotalFlitsByClass[s.class] += uint64(n)
}
