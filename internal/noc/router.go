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
// whole packet.
type inputVC struct {
	// port/idx locate this VC at its router; occPos is its position in the
	// router's occupied list (-1 when free).
	port, idx int `snap:"-,wiring"`
	occPos    int `snap:"-,derived: position in occ"`

	pkt *Packet
	// headAt is the cycle the head flit is present in this buffer; flit i
	// is present at headAt+i (flits stream contiguously under the locked
	// input/output port discipline).
	headAt sim.Cycle
	// routed is set once stage 1 (route compute + filter actions) ran.
	routed bool
	// pending holds per-output-port destination subsets that still need a
	// replica sent; asynchronous multicast drains them one at a time.
	pending [NumPorts]DestSet
	// pendingPorts counts non-empty pending entries.
	pendingPorts int
	// active is the stream currently draining this VC, if any.
	active *stream `snap:"-,derived: rewired from outStream"`
	// reserved marks a local-port VC claimed by the NI's pick whose head
	// flit has not been written yet (cleared at head delivery). Remote
	// arrivals never reserve: a head in flight lives in the input port's
	// arrival ring until it matures, and only then occupies a VC.
	reserved bool
}

func (vc *inputVC) free() bool { return vc.pkt == nil && !vc.reserved }

// stream is one in-progress replica transmission from an input VC through an
// output port. Both the input port and the output port are held until the
// tail flit departs, which keeps flit delivery contiguous and makes
// cut-through timing exact.
//
// The replica pointer is only valid until the head flit hands it to the
// downstream VC: from that moment the downstream router owns (and eventually
// recycles) the packet, and it can finish with it before this stream's tail
// departs — a RouterSlow window freezing this router mid-drain makes that
// overtaking real. Everything the remaining flits and the tail bookkeeping
// need is therefore snapshotted here at allocation time.
type stream struct {
	vc      *inputVC `snap:"-,derived: resolved from inPort and vcIdx"`
	replica *Packet  // nil once the head flit transfers ownership downstream
	inPort  int
	vcIdx   int     // absolute VC index at the input port
	outPort int     `snap:"-,derived: the outStream slot"`
	downR   *Router `snap:"-,wiring"` // adjacent router behind outPort, nil for PortLocal
	sent    int

	// Snapshot of the replica taken at allocation; safe to read for the
	// stream's whole lifetime regardless of who owns the packet.
	size    int
	vnet    int
	class   stats.Class
	dstUnit stats.Unit
	dests   DestSet
	addr    uint64
	id      uint64
	isPush  bool
}

// Router is a 2-stage virtual-cut-through router: stage 1 performs buffer
// write + route computation (plus the filter's registration/lookup actions in
// parallel, Fig 7a), stage 2 performs VC/switch allocation and switch
// traversal. Links add one cycle.
type Router struct {
	id  NodeID              `snap:"-,wiring"`
	net *Network            `snap:"-,wiring"`
	h   *sim.Handle         `snap:"-,wiring"`
	in  [NumPorts][]inputVC `snap:"-,storage: occupied VCs travel through occ, free ones hold no state"`
	// outStream / inLock serialize the switch at packet granularity: one
	// replica owns an output port (and its input port) until its tail
	// departs.
	outStream [NumPorts]*stream
	inLock    [NumPorts]*stream `snap:"-,derived: rewired from outStream"`
	filters   *filterBank
	// rr holds per-output-port round-robin arbitration state.
	rr [NumPorts]int
	// occ lists VCs that hold or are reserved for a packet, so the per-
	// cycle pipeline stages touch only live work instead of scanning every
	// buffer. scratch is reused for iteration snapshots.
	occ     []*inputVC
	scratch []*inputVC `snap:"-,scratch"`
	// unrouted counts VCs holding a head that stage 1 has not routed yet;
	// when zero the stage-1 scans are skipped entirely.
	unrouted int
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
	candMask [NumPorts]uint64
	candV    [NumPorts][NumVNets]int16
	invCand  [NumPorts]int16
	// minHeadAt lower-bounds the earliest arrival among unrouted heads still
	// in link transit; stage 1 skips its scan entirely before that cycle.
	// Head writes lower it, stage-1 scans recompute it exactly.
	minHeadAt sim.Cycle
	// freeCnt[p][v] counts free input VCs per (port, vnet), so exhausted
	// downstream pools are rejected without scanning the VC array.
	freeCnt [NumPorts][NumVNets]int16
	// nbr caches the adjacent router behind each output port (nil at mesh
	// edges and for the local port).
	nbr [NumPorts]*Router `snap:"-,wiring"`
	// credits[o][v] counts downstream input VCs of vnet v this router may
	// still claim through output port o. It mirrors the neighbour's per-
	// (port, vnet) free-VC pool without reading neighbour state: allocation
	// decrements locally, and the neighbour's release sends the credit back
	// through its credRet ring, link-delayed one cycle. Unused for the local
	// port (the NI claims VCs directly).
	credits [NumPorts][NumVNets]int16
	// arrivals[p] queues head-flit handoffs arriving through input port p;
	// the upstream router produces, this router consumes matured entries at
	// the top of its tick. Unused for the local port.
	arrivals [NumPorts]arrRing
	// credRet[p] queues credits this router returns to the upstream
	// neighbour behind input port p; this router produces (at release), the
	// neighbour consumes. Unused for the local port.
	credRet [NumPorts]credRing
	// st is the run's stats bundle (net.st, cached).
	st *stats.All `snap:"-,wiring"`
	// streamPool recycles this router's per-replica stream allocations.
	streamPool []*stream `snap:"-,pool"`
	// dmask[mode][o] is the set of destinations this router forwards through
	// output port o under YX (mode 0) or XY (mode 1) dimension-order routing.
	// Route computation reduces to one AND per port against the packet's
	// destination set.
	dmask [2][NumPorts]DestSet `snap:"-,config"`
	// tr is this router's trace shard (nil when tracing is off); all writes
	// to it happen from this router's own ticks.
	tr *trace.Shard `snap:"-,wiring"`
}

func newRouter(id NodeID, net *Network) *Router {
	r := &Router{id: id, net: net, st: net.st}
	total := NumVNets * net.cfg.VCsPerVNet
	for p := 0; p < NumPorts; p++ {
		r.in[p] = make([]inputVC, total)
		for i := range r.in[p] {
			vc := &r.in[p][i]
			vc.port, vc.idx, vc.occPos = p, i, -1
		}
		for v := 0; v < NumVNets; v++ {
			r.freeCnt[p][v] = int16(net.cfg.VCsPerVNet)
		}
	}
	for mode := 0; mode < 2; mode++ {
		for d := 0; d < net.cfg.Nodes(); d++ {
			p := net.cfg.nextPort(id, NodeID(d), mode == 1)
			r.dmask[mode][p] = r.dmask[mode][p].Add(NodeID(d))
		}
	}
	if net.cfg.FilterEnabled || net.cfg.OrdPushInvStall {
		r.filters = newFilterBank(net.cfg.VCsPerVNet)
	}
	return r
}

// claim registers a VC as occupied and wakes the router. Only the local NI
// calls it; remote arrivals enter through the arrival rings and enlist from
// the router's own tick.
func (r *Router) claim(vc *inputVC) {
	r.h.Wake()
	r.enlist(vc)
}

// enlist adds a VC to the occupied list and debits the free-VC pool.
func (r *Router) enlist(vc *inputVC) {
	if vc.occPos >= 0 {
		return
	}
	vc.occPos = len(r.occ)
	r.occ = append(r.occ, vc)
	r.freeCnt[vc.port][vc.idx/r.net.cfg.VCsPerVNet]--
}

// release resets a VC, drops it from the occupied list, and recycles the
// held packet: at this point every replica carries its own copy, so the
// buffered packet is dead.
func (r *Router) release(vc *inputVC, now sim.Cycle) {
	// Candidate accounting must read the packet's vnet/inv flags and the
	// VC's still-valid occ position, so it runs before the packet is
	// recycled (putPacket zeroes the struct) and before the occ swap below
	// hands the position to another VC. A VC with an active stream was
	// already removed from the counts at placement.
	if vc.pkt != nil {
		if vc.active == nil && vc.pendingPorts > 0 {
			bit := uint64(1) << uint(vc.occPos)
			for o := 0; o < NumPorts; o++ {
				if !vc.pending[o].Empty() {
					r.candMask[o] &^= bit
					r.candV[o][vc.pkt.VNet]--
					if vc.pkt.IsInv {
						r.invCand[o]--
					}
				}
			}
		}
		if !vc.routed {
			r.unrouted--
		}
		r.net.nis[r.id].putPacket(vc.pkt)
	}
	if vc.occPos >= 0 {
		last := len(r.occ) - 1
		moved := r.occ[last]
		r.occ[vc.occPos] = moved
		moved.occPos = vc.occPos
		r.occ = r.occ[:last]
		if moved != vc {
			// The swap moved the tail VC into the freed position; follow it
			// with any candidate bits it held at its old position.
			bit := uint64(1) << uint(last)
			nbit := uint64(1) << uint(vc.occPos)
			for o := 0; o < NumPorts; o++ {
				if r.candMask[o]&bit != 0 {
					r.candMask[o] = r.candMask[o]&^bit | nbit
				}
			}
		}
		vc.occPos = -1
		r.freeCnt[vc.port][vc.idx/r.net.cfg.VCsPerVNet]++
	}
	vc.pkt = nil
	vc.reserved = false
	vc.routed = false
	vc.pending = [NumPorts]DestSet{}
	vc.pendingPorts = 0
	vc.active = nil
	// Credit return: the freed buffer is new downstream space for the
	// adjacent upstream router. The credit travels back through this
	// router's ring with one cycle of link delay; the wake covers an
	// upstream router asleep blocked on exactly this VC pool (its own
	// reschedule ring scan covers the case where it ticks after us this
	// cycle and would otherwise clobber the wake).
	if vc.port != PortLocal {
		if nb := r.nbr[vc.port]; nb != nil {
			r.credRet[vc.port].push(vc.idx/r.net.cfg.VCsPerVNet, now+1)
			nb.h.WakeAt(now + 1)
		}
	}
}

// vcRange returns the [lo, hi) input-VC index range of a vnet.
func (r *Router) vcRange(vnet int) (int, int) {
	lo := vnet * r.net.cfg.VCsPerVNet
	return lo, lo + r.net.cfg.VCsPerVNet
}

// freeVC returns a free input VC for the vnet at the given port, or nil.
func (r *Router) freeVC(port, vnet int) *inputVC {
	if r.freeCnt[port][vnet] == 0 {
		return nil
	}
	lo, hi := r.vcRange(vnet)
	for i := lo; i < hi; i++ {
		if r.in[port][i].free() {
			return &r.in[port][i]
		}
	}
	return nil
}

// Tick advances the router by one cycle: stage 0 drains matured ring
// traffic (returned credits, arrived heads), stage 1 routes newly arrived
// heads, then allocation, then switch/link traversal for all held streams.
// A RouterSlow fault window freezes the whole pipeline on its off-duty
// cycles — ring entries stay queued and ripen untouched; skipping
// reschedule too keeps the router awake, so it observes every cycle of the
// window exactly like the dense kernel does.
func (r *Router) Tick(now sim.Cycle) {
	if f := r.net.faults; f != nil && f.RouterFrozen(r.id, now) {
		return
	}
	r.acceptCredits(now)
	r.acceptArrivals(now)
	r.stage1(now)
	r.allocate(now)
	streaming := false
	for o := 0; o < NumPorts; o++ {
		if r.outStream[o] != nil {
			streaming = true
			break
		}
	}
	r.traverse(now)
	r.reschedule(now, streaming)
}

// acceptCredits banks matured credit returns from every adjacent router.
// This router is the designated consumer of each neighbour's credRet ring
// behind the shared link.
func (r *Router) acceptCredits(now sim.Cycle) {
	for o := 0; o < NumPorts; o++ {
		nb := r.nbr[o]
		if nb == nil {
			continue
		}
		ring := &nb.credRet[opposite[o]]
		for {
			v, ok := ring.pop(now)
			if !ok {
				break
			}
			r.credits[o][v]++
		}
	}
}

// acceptArrivals moves matured head-flit handoffs from the input-port
// arrival rings into free input VCs. The credit protocol guarantees a free
// VC of the packet's vnet exists for every matured entry: the upstream
// router spent a credit per handoff, and credits only return after a VC
// frees.
func (r *Router) acceptArrivals(now sim.Cycle) {
	for p := 0; p < NumPorts; p++ {
		if p == PortLocal {
			continue
		}
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
			vc.pkt = pkt
			vc.headAt = at
			r.unrouted++
			if at < r.minHeadAt {
				r.minHeadAt = at
			}
		}
	}
}

// reschedule decides whether the router can skip cycles. With the occupied
// list empty and every ring drained the router is fully quiescent (a
// streaming VC stays occupied until its tail departs, so no streams remain
// either; filter entries expire lazily and need no ticking). A non-empty
// occ still allows sleeping when every held packet is blocked on an event
// with a known or wake-covered cycle: a future head arrival, a queued ring
// entry ripening, or a downstream credit returning (its release schedules
// our wake).
//
// The ring scans below are load-bearing, not an optimization: a producer
// that runs after this router within the same cycle pairs its push with a
// WakeAt, but a push that happened *before* this tick already spent its
// WakeAt on an awake handle (a no-op), so the only record of the pending
// event is the ring entry itself. Missing it here would sleep through the
// event — the classic lost wakeup.
func (r *Router) reschedule(now sim.Cycle, streaming bool) {
	next := sim.NeverWake
	for p := 0; p < NumPorts; p++ {
		if at, ok := r.arrivals[p].earliest(); ok && at < next {
			next = at
		}
	}
	for o := 0; o < NumPorts; o++ {
		if nb := r.nbr[o]; nb != nil {
			if at, ok := nb.credRet[opposite[o]].earliest(); ok && at < next {
				next = at
			}
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
		// may have freed mid-tick, so allocation must re-run next cycle.
		return
	}
	for _, vc := range r.occ {
		if vc.pkt == nil {
			// Reserved by the local NI's pick; its pump writes the head in
			// the same NI tick, so this is transient within a cycle.
			continue
		}
		if r.net.cfg.OrdPushInvStall && vc.pkt.IsInv && vc.routed {
			// StalledInvCycles accrues once per ticked cycle while an
			// invalidation waits behind a live registered push; sleeping
			// would skip those counts. Filter registrations happen only
			// during this router's own ticks (route → register), so if no
			// live entry matches now, none can appear while we sleep and
			// no counts are missed; liveness only decays with time.
			for o := 0; o < NumPorts; o++ {
				if !vc.pending[o].Empty() && r.filters.hasAddr(o, vc.pkt.Addr, now) {
					return
				}
			}
		}
		if !vc.routed {
			if vc.headAt < next {
				next = vc.headAt // stage 1 runs in the head's arrival cycle
			}
			continue
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
		// credit's return cycle (and the ring scan above caught any credit
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
	// Collect the unrouted heads — typically a handful even under load — so
	// the two routing passes below scan only them instead of walking every
	// occupied VC twice. The snapshot also insulates iteration from occ
	// mutations (route's stationary filtering releases VCs).
	snap := r.scratch[:0]
	seen, want := 0, r.unrouted
	minNext := sim.NeverWake
	for _, vc := range r.occ {
		if vc.pkt != nil && !vc.routed {
			// Heads still in link transit (headAt in the future) count toward
			// unrouted but cannot route yet; leave them out of the snapshot.
			if now >= vc.headAt {
				snap = append(snap, vc)
			} else if vc.headAt < minNext {
				minNext = vc.headAt
			}
			if seen++; seen == want {
				break
			}
		}
	}
	// Everything counted by unrouted was just visited, so minNext is the
	// exact earliest in-transit arrival (releases can only leave it stale
	// low, which merely costs one wasted scan).
	r.minHeadAt = minNext
	r.scratch = snap
	// Pass 1: route pushes and everything non-filterable; register filters.
	for _, vc := range snap {
		if vc.pkt == nil || vc.routed || now < vc.headAt || vc.pkt.Filterable {
			continue
		}
		r.route(vc, vc.port, vc.idx, now)
	}
	// Pass 2: filterable read requests (lookup may drop them).
	for _, vc := range snap {
		if vc.pkt == nil || vc.routed || now < vc.headAt || !vc.pkt.Filterable {
			continue
		}
		if r.filters != nil && r.net.cfg.FilterEnabled &&
			r.filters.lookup(vc.port, vc.pkt.Addr, vc.pkt.Requester, now) {
			// A FilterDrop window turns the hit into a miss: the request
			// travels on and triggers a redundant response the private cache
			// discards — pure degradation, no protocol state touched.
			if f := r.net.faults; f != nil && f.SuppressFilterHit(r.id, now) {
				r.route(vc, vc.port, vc.idx, now)
				continue
			}
			r.st.Net.FilteredRequests++
			r.net.eng.Progress()
			r.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KFilterHit, Node: int32(r.id),
				Addr: vc.pkt.Addr, ID: vc.pkt.ID, A: int32(vc.pkt.Requester), B: int32(vc.port)})
			r.release(vc, now)
			continue
		}
		r.route(vc, vc.port, vc.idx, now)
	}
}

// route performs route computation for the packet in vc and, for pushes,
// the filter registration and stationary-filtering actions.
func (r *Router) route(vc *inputVC, port, vcIdx int, now sim.Cycle) {
	pkt := vc.pkt
	mode := 0
	if routingXY(pkt.VNet) {
		mode = 1
	}
	var out [NumPorts]DestSet
	for o := 0; o < NumPorts; o++ {
		out[o] = pkt.Dests.Intersect(r.dmask[mode][o])
	}
	vc.pending = out
	vc.pendingPorts = 0
	bit := uint64(1) << uint(vc.occPos)
	for o := 0; o < NumPorts; o++ {
		if !out[o].Empty() {
			vc.pendingPorts++
			r.candMask[o] |= bit
			r.candV[o][pkt.VNet]++
			if pkt.IsInv {
				r.invCand[o]++
			}
		}
	}
	vc.routed = true
	r.unrouted--
	if vc.pendingPorts == 0 {
		panic(fmt.Sprintf("noc: router %d routed packet with no outputs: %v", r.id, pkt))
	}

	// Filter registration happens whenever the filter banks exist: request
	// pruning needs it, and so does OrdPush invalidation ordering even when
	// pruning is ablated away (Fig 20's Push+Multicast point).
	if pkt.IsPush && r.filters != nil {
		dataVC := vcIdx - VNetData*r.net.cfg.VCsPerVNet
		if dataVC < 0 || dataVC >= r.net.cfg.VCsPerVNet {
			panic("noc: push packet outside the data vnet")
		}
		for o := 0; o < NumPorts; o++ {
			if out[o].Empty() {
				continue
			}
			// Filter Registration.
			r.filters.register(o, port, dataVC, pkt.Addr, out[o])
			r.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KFilterReg, Node: int32(r.id),
				Addr: pkt.Addr, ID: pkt.ID, Aux: trace.Aux(out[o]), A: int32(o), B: int32(port)})
			// Stationary Filtering: prune matched read requests already
			// buffered (or arriving) at the input port facing the push's
			// output direction; they travel the reverse path and their
			// response is embedded in this push.
			if r.net.cfg.FilterEnabled {
				r.stationaryFilter(o, pkt.Addr, out[o], now)
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
	lo, hi := r.vcRange(VNetReq)
	for i := lo; i < hi; i++ {
		vc := &r.in[port][i]
		if vc.pkt == nil || vc.active != nil || !vc.pkt.Filterable {
			continue
		}
		if vc.pkt.Addr == addr && dests.Has(vc.pkt.Requester) {
			if f := r.net.faults; f != nil && f.SuppressFilterHit(r.id, now) {
				continue
			}
			r.st.Net.FilteredRequests++
			r.net.eng.Progress()
			r.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KFilterStationary, Node: int32(r.id),
				Addr: addr, ID: vc.pkt.ID, A: int32(vc.pkt.Requester), B: int32(port)})
			r.release(vc, now)
		}
	}
}

// allocate performs VC + switch allocation: each free output port picks one
// eligible (input VC, replica) candidate round-robin, reserves a downstream
// VC, and locks both ports for the replica's duration.
func (r *Router) allocate(now sim.Cycle) {
	if len(r.occ) == 0 {
		return
	}
	for o := 0; o < NumPorts; o++ {
		if r.outStream[o] != nil || r.candMask[o] == 0 {
			continue
		}
		// A LinkStall window refuses new allocations onto the port before
		// allocateOutput runs, so per-candidate side effects (invalidation
		// stall accounting) stay identical across kernels. The injector wakes
		// this router when the window ends; it may have slept meanwhile.
		if f := r.net.faults; f != nil && f.LinkBlocked(r.id, o, now) {
			continue
		}
		r.allocateOutput(o, now)
	}
}

func (r *Router) allocateOutput(o int, now sim.Cycle) {
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
			return
		}
	}
	total := len(r.occ)
	// Iterate the candidate bitmask in round-robin position order: the set
	// bits at or above the arbitration pointer first, then the wrapped-around
	// bits below it. This visits exactly the VCs the old linear occ scan
	// visited, in the same order, without touching non-candidates (a set bit
	// already implies a routed packet with pending[o] != 0 and no active
	// stream). Nothing before placement mutates the mask, so the snapshot
	// stays exact; placement returns.
	start := r.rr[o] % total
	below := uint64(1)<<uint(start) - 1
	m := r.candMask[o]
	for _, mm := range [2]uint64{m &^ below, m & below} {
		for ; mm != 0; mm &= mm - 1 {
			idx := bits.TrailingZeros64(mm)
			vc := r.occ[idx]
			p := vc.port
			if r.inLock[p] != nil {
				continue
			}
			// Stage-2 eligibility: stage 1 ran in the head's arrival cycle.
			if now < vc.headAt+1 {
				continue
			}
			pkt := vc.pkt
			// OrdPush ordering: stall an invalidation while a same-line push is
			// still registered at this output port.
			if pkt.IsInv && r.net.cfg.OrdPushInvStall && r.filters != nil &&
				r.filters.hasAddr(o, pkt.Addr, now) {
				r.st.Net.StalledInvCycles++
				continue
			}
			var downRouter *Router
			if o != PortLocal {
				downRouter = r.nbr[o]
				if downRouter == nil {
					panic(fmt.Sprintf("noc: router %d routed %v to edge port %s", r.id, pkt, PortName(o)))
				}
				if r.credits[o][pkt.VNet] == 0 {
					continue // no downstream VC credit this cycle
				}
				r.credits[o][pkt.VNet]--
			}
			replica := r.net.nis[r.id].getPacket()
			*replica = *pkt
			replica.pooled = true
			if rp, ok := pkt.Payload.(RefPayload); ok {
				rp.AddRef()
			}
			replica.Dests = vc.pending[o]
			if vc.pendingPorts > 1 {
				r.st.Net.MulticastReplicas++
			}
			s := r.getStream()
			*s = stream{
				vc: vc, replica: replica, inPort: p, vcIdx: vc.idx, outPort: o,
				downR: downRouter,
				size:  replica.Size, vnet: replica.VNet, class: replica.Class,
				dstUnit: replica.DstUnit, dests: replica.Dests,
				addr: replica.Addr, id: replica.ID, isPush: replica.IsPush,
			}
			bit := uint64(1) << uint(idx)
			vc.active = s
			vc.pending[o] = DestSet{}
			vc.pendingPorts--
			r.candMask[o] &^= bit
			r.candV[o][pkt.VNet]--
			if pkt.IsInv {
				r.invCand[o]--
			}
			// The VC streams until the replica's tail departs; its remaining
			// pending ports cannot place meanwhile, so drop them from the
			// candidate counts (sendFlit restores them at stream completion).
			if vc.pendingPorts > 0 {
				for op := 0; op < NumPorts; op++ {
					if !vc.pending[op].Empty() {
						r.candMask[op] &^= bit
						r.candV[op][pkt.VNet]--
						if pkt.IsInv {
							r.invCand[op]--
						}
					}
				}
			}
			r.outStream[o] = s
			r.inLock[p] = s
			r.rr[o] = (idx + 1) % total
			return
		}
	}
}

// traverse streams one flit per held output port, delivers heads downstream,
// and retires completed replicas.
func (r *Router) traverse(now sim.Cycle) {
	for o := 0; o < NumPorts; o++ {
		s := r.outStream[o]
		if s == nil {
			continue
		}
		r.sendFlit(s, now)
	}
}

func (r *Router) sendFlit(s *stream, now sim.Cycle) {
	s.sent++
	r.net.eng.Progress()
	if s.outPort == PortLocal {
		r.st.Net.EjectedFlits[s.dstUnit][s.class]++
	} else {
		r.countLinkFlit(s.outPort, s.class)
	}
	if s.sent == 1 && s.outPort != PortLocal {
		// Head flit: hand the replica into the downstream router's arrival
		// ring, ripening after switch + link traversal; the downstream
		// router pops it into a credited VC at that cycle. A VCJitter fault
		// may delay the arrival; the hook keeps per-port arrivals monotonic,
		// so the link slows but never reorders (and ring entries stay
		// maturity-ordered).
		arr := now + 2
		if f := r.net.faults; f != nil {
			arr = f.Arrival(r.id, s.outPort, now, arr, s.id, s.vnet)
		}
		// Ownership hand-off: from here the downstream router holds — and
		// eventually recycles — the replica. If this router is slowed
		// mid-drain (RouterSlow), the downstream one can finish with the
		// packet before our tail departs, so no later flit may dereference
		// it; the remaining cycles run off the stream's snapshot.
		s.downR.arrivals[opposite[s.outPort]].push(s.replica, arr)
		s.replica = nil
		s.downR.h.WakeAt(arr)
	}
	if s.sent < s.size {
		return
	}
	// Tail departed: release ports, lazily de-register the filter slot, free
	// the VC if all replicas are out, and complete local ejection.
	r.outStream[s.outPort] = nil
	r.inLock[s.inPort] = nil
	s.vc.active = nil
	// The VC's remaining pending ports become allocatable again now that the
	// stream is done; restore them to the candidate counts.
	if s.vc.pendingPorts > 0 {
		orig := s.vc.pkt
		bit := uint64(1) << uint(s.vc.occPos)
		for op := 0; op < NumPorts; op++ {
			if !s.vc.pending[op].Empty() {
				r.candMask[op] |= bit
				r.candV[op][orig.VNet]++
				if orig.IsInv {
					r.invCand[op]++
				}
			}
		}
	}
	if s.isPush && r.filters != nil {
		dataVC := s.vcIdx - VNetData*r.net.cfg.VCsPerVNet
		r.filters.scheduleClear(s.outPort, s.inPort, dataVC, now+2)
		r.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KFilterClear, Node: int32(r.id),
			Addr: s.addr, ID: s.id, A: int32(s.outPort), B: int32(s.inPort)})
	}
	if s.vc.pendingPorts == 0 {
		r.release(s.vc, now)
	}
	if s.outPort == PortLocal {
		// Local ejection never hands the replica off, so it is still owned
		// here; the NI recycles it after delivery.
		at := now + 2
		if f := r.net.faults; f != nil {
			at = f.Arrival(r.id, PortLocal, now, at, s.id, s.vnet)
		}
		r.net.nis[r.id].scheduleDelivery(s.replica, at)
	}
	r.putStream(s)
}

// getStream / putStream recycle stream descriptors through the router's
// private pool.
func (r *Router) getStream() *stream {
	if k := len(r.streamPool); k > 0 {
		s := r.streamPool[k-1]
		r.streamPool[k-1] = nil
		r.streamPool = r.streamPool[:k-1]
		return s
	}
	return &stream{}
}

func (r *Router) putStream(s *stream) {
	*s = stream{}
	r.streamPool = append(r.streamPool, s)
}

// countLinkFlit accounts one flit traversing the inter-router link leaving
// this router through output port `port`.
func (r *Router) countLinkFlit(port int, class stats.Class) {
	r.st.Net.LinkFlits[int(r.id)*4+port]++
	r.st.Net.TotalFlitsByClass[class]++
}
