package noc

import (
	"fmt"
	"math/bits"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/trace"
)

// Endpoint is anything attached to a tile's network interface (an L2
// controller, an LLC slice, a memory controller). Receive must always accept
// the packet; endpoints queue internally and apply protocol-level flow
// control themselves.
type Endpoint interface {
	Receive(pkt *Packet, now sim.Cycle)
}

// delivered is an ejected packet waiting out its link delay to the endpoint.
type delivered struct {
	pkt     *Packet
	readyAt sim.Cycle
}

// niStream is an in-progress packet injection from the NI into the local
// router's input port.
type niStream struct {
	pkt  *Packet
	vc   *inputVC
	sent int
}

// NI is a tile's network interface. It multiplexes the co-located endpoints
// (L2 slice, LLC slice, and possibly a memory controller) onto the single
// local injection link, one flit per cycle, round-robin across per-unit
// per-vnet FIFO queues; and it demultiplexes ejected packets to endpoints by
// destination unit.
type NI struct {
	node NodeID      `snap:"-,wiring"`
	net  *Network    `snap:"-,wiring"`
	rt   *Router     `snap:"-,wiring"` // this tile's router
	h    *sim.Handle `snap:"-,wiring"`
	// st is the run's stats bundle (net.st, cached).
	st        *stats.All `snap:"-,wiring"`
	queues    [stats.NumUnits][NumVNets][]*Packet
	queued    int                      `snap:"-,derived: recounted from the queues"` // total packets across all queues
	endpoints [stats.NumUnits]Endpoint `snap:"-,wiring"`
	stream    *niStream
	// cur is the backing storage for stream: one injection is in flight at a
	// time, so the stream state lives in the NI instead of a per-injection
	// allocation.
	cur      niStream
	delivery []delivered
	rr       int
	// seq feeds this NI's packet IDs; combined with the node number so IDs
	// stay unique and deterministic without a network-global counter.
	seq uint64
	// tr is the run's tracer (nil when tracing is off): Inject emits into it
	// from the tile's endpoints, deliver and the transport from the NI's own
	// tick.
	tr *trace.Tracer `snap:"-,wiring"`
	// tp is the end-to-end recovery state (retransmit windows, receiver
	// dedup, pending acks), allocated only when the fault plan schedules
	// lossy kinds; nil keeps fault-free hot paths allocation-identical.
	// Inject reaches it from co-located endpoints, everything else from the
	// NI's own tick. See transport.go.
	tp *niTransport
}

// CanInject reports whether the unit's vnet queue has room for another
// packet. The room may shrink transiently under an InjSpike fault, so a
// CanInject-then-Inject pair is advisory, not a reservation; Inject itself
// reports refusal.
func (ni *NI) CanInject(unit stats.Unit, vnet int) bool {
	depth := ni.net.cfg.InjQueueDepth
	if f := ni.net.faults; f != nil {
		depth = f.InjQueueCap(ni.node, depth)
	}
	return len(ni.queues[unit][vnet]) < depth
}

// Inject enqueues a packet for injection. A full queue — or, under lossy
// faults, a full retransmit window — refuses the packet (backpressure: the
// packet stays with the caller, which retries next cycle) and reports false;
// the refusal is counted in InjRefused.
func (ni *NI) Inject(pkt *Packet, now sim.Cycle) bool {
	if !ni.CanInject(pkt.SrcUnit, pkt.VNet) {
		ni.st.Net.InjRefused++
		return false
	}
	if ni.net.lossy && !pkt.IsAck && !pkt.retx && !pkt.Filterable && ni.windowFull(pkt.VNet) {
		ni.st.Net.InjRefused++
		return false
	}
	if pkt.Dests.Empty() {
		panic("noc: injecting packet with empty destination set")
	}
	if pkt.Filterable && pkt.Size != 1 {
		panic("noc: filterable requests must be single-flit")
	}
	ni.seq++
	pkt.ID = uint64(ni.node)<<32 | ni.seq
	pkt.InjectedAt = now
	pkt.Src = ni.node
	if ni.net.lossy {
		ni.stampTransport(pkt, now)
	}
	ni.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KInject, Node: int32(ni.node),
		Addr: pkt.Addr, ID: pkt.ID, Aux: trace.Aux(pkt.Dests), A: int32(pkt.DstUnit), B: pktFlags(pkt)})
	ni.queues[pkt.SrcUnit][pkt.VNet] = append(ni.queues[pkt.SrcUnit][pkt.VNet], pkt)
	ni.queued++
	ni.h.Wake()
	return true
}

// NewPacket returns a zeroed pool-backed packet for an endpoint to fill and
// inject. Pool-backed packets rejoin the free list automatically when a
// router releases them; the delivered copies are returned via Recycle.
func (ni *NI) NewPacket() *Packet {
	p := ni.getPacket()
	*p = Packet{pooled: true}
	return p
}

// Recycle returns a dead packet — one an endpoint has fully processed, or one
// the network itself is done with — to the network's free list. Only
// pool-born packets are pooled; caller-owned packets pass through unharmed,
// so endpoints may call this unconditionally on every delivered packet they
// do not retain. Recycling a packet twice would hand it to two owners, so it
// panics.
func (ni *NI) Recycle(p *Packet) {
	if p.free {
		panic(fmt.Sprintf("noc: packet %d recycled twice", p.ID))
	}
	if p.free = p.pooled; p.free {
		ni.net.pktPool = append(ni.net.pktPool, p)
	}
}

// pktSlab is the block size of a packet-pool refill. Misses allocate a
// whole slab in one allocation instead of one packet at a time: the pool
// only ever grows to the steady-state in-flight population, so coarse
// refills cut the allocation count ~64x without changing the footprint
// materially.
const pktSlab = 64

// getPacket pops a pooled packet as it was put, whatever it last carried,
// and clears its free mark. The router's replica copy overwrites every
// field; NewPacket zeroes it for endpoints and the snapshot decoder.
func (ni *NI) getPacket() *Packet {
	pool := &ni.net.pktPool
	if len(*pool) == 0 {
		blk := make([]Packet, pktSlab)
		for i := range blk {
			blk[i].pooled, blk[i].free = true, true
			*pool = append(*pool, &blk[i])
		}
	}
	k := len(*pool) - 1
	p := (*pool)[k]
	(*pool)[k], *pool = nil, (*pool)[:k]
	p.free = false
	return p
}

// Tick delivers matured ejections, retransmits overdue unacked window
// entries (lossy runs only), continues the current injection stream, and
// starts a new one when the link is idle.
func (ni *NI) Tick(now sim.Cycle) {
	ni.deliver(now)
	if ni.net.lossy {
		ni.checkRetransmits(now)
	}
	if ni.stream == nil {
		ni.pick(now)
	}
	ni.pump(now)
	ni.reschedule()
}

// reschedule reports quiescence to the engine: an NI with no queued packets
// and no active stream sleeps until its earliest pending delivery or — under
// lossy faults — its earliest retransmit deadline (forever if none). Inject
// and scheduleDelivery wake it.
func (ni *NI) reschedule() {
	if ni.stream != nil || ni.queued != 0 {
		return
	}
	min := sim.NeverWake
	if ni.net.lossy {
		next, idle := ni.transportDeadline()
		if !idle {
			return // pending acks or a dead sender: stay awake
		}
		min = next
	}
	for _, d := range ni.delivery {
		if d.readyAt < min {
			min = d.readyAt
		}
	}
	if min == sim.NeverWake {
		ni.h.Sleep()
		return
	}
	ni.h.SleepUntil(min)
}

func (ni *NI) deliver(now sim.Cycle) {
	kept := ni.delivery[:0]
	for _, d := range ni.delivery {
		if d.readyAt > now {
			kept = append(kept, d)
			continue
		}
		fate := LossNone
		if ni.net.lossy {
			var admit bool
			admit, fate = ni.transportAdmit(d.pkt, now)
			if !admit {
				continue
			}
		}
		if fate == LossDup {
			// Snapshot the header first: the endpoint may recycle (zero) the
			// packet inside handoff, and the simulated second arrival needs
			// the original identity.
			dup := *d.pkt
			ni.handoff(d.pkt, now)
			ni.suppress(&dup, now)
		} else {
			ni.handoff(d.pkt, now)
		}
	}
	ni.delivery = kept
	if ni.net.lossy {
		ni.flushHeld(now)
		ni.flushAcks(now)
	}
}

// handoff performs the endpoint delivery proper: accounting, the KDeliver
// trace event, and the Receive call.
func (ni *NI) handoff(pkt *Packet, now sim.Cycle) {
	ep := ni.endpoints[pkt.DstUnit]
	if ep == nil {
		panic(fmt.Sprintf("noc: no endpoint for unit %v at node %d", pkt.DstUnit, ni.node))
	}
	st := &ni.st.Net
	st.PacketLatencySum += uint64(now - pkt.InjectedAt)
	st.PacketCount++
	ni.net.eng.Progress()
	ni.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KDeliver, Node: int32(ni.node),
		Addr: pkt.Addr, ID: pkt.ID, Aux: trace.Aux(pkt.Dests), A: int32(pkt.DstUnit), B: pktFlags(pkt)})
	ep.Receive(pkt, now)
}

// laneUnit and laneVNet decompose an injection arbitration lane index into
// its (unit, vnet) pair. pick runs on every NI tick with an idle link, and
// the div/mod decomposition showed up in profiles.
var laneUnit [int(stats.NumUnits) * NumVNets]stats.Unit
var laneVNet [int(stats.NumUnits) * NumVNets]int

func init() {
	for l := range laneUnit {
		laneUnit[l] = stats.Unit(l / NumVNets)
		laneVNet[l] = l % NumVNets
	}
}

// pick selects the next packet to inject, round-robin over (unit, vnet)
// queues, subject to a free local-router VC. Under OrdPush, an invalidation
// at the head of a control queue is held while a same-line push from the
// same tile is still queued or streaming, preserving push-before-
// invalidation order from the very first link.
func (ni *NI) pick(now sim.Cycle) {
	if ni.queued == 0 {
		return
	}
	lanes := len(laneUnit)
	lane := ni.rr
	for k := 0; k < lanes; k++ {
		if k > 0 {
			if lane++; lane == lanes {
				lane = 0
			}
		}
		unit := laneUnit[lane]
		vnet := laneVNet[lane]
		q := ni.queues[unit][vnet]
		if len(q) == 0 {
			continue
		}
		pkt := q[0]
		if pkt.IsInv && ni.net.cfg.OrdPushInvStall && !ni.QueuedPushes(pkt.Addr).Empty() {
			ni.st.Net.StalledInvCycles++
			continue
		}
		vc := ni.rt.freeVC(PortLocal, vnet)
		if vc == nil {
			continue
		}
		vc.reserved = true
		ni.rt.claim(vc, now)
		// Dequeue by copying down so the backing array is reused instead of
		// sliding toward reallocation (queues are at most InjQueueDepth long).
		copy(q, q[1:])
		q[len(q)-1] = nil
		ni.queues[unit][vnet] = q[:len(q)-1]
		ni.queued--
		ni.cur = niStream{pkt: pkt, vc: vc}
		ni.stream = &ni.cur
		ni.st.Net.InjectedPackets[pkt.SrcUnit][pkt.Class]++
		ni.rr = (lane + 1) % lanes
		return
	}
}

// QueuedPushes returns the union of the destinations of the pushes for addr
// still queued or streaming at this NI (every injected packet has at least
// one, so the set is empty exactly when no such push is). The home node's
// local-port filter logically extends over the injection queue: a read
// request reaching the home while a push embedding its response has not yet
// left the tile is prunable exactly like an in-router hit.
func (ni *NI) QueuedPushes(addr uint64) DestSet {
	var d DestSet
	if s := ni.stream; s != nil && s.pkt.IsPush && s.pkt.Addr == addr {
		d = s.pkt.Dests
	}
	for u := stats.Unit(0); u < stats.NumUnits; u++ {
		for _, p := range ni.queues[u][VNetData] {
			if p.IsPush && p.Addr == addr {
				d = d.Union(p.Dests)
			}
		}
	}
	return d
}

// pump streams one flit of the current injection per cycle.
func (ni *NI) pump(now sim.Cycle) {
	s := ni.stream
	if s == nil {
		return
	}
	s.sent++
	ni.st.Net.InjectedFlits[s.pkt.SrcUnit][s.pkt.Class]++
	ni.net.eng.Progress()
	if s.sent == 1 {
		s.vc.reserved = false
		ni.rt.writeHead(s.vc, s.pkt, now+1)
	}
	if s.sent == s.pkt.Size {
		ni.stream = nil
	}
}

func (ni *NI) scheduleDelivery(pkt *Packet, at sim.Cycle) {
	ni.delivery = append(ni.delivery, delivered{pkt: pkt, readyAt: at})
	ni.h.WakeAt(at)
}

// Network is the complete mesh: routers, NIs, and accounting.
type Network struct {
	cfg     Config      `snap:"-,config"`
	eng     *sim.Engine `snap:"-,wiring"`
	st      *stats.All  `snap:"-,wiring"`
	routers []*Router
	nis     []*NI
	// faults is the installed fault-injection hook, nil when injection is
	// off (the default); hot paths gate every fault check on that nil.
	faults FaultHook `snap:"-,wiring"`
	// lossy is set by SetFaults when the plan schedules MsgDrop/MsgDup/
	// MsgCorrupt; it arms the end-to-end recovery layer, whose knobs are
	// cfg.RetryWindow, cfg.RetryTimeout and cfg.MaxRetries.
	lossy bool `snap:"-,config"`
	// pktPool is the free list every NI and router draws packets from and
	// recycles them to. One list serves the mesh: a packet dies at the tile
	// that consumes it, which is seldom the tile that sent it, so per-tile
	// lists drift and net senders keep allocating. A simulation is one
	// goroutine, so the list needs no lock.
	pktPool []*Packet `snap:"-,pool"`
}

// New builds a mesh network and registers its components with the engine.
// NIs tick before routers each cycle; all cross-component handoffs are gated
// on readyAt stamps so the order carries no timing meaning.
func New(cfg Config, eng *sim.Engine, st *stats.All) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, eng: eng, st: st}
	nodes := cfg.Nodes()
	n.routers = make([]*Router, nodes)
	n.nis = make([]*NI, nodes)
	st.Net.LinkFlits = make([]uint64, nodes*4)
	for i := 0; i < nodes; i++ {
		n.routers[i] = newRouter(NodeID(i), n)
		n.nis[i] = &NI{node: NodeID(i), net: n, rt: n.routers[i], st: st}
		n.routers[i].ni = n.nis[i]
	}
	for i := 0; i < nodes; i++ {
		for o := 0; o < NumPorts; o++ {
			if o == PortLocal {
				continue
			}
			if nb := cfg.neighbour(NodeID(i), o); nb >= 0 {
				n.routers[i].nbr[o] = n.routers[nb]
				// Each link starts with the full downstream VC pool as
				// credits; edge ports keep zero and are never routed to.
				for v := 0; v < NumVNets; v++ {
					n.routers[i].credits[o][v] = int16(cfg.VCsPerVNet)
				}
			}
		}
	}
	for i := 0; i < nodes; i++ {
		n.nis[i].h = eng.Register(n.nis[i])
	}
	for i := 0; i < nodes; i++ {
		n.routers[i].h = eng.Register(n.routers[i])
	}
	return n, nil
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Attach registers an endpoint at a tile.
func (n *Network) Attach(node NodeID, unit stats.Unit, ep Endpoint) {
	n.nis[node].endpoints[unit] = ep
}

// NI returns the network interface of a tile.
func (n *Network) NI(node NodeID) *NI { return n.nis[node] }

// LinkIndex returns the LinkFlits index for the link leaving node through
// port, for per-link load reporting (Fig 14).
func LinkIndex(node NodeID, port int) int { return int(node)*4 + port }

// Settle brings what sleeping routers leave stale up to what a dense run
// holds at this cycle barrier (it runs between steps): the flits a stream
// sent while its router slept through body flits are counted through the
// cycle before, and the credits a router left in the rings because no
// candidate waited for them are banked as of its last unfrozen cycle before
// the barrier, the last tick a dense run banked in. Snapshot encoding and
// the end of a run call it before they read stats or router state; no later
// cycle computes anything different for it.
func (n *Network) Settle() {
	now := n.eng.Now()
	if now == 0 {
		return
	}
	for _, r := range n.routers {
		for m := r.heldOut; m != 0; m &= m - 1 {
			r.countFlits(&r.streams[bits.TrailingZeros8(m)], now-1)
		}
		if r.credQueued == 0 {
			continue
		}
		last := now - 1
		if f := n.faults; f != nil {
			for last > 0 && f.RouterFrozen(r.id, last) {
				last--
			}
		}
		r.acceptCredits(last)
	}
}

// Quiescent reports whether no packets are queued, streaming, or buffered
// anywhere in the network, including the recovery layer's unacked windows,
// parked invalidations, and pending acks.
func (n *Network) Quiescent() bool {
	for _, ni := range n.nis {
		if ni.stream != nil || len(ni.delivery) != 0 {
			return false
		}
		if tp := ni.tp; tp != nil {
			if len(tp.ackDue) != 0 || len(tp.held) != 0 {
				return false
			}
			for v := range tp.tx {
				if len(tp.tx[v].entries) != 0 {
					return false
				}
			}
		}
		for u := range ni.queues {
			for v := range ni.queues[u] {
				if len(ni.queues[u][v]) != 0 {
					return false
				}
			}
		}
	}
	for _, r := range n.routers {
		// A streaming VC stays occupied until its tail departs, so an empty
		// occupied list also means no stream is held.
		if len(r.occ) != 0 || r.arrQueued != 0 {
			return false
		}
	}
	return true
}
