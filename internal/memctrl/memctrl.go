// Package memctrl models the off-chip memory controllers: four controllers
// at the mesh corners sharing the DDR3-1600 bandwidth from Table I. Each
// controller serializes line transfers at a fixed occupancy per line and
// adds a fixed access latency, approximating a bandwidth-limited DRAM
// channel without modeling banks or row buffers (the paper's bottleneck is
// the NoC and LLC, not DRAM microarchitecture).
package memctrl

import (
	"fmt"

	"pushmulticast/internal/coherence"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/trace"
)

// pendingResp is a read response waiting out the access latency.
type pendingResp struct {
	at  sim.Cycle
	msg coherence.Msg
	to  noc.NodeID
}

// Ctrl is one memory controller endpoint.
type Ctrl struct {
	node noc.NodeID     `snap:"-,wiring"`
	cfg  *config.System `snap:"-,config"`
	eng  *sim.Engine    `snap:"-,wiring"`
	st   *stats.All     `snap:"-,wiring"`
	ni   *noc.NI        `snap:"-,wiring"`

	h         *sim.Handle `snap:"-,wiring"`
	inq       []*noc.Packet
	busyUntil sim.Cycle
	resps     []pendingResp
	outbox    []*noc.Packet
	// versions holds the memory image: the last written version per line
	// (zero for never-written lines).
	versions map[uint64]uint64
	// tr is the run's tracer (nil when tracing is off); the controller
	// emits into it from its own tick.
	tr *trace.Tracer `snap:"-,wiring"`
}

// New builds a controller at the given tile and attaches it to the network.
// tr is the run's tracer, nil when tracing is off.
func New(node noc.NodeID, cfg *config.System, net *noc.Network, eng *sim.Engine, st *stats.All, tr *trace.Tracer) *Ctrl {
	c := &Ctrl{
		node:     node,
		tr:       tr,
		cfg:      cfg,
		eng:      eng,
		st:       st,
		ni:       net.NI(node),
		versions: make(map[uint64]uint64),
	}
	net.Attach(node, stats.UnitMem, c)
	c.h = eng.Register(c)
	return c
}

// Receive implements noc.Endpoint.
func (c *Ctrl) Receive(pkt *noc.Packet, now sim.Cycle) {
	c.inq = append(c.inq, pkt)
	c.h.Wake()
}

// Tick serves at most one new transaction per bandwidth slot and releases
// matured read responses.
func (c *Ctrl) Tick(now sim.Cycle) {
	// Release matured responses.
	kept := c.resps[:0]
	for _, r := range c.resps {
		if r.at > now {
			kept = append(kept, r)
			continue
		}
		p := c.ni.NewPacket()
		r.msg.FillPacket(p, c.cfg.NoC, stats.UnitMem, stats.UnitLLC, noc.OneDest(r.to))
		c.outbox = append(c.outbox, p)
	}
	c.resps = kept

	// Start the next transaction when the channel frees up.
	if len(c.inq) > 0 && now >= c.busyUntil {
		pkt := c.inq[0]
		copy(c.inq, c.inq[1:])
		c.inq[len(c.inq)-1] = nil
		c.inq = c.inq[:len(c.inq)-1]
		c.eng.Progress()
		c.busyUntil = now + sim.Cycle(c.cfg.MemCyclesPerLine)
		m := coherence.From(pkt)
		switch m.Type {
		case coherence.MemRead:
			c.st.Cache.MemReads++
			c.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KMemRead, Node: int32(c.node),
				Addr: m.Addr, ID: pkt.ID, A: int32(m.Requester)})
			c.resps = append(c.resps, pendingResp{
				at: now + sim.Cycle(c.cfg.MemLatency),
				msg: coherence.Msg{Type: coherence.MemData, Addr: m.Addr,
					Requester: m.Requester, Version: c.versions[m.Addr]},
				to: pkt.Src,
			})
		case coherence.MemWrite:
			c.st.Cache.MemWrites++
			c.tr.Emit(trace.Event{Cycle: uint64(now), Kind: trace.KMemWrite, Node: int32(c.node),
				Addr: m.Addr, ID: pkt.ID, A: int32(m.Requester)})
			c.versions[m.Addr] = m.Version
		default:
			panic(fmt.Sprintf("memctrl %d: unexpected message %v", c.node, m))
		}
		// The request has been copied into the response (or applied to the
		// memory image); the packet is dead.
		c.ni.Recycle(pkt)
	}

	// Drain outgoing responses.
	keptOut := c.outbox[:0]
	for _, p := range c.outbox {
		if !c.ni.Inject(p, now) {
			keptOut = append(keptOut, p)
			continue
		}
		c.eng.Progress()
	}
	for i := len(keptOut); i < len(c.outbox); i++ {
		c.outbox[i] = nil
	}
	c.outbox = keptOut
	c.reschedule(now)
}

// reschedule sleeps the controller until its next deadline: the channel
// freeing up (queued requests) or a response maturing. A non-empty outbox
// keeps it awake to retry injection every cycle; new requests wake it via
// Receive.
func (c *Ctrl) reschedule(now sim.Cycle) {
	if len(c.outbox) != 0 {
		return
	}
	next := sim.NeverWake
	if len(c.inq) > 0 && c.busyUntil < next {
		next = c.busyUntil
	}
	for _, r := range c.resps {
		if r.at < next {
			next = r.at
		}
	}
	if next == sim.NeverWake {
		c.h.Sleep()
		return
	}
	c.h.SleepUntil(next)
}

// Version exposes the memory image for checkers.
func (c *Ctrl) Version(lineAddr uint64) uint64 { return c.versions[lineAddr] }

// Idle reports whether the controller has no queued or in-flight work.
func (c *Ctrl) Idle() bool {
	return len(c.inq) == 0 && len(c.resps) == 0 && len(c.outbox) == 0
}
