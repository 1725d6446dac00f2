// Package noc implements the mesh network-on-chip substrate: virtual
// cut-through routers with a 2-stage pipeline, three virtual networks with
// per-vnet deterministic routing (XY for requests, YX for responses),
// asynchronous multicast, and the paper's coherent in-network filter.
//
// The model is packet-granular with per-flit timing: a packet occupies one
// virtual channel per hop (virtual cut-through requires whole-packet
// buffering), flits stream at one per cycle across links and switch ports,
// and cut-through lets a head flit depart before the tail has arrived.
package noc

import (
	"fmt"
	"math/bits"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// NodeID identifies a tile (router/endpoint position) in the mesh.
type NodeID int32

// destWords is the word count of a DestSet; MaxNodes the largest mesh the
// set can address.
const (
	destWords = 4
	// MaxNodes is the largest tile count a DestSet (and therefore a mesh
	// configuration) supports: 16x16 covers the paper's scaling studies.
	MaxNodes = destWords * 64
)

// DestSet is a destination bit vector over tiles; it supports meshes of up
// to MaxNodes (256) nodes, covering 4x4 through 16x16 systems. The zero
// value is the empty set, and == compares sets for equality.
type DestSet [destWords]uint64

// OneDest returns a DestSet containing only n.
func OneDest(n NodeID) DestSet {
	var d DestSet
	d[uint(n)>>6] = 1 << (uint(n) & 63)
	return d
}

// Has reports whether n is in the set.
func (d DestSet) Has(n NodeID) bool { return d[uint(n)>>6]&(1<<(uint(n)&63)) != 0 }

// Add returns d with n added.
func (d DestSet) Add(n NodeID) DestSet {
	d[uint(n)>>6] |= 1 << (uint(n) & 63)
	return d
}

// Remove returns d with n removed.
func (d DestSet) Remove(n NodeID) DestSet {
	d[uint(n)>>6] &^= 1 << (uint(n) & 63)
	return d
}

// Union returns d | o.
func (d DestSet) Union(o DestSet) DestSet {
	for i := range d {
		d[i] |= o[i]
	}
	return d
}

// Intersect returns d & o.
func (d DestSet) Intersect(o DestSet) DestSet {
	for i := range d {
		d[i] &= o[i]
	}
	return d
}

// Subtract returns d &^ o (the destinations of d not in o).
func (d DestSet) Subtract(o DestSet) DestSet {
	for i := range d {
		d[i] &^= o[i]
	}
	return d
}

// Count returns the number of destinations in the set.
func (d DestSet) Count() int {
	n := 0
	for _, w := range d {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no destinations.
func (d DestSet) Empty() bool { return d == DestSet{} }

// ForEach calls f for every destination in the set, in ascending order.
func (d DestSet) ForEach(f func(NodeID)) {
	for i, w := range d {
		base := NodeID(i << 6)
		for ; w != 0; w &= w - 1 {
			f(base + NodeID(bits.TrailingZeros64(w)))
		}
	}
}

// First returns the lowest-numbered destination; it panics on an empty set.
func (d DestSet) First() NodeID {
	for i, w := range d {
		if w != 0 {
			return NodeID(i<<6 + bits.TrailingZeros64(w))
		}
	}
	panic("noc: First on empty DestSet")
}

// DestSetFromWord returns the set whose low 64 members are the bits of w —
// a convenience for tests and tools that build randomized small-mesh sets.
func DestSetFromWord(w uint64) DestSet { return DestSet{w} }

// Mask returns d restricted to nodes [0, n).
func (d DestSet) Mask(n int) DestSet {
	for i := range d {
		switch lo := i << 6; {
		case n <= lo:
			d[i] = 0
		case n < lo+64:
			d[i] &= 1<<(uint(n)&63) - 1
		}
	}
	return d
}

// Virtual networks. The assignment mirrors a three-vnet MESI mapping:
// requests, forwarded control (invalidations), and data/responses. Pushes
// travel in the data vnet, reusing data-response virtual channels as the
// paper prescribes.
const (
	// VNetReq carries L2->LLC requests (GetS/GetM/upgrade) plus LLC->memory
	// reads. Routed XY.
	VNetReq = 0
	// VNetCtrl carries directory-to-cache control (invalidations) and
	// acknowledgments. Routed YX so that, under OrdPush, an invalidation
	// follows the exact path of the push it must stay behind.
	VNetCtrl = 1
	// VNetData carries data responses, pushes, and writebacks. Routed YX.
	VNetData = 2
	// NumVNets is the number of virtual networks.
	NumVNets = 3
)

// Packet is the unit of transfer between endpoints. Multicast packets carry
// a destination set; routers replicate them asynchronously.
//
// Field order is layout, not taste: every hop copies the packet into a
// replica and reads its routing fields, so the struct is kept to 128 bytes —
// two cache lines of a pool slab — with what a router reads (destinations,
// address, vnet, the filter fields and flags) in the first
// (TestPacketLayout).
type Packet struct {
	// Dests is the destination tile set (a single bit for unicasts).
	Dests DestSet
	// Addr is the cache-line address the packet concerns; the in-network
	// filter matches on it.
	Addr uint64
	// VNet selects the virtual network (and thus routing and VC pool).
	VNet int
	// Src is the injecting tile; SrcUnit its endpoint kind.
	Src NodeID
	// Requester is the tile whose demand the packet represents; for
	// filterable requests it is matched against push destination sets.
	Requester NodeID
	SrcUnit   stats.Unit
	// DstUnit selects which endpoint kind at the destination tile receives
	// the packet.
	DstUnit stats.Unit
	// Class is the traffic class for accounting.
	Class stats.Class
	// IsPush marks speculative push multicast data packets (these register
	// in filters).
	IsPush bool
	// Filterable marks read requests that the in-network filter may prune.
	Filterable bool
	// IsInv marks invalidations that OrdPush must keep ordered behind
	// same-line pushes.
	IsInv bool
	// pooled marks packets born from the network's free list (router-created
	// replicas); only those are ever recycled, so externally created packets
	// stay valid for as long as their creator holds them.
	pooled bool `snap:"-,pool"`
	// retx marks a retransmission clone: Inject must not stamp a fresh
	// sequence number or open a new window entry for it.
	retx bool

	// ID is a unique packet number (diagnostics).
	ID uint64
	// Size is the packet length in flits for the configured link width.
	Size int
	// Version, Epoch, MsgType and MsgFlags are the protocol message, carried
	// inline: a router's replica is a whole packet (§III-E), so every copy
	// owns its words and nothing is shared between them. The NoC copies them
	// with the rest of the packet and never reads them; the protocol layer
	// writes them with coherence.Msg.FillPacket and reads them back with
	// coherence.From (the message's address and requester are Addr and
	// Requester above).
	Version  uint64
	Epoch    uint32
	MsgType  uint8
	MsgFlags uint8
	// InjectedAt is stamped by the NI for latency accounting.
	InjectedAt sim.Cycle

	// Transport-layer fields, stamped by the sender NI only when the lossy
	// recovery layer is armed (see Config.RetryWindow and fault.MsgDrop).
	//
	// Seq is the sender's per-(source, vnet) sequence number, wrapping
	// modulo 2^32. One counter serves all of a sender's destinations, so a
	// receiver's stream skips every number spent on the others (gaps of 504
	// are measured); the receiver's dedup window suppresses replayed
	// numbers (NI.rxSeen has the premise). Csum is the header checksum
	// verified at delivery (MsgCorrupt detection). IsAck marks single-flit
	// transport acknowledgments: an ack is cumulative, carrying the
	// receiver's whole anti-replay state for one (source, vnet) stream —
	// Seq is the highest sequence accepted and AckMask bit i records that
	// Seq-i was seen — and retires every covered entry in the sender's
	// AckVNet window at once. Acks are never themselves sequence-tracked: a
	// lost ack is healed by the retransmission it provokes, whose re-ack
	// carries fresher state.
	AckMask uint64
	Seq     uint32
	Csum    uint32
	IsAck   bool
	AckVNet int8
}

// Bits of Packet.MsgFlags. MsgPresent marks a packet that carries a protocol
// message at all (transport acks do not); the rest are the message's own
// flags, named as in coherence.Msg.
const (
	MsgPresent uint8 = 1 << iota
	MsgNeedPush
	MsgReset
	MsgPrefetch
	MsgRecall
	MsgPrivate
)

// String implements fmt.Stringer for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{id=%d vnet=%d class=%v src=%d dests=%b addr=%#x size=%d push=%v}",
		p.ID, p.VNet, p.Class, p.Src, p.Dests, p.Addr, p.Size, p.IsPush)
}

// Ports of a router. The four cardinal directions connect to neighbouring
// routers; the local port connects to the tile's network interface.
const (
	PortNorth = iota
	PortEast
	PortSouth
	PortWest
	PortLocal
	NumPorts
)

var portNames = [NumPorts]string{"N", "E", "S", "W", "L"}

// PortName returns a short name for a port index.
func PortName(p int) string {
	if p >= 0 && p < NumPorts {
		return portNames[p]
	}
	return "?"
}

// opposite maps an output direction to the input port it feeds on the
// neighbouring router (a flit sent out North arrives on the neighbour's
// South input).
var opposite = [NumPorts]int{
	PortNorth: PortSouth,
	PortEast:  PortWest,
	PortSouth: PortNorth,
	PortWest:  PortEast,
	PortLocal: PortLocal,
}

// Config holds the NoC parameters (Table I defaults via DefaultConfig).
type Config struct {
	// Width and Height give the mesh dimensions; Width*Height tiles.
	Width, Height int
	// VCsPerVNet is the number of virtual channels per virtual network per
	// port.
	VCsPerVNet int
	// LinkWidthBits sets flits-per-packet: a 64-byte line needs
	// ceil(512/LinkWidthBits) body flits plus one head flit.
	LinkWidthBits int
	// InjQueueDepth bounds each endpoint's per-vnet injection queue, in
	// packets; endpoints observe backpressure through CanInject.
	InjQueueDepth int
	// FilterEnabled turns the coherent in-network filter on.
	FilterEnabled bool
	// OrdPushInvStall enables OrdPush's in-router invalidation stalling
	// behind same-line pushes.
	OrdPushInvStall bool

	// End-to-end recovery knobs, active only when the fault plan schedules
	// lossy kinds (defaults in parentheses).
	//
	// RetryWindow (32) bounds unacked packets per (sender NI, vnet); a full
	// window refuses injection, surfacing as ordinary backpressure.
	RetryWindow int
	// RetryTimeout (400) is the cycles a sender waits for an ack before
	// retransmitting a window entry to its unacked destinations.
	RetryTimeout int
	// MaxRetries (16) bounds retransmissions per window entry; exceeding it
	// aborts the run with ErrUnrecoverable. 16 keeps the documented
	// MaxLossPerMille ceiling statistically safe: at 100 per-mille drop (plus
	// half-rate dup and corrupt) a round trip fails with p ~ 0.3, so a budget
	// of 8 fails a few times per hundred thousand window entries; 17
	// consecutive failures is ~1e-9.
	MaxRetries int
}

// LineBytes is the cache line size: the unit every cache array indexes, every
// workload generator strides by, and a data packet carries. It is a fact of
// the model, not a knob.
const LineBytes = 64

// DefaultConfig returns the Table I NoC configuration for an W x H mesh.
func DefaultConfig(w, h int) Config {
	return Config{
		Width:         w,
		Height:        h,
		VCsPerVNet:    4,
		LinkWidthBits: 128,
		InjQueueDepth: 16,
		RetryWindow:   32,
		RetryTimeout:  400,
		MaxRetries:    16,
	}
}

// Nodes returns the tile count.
func (c Config) Nodes() int { return c.Width * c.Height }

// DataPacketSize returns the flit count of a cache-line data packet at the
// configured link width (head flit + payload flits).
func (c Config) DataPacketSize() int {
	return 1 + (LineBytes*8+c.LinkWidthBits-1)/c.LinkWidthBits
}

// CtrlPacketSize returns the flit count of a control packet (always 1).
func (c Config) CtrlPacketSize() int { return 1 }

// XY returns the (x, y) coordinate of node n.
func (c Config) XY(n NodeID) (int, int) { return int(n) % c.Width, int(n) / c.Width }

// Node returns the node at coordinate (x, y).
func (c Config) Node(x, y int) NodeID { return NodeID(y*c.Width + x) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("noc: invalid mesh %dx%d", c.Width, c.Height)
	}
	if c.Nodes() > MaxNodes {
		return fmt.Errorf("noc: %d nodes exceed the %d-node DestSet limit", c.Nodes(), MaxNodes)
	}
	if c.VCsPerVNet <= 0 {
		return fmt.Errorf("noc: VCsPerVNet must be positive, got %d", c.VCsPerVNet)
	}
	if NumPorts*NumVNets*c.VCsPerVNet > 64 {
		// The router tracks per-port allocation candidates in a 64-bit mask
		// over its occupied-VC list, which bounds the VCs per router.
		return fmt.Errorf("noc: %d VCs per router exceed the 64-VC router occupancy limit (VCsPerVNet <= %d)",
			NumPorts*NumVNets*c.VCsPerVNet, 64/(NumPorts*NumVNets))
	}
	switch c.LinkWidthBits {
	case 64, 128, 256, 512:
	default:
		return fmt.Errorf("noc: unsupported link width %d bits", c.LinkWidthBits)
	}
	if c.InjQueueDepth <= 0 {
		return fmt.Errorf("noc: InjQueueDepth must be positive, got %d", c.InjQueueDepth)
	}
	if c.RetryWindow < 1 || c.RetryWindow > 64 {
		// The receiver's dedup window is a 64-bit backward mask; a larger
		// sender window could slide legitimate arrivals past it.
		return fmt.Errorf("noc: RetryWindow %d outside [1,64]", c.RetryWindow)
	}
	if c.RetryTimeout < 1 || c.MaxRetries < 1 {
		return fmt.Errorf("noc: RetryTimeout %d and MaxRetries %d must be positive", c.RetryTimeout, c.MaxRetries)
	}
	return nil
}
