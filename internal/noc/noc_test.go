package noc

import (
	"fmt"
	"testing"
	"unsafe"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// collector is a test endpoint recording received packets with timestamps.
type collector struct {
	got []received
}

type received struct {
	pkt *Packet
	at  sim.Cycle
}

func (c *collector) Receive(pkt *Packet, now sim.Cycle) {
	c.got = append(c.got, received{pkt, now})
}

// testNet builds a w x h network with a collector attached at every tile for
// every unit.
func testNet(t *testing.T, cfg Config) (*sim.Engine, *Network, []*collector) {
	t.Helper()
	eng := sim.NewEngine(10000, 1_000_000)
	st := stats.New()
	net, err := New(cfg, eng, st)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cols := make([]*collector, cfg.Nodes())
	for i := range cols {
		cols[i] = &collector{}
		for u := stats.Unit(0); u < stats.NumUnits; u++ {
			net.Attach(NodeID(i), u, cols[i])
		}
	}
	return eng, net, cols
}

func runUntil(t *testing.T, eng *sim.Engine, cond func() bool) sim.Cycle {
	t.Helper()
	end, err := eng.Run(cond)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return end
}

func TestDestSet(t *testing.T) {
	var d DestSet
	if !d.Empty() || d.Count() != 0 {
		t.Fatal("zero DestSet should be empty")
	}
	d = d.Add(3).Add(7).Add(63)
	if d.Count() != 3 || !d.Has(3) || !d.Has(7) || !d.Has(63) || d.Has(4) {
		t.Fatalf("membership wrong: %b", d)
	}
	if d.First() != 3 {
		t.Fatalf("First = %d, want 3", d.First())
	}
	d = d.Remove(3)
	if d.Has(3) || d.Count() != 2 {
		t.Fatalf("Remove failed: %b", d)
	}
	var seen []NodeID
	d.ForEach(func(n NodeID) { seen = append(seen, n) })
	if len(seen) != 2 || seen[0] != 7 || seen[1] != 63 {
		t.Fatalf("ForEach order wrong: %v", seen)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero width", func(c *Config) { c.Width = 0 }, false},
		{"16x16 within the widened DestSet", func(c *Config) { c.Width, c.Height = 16, 16 }, true},
		{"too many nodes", func(c *Config) { c.Width, c.Height = 17, 16 }, false},
		{"no vcs", func(c *Config) { c.VCsPerVNet = 0 }, false},
		{"bad link width", func(c *Config) { c.LinkWidthBits = 100 }, false},
		{"no inj depth", func(c *Config) { c.InjQueueDepth = 0 }, false},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(4, 4)
		tc.mut(&cfg)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestDataPacketSize(t *testing.T) {
	for _, tc := range []struct{ width, want int }{
		{64, 9}, {128, 5}, {256, 3}, {512, 2},
	} {
		cfg := DefaultConfig(4, 4)
		cfg.LinkWidthBits = tc.width
		if got := cfg.DataPacketSize(); got != tc.want {
			t.Errorf("width %d: size = %d, want %d", tc.width, got, tc.want)
		}
	}
}

func TestRoutingXYandYX(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	// From (0,0) to (3,3): XY goes east first, YX goes south first.
	if p := cfg.nextPort(cfg.Node(0, 0), cfg.Node(3, 3), true); p != PortEast {
		t.Errorf("XY first hop = %s, want E", PortName(p))
	}
	if p := cfg.nextPort(cfg.Node(0, 0), cfg.Node(3, 3), false); p != PortSouth {
		t.Errorf("YX first hop = %s, want S", PortName(p))
	}
	if p := cfg.nextPort(5, 5, true); p != PortLocal {
		t.Errorf("self route = %s, want L", PortName(p))
	}
	// Multicast partition: dests spread across the mesh from center.
	out := cfg.routeDests(cfg.Node(1, 1), OneDest(cfg.Node(0, 1)).Add(cfg.Node(3, 1)).Add(cfg.Node(1, 0)).Add(cfg.Node(1, 1)), true)
	if !out[PortWest].Has(cfg.Node(0, 1)) || !out[PortEast].Has(cfg.Node(3, 1)) ||
		!out[PortNorth].Has(cfg.Node(1, 0)) || !out[PortLocal].Has(cfg.Node(1, 1)) {
		t.Errorf("routeDests partition wrong: %v", out)
	}
}

func TestNeighbour(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	if nb := cfg.neighbour(cfg.Node(0, 0), PortWest); nb != -1 {
		t.Errorf("west of (0,0) = %d, want -1", nb)
	}
	if nb := cfg.neighbour(cfg.Node(0, 0), PortEast); nb != cfg.Node(1, 0) {
		t.Errorf("east of (0,0) = %d, want %d", nb, cfg.Node(1, 0))
	}
	if nb := cfg.neighbour(cfg.Node(2, 2), PortNorth); nb != cfg.Node(2, 1) {
		t.Errorf("north of (2,2) = %d, want %d", nb, cfg.Node(2, 1))
	}
}

func TestUnicastDelivery(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	eng, net, cols := testNet(t, cfg)
	pkt := &Packet{
		VNet: VNetReq, Class: stats.ClassReadRequest,
		SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
		Dests: OneDest(15), Addr: 0x40, Size: 1, Requester: 0,
	}
	net.NI(0).Inject(pkt, eng.Now())
	runUntil(t, eng, func() bool { return len(cols[15].got) == 1 })
	got := cols[15].got[0]
	if got.pkt.Addr != 0x40 || got.pkt.Src != 0 {
		t.Fatalf("wrong packet delivered: %v", got.pkt)
	}
	// 6 hops (0,0)->(3,3) XY, ~3 cycles per hop plus injection/ejection.
	if got.at < 10 || got.at > 40 {
		t.Errorf("latency %d out of plausible range", got.at)
	}
	if !net.Quiescent() {
		t.Error("network not quiescent after delivery")
	}
}

func TestSelfDelivery(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	eng, net, cols := testNet(t, cfg)
	pkt := &Packet{
		VNet: VNetData, Class: stats.ClassReadSharedData,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: OneDest(5), Addr: 0x80, Size: cfg.DataPacketSize(),
	}
	net.NI(5).Inject(pkt, eng.Now())
	runUntil(t, eng, func() bool { return len(cols[5].got) == 1 })
}

func TestMulticastReachesAllDests(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	eng, net, cols := testNet(t, cfg)
	var dests DestSet
	for _, d := range []NodeID{0, 3, 7, 9, 12, 15} {
		dests = dests.Add(d)
	}
	pkt := &Packet{
		VNet: VNetData, Class: stats.ClassPushData,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: dests, Addr: 0x1000, Size: cfg.DataPacketSize(), IsPush: true,
	}
	net.NI(5).Inject(pkt, eng.Now())
	runUntil(t, eng, func() bool {
		n := 0
		dests.ForEach(func(d NodeID) {
			if len(cols[d].got) > 0 {
				n++
			}
		})
		return n == dests.Count()
	})
	dests.ForEach(func(d NodeID) {
		if len(cols[d].got) != 1 {
			t.Errorf("dest %d received %d packets, want 1", d, len(cols[d].got))
		}
		p := cols[d].got[0].pkt
		if !p.Dests.Has(d) {
			t.Errorf("dest %d received replica not containing itself: %b", d, p.Dests)
		}
	})
}

// TestMulticastCopiesOwnTheirMessage: a 1-to-N multicast delivers N distinct
// packets carrying the injected message words, and recycling and reusing one
// delivered copy leaves the words of the others alone. No copy shares
// anything with another, so there is no lifetime to count.
func TestMulticastCopiesOwnTheirMessage(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	eng, net, cols := testNet(t, cfg)
	var dests DestSet
	for _, d := range []NodeID{0, 3, 7, 9, 12, 15} {
		dests = dests.Add(d)
	}
	pkt := net.NI(5).NewPacket()
	pkt.VNet, pkt.Class, pkt.SrcUnit, pkt.DstUnit = VNetData, stats.ClassPushData, stats.UnitLLC, stats.UnitL2
	pkt.Dests, pkt.Addr, pkt.Requester, pkt.Size, pkt.IsPush = dests, 0x1000, 9, cfg.DataPacketSize(), true
	pkt.Version, pkt.Epoch, pkt.MsgType, pkt.MsgFlags = 1<<40|7, 1<<31|3, 9, MsgPresent|MsgReset|MsgPrivate
	type words struct {
		version    uint64
		epoch      uint32
		typ, flags uint8
		addr       uint64
		requester  NodeID
	}
	read := func(p *Packet) words {
		return words{p.Version, p.Epoch, p.MsgType, p.MsgFlags, p.Addr, p.Requester}
	}
	want := read(pkt)
	net.NI(5).Inject(pkt, eng.Now())
	runUntil(t, eng, func() bool {
		n := 0
		dests.ForEach(func(d NodeID) { n += len(cols[d].got) })
		return n == dests.Count()
	})
	seen := map[*Packet]bool{}
	dests.ForEach(func(d NodeID) {
		p := cols[d].got[0].pkt
		if seen[p] {
			t.Fatalf("dest %d was handed a packet another destination holds", d)
		}
		seen[p] = true
		if got := read(p); got != want {
			t.Errorf("dest %d received %+v, injected %+v", d, got, want)
		}
	})
	// The endpoint at 7 is done with its copy; the tile reuses it for an
	// unrelated message.
	net.NI(7).Recycle(cols[7].got[0].pkt)
	reused := net.NI(7).NewPacket()
	if reused != cols[7].got[0].pkt {
		t.Fatal("the recycled copy did not come back from the network's free list")
	}
	reused.Version, reused.MsgType, reused.MsgFlags = 99, 2, MsgPresent|MsgRecall
	dests.Remove(7).ForEach(func(d NodeID) {
		if got := read(cols[d].got[0].pkt); got != want {
			t.Errorf("after 7 recycled its copy, dest %d reads %+v, want %+v", d, got, want)
		}
	})
}

// TestRecycleOnce pins the free list's ownership rule. One list serves the
// mesh, so the packet one tile recycles is the next one any tile draws; a
// packet already on the list cannot be recycled again, since that would hand
// it to two owners; and a packet drawn again is live and can be recycled
// again, also when it was drawn as a router draws its replicas, without
// NewPacket's zeroing.
func TestRecycleOnce(t *testing.T) {
	_, net, _ := testNet(t, DefaultConfig(4, 4))
	p := net.NI(3).NewPacket()
	p.ID = 77
	net.NI(3).Recycle(p)
	func() {
		defer func() {
			if r := recover(); fmt.Sprint(r) != "noc: packet 77 recycled twice" {
				t.Errorf("a second recycle says %v, want a panic naming packet 77", r)
			}
		}()
		net.NI(9).Recycle(p)
	}()
	if q := net.NI(9).getPacket(); q != p {
		t.Fatal("tile 9 did not draw the packet tile 3 recycled")
	}
	net.NI(9).Recycle(p)
	if q := net.NI(0).NewPacket(); q != p {
		t.Fatal("a packet drawn again and recycled did not return to the free list")
	}
}

func TestManyPacketsAllDelivered(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	eng, net, cols := testNet(t, cfg)
	const per = 20
	want := 0
	next := 0
	inject := func(now sim.Cycle) {
		for src := 0; src < cfg.Nodes(); src++ {
			ni := net.NI(NodeID(src))
			if !ni.CanInject(stats.UnitL2, VNetData) {
				continue
			}
			dst := NodeID((src*7 + next) % cfg.Nodes())
			ni.Inject(&Packet{
				VNet: VNetData, Class: stats.ClassExclusiveData,
				SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
				Dests: OneDest(dst), Addr: uint64(64 * (src + next)), Size: cfg.DataPacketSize(),
			}, now)
			want++
		}
		next++
	}
	for i := 0; i < per; i++ {
		inject(eng.Now())
		eng.Step()
	}
	runUntil(t, eng, func() bool {
		got := 0
		for _, c := range cols {
			got += len(c.got)
		}
		return got == want
	})
	if !net.Quiescent() {
		t.Error("network not quiescent after draining")
	}
}

func TestInjectionBackpressure(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.InjQueueDepth = 2
	_, net, _ := testNet(t, cfg)
	ni := net.NI(0)
	for i := 0; i < 2; i++ {
		if !ni.CanInject(stats.UnitL2, VNetReq) {
			t.Fatalf("queue should accept packet %d", i)
		}
		ni.Inject(&Packet{VNet: VNetReq, SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
			Dests: OneDest(1), Size: 1}, 0)
	}
	if ni.CanInject(stats.UnitL2, VNetReq) {
		t.Fatal("queue should be full")
	}
	if ni.CanInject(stats.UnitL2, VNetData) {
		// Different vnet queue must be independent.
	} else {
		t.Fatal("other vnet queue should be empty")
	}
}

// TestInjectionOverflowRefused is the regression test for the injection-queue
// overflow panic: injecting into a full queue must refuse the packet (Inject
// returns false, InjRefused counts it) instead of crashing the run. Callers
// hold the packet and retry, turning queue exhaustion into backpressure.
func TestInjectionOverflowRefused(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.InjQueueDepth = 2
	_, net, _ := testNet(t, cfg)
	ni := net.NI(0)
	mk := func() *Packet {
		return &Packet{VNet: VNetReq, SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
			Dests: OneDest(1), Size: 1}
	}
	for i := 0; i < 2; i++ {
		if !ni.Inject(mk(), 0) {
			t.Fatalf("packet %d refused with queue space free", i)
		}
	}
	// Before the backpressure fix this third call panicked.
	if ni.Inject(mk(), 0) {
		t.Fatal("overflowing injection accepted")
	}
	if got := net.st.Net.InjRefused; got != 1 {
		t.Fatalf("InjRefused = %d, want 1", got)
	}
}

func TestFilterPrunesTrailingRequest(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.FilterEnabled = true
	eng, net, cols := testNet(t, cfg)
	st := net.st

	// Home at tile 5 pushes to tiles 0 and 2 (and others); tile 2
	// simultaneously sends a read request for the same line toward tile 5.
	// Requests route XY and pushes YX, so they share the reverse path and
	// the request must be filtered in some router along the way.
	push := &Packet{
		VNet: VNetData, Class: stats.ClassPushData, IsPush: true,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: OneDest(0).Add(2), Addr: 0xbeef00, Size: cfg.DataPacketSize(),
	}
	req := &Packet{
		VNet: VNetReq, Class: stats.ClassReadRequest, Filterable: true,
		SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
		Dests: OneDest(5), Addr: 0xbeef00, Size: 1, Requester: 2,
	}
	net.NI(5).Inject(push, eng.Now())
	net.NI(2).Inject(req, eng.Now())
	runUntil(t, eng, func() bool {
		return len(cols[0].got) >= 1 && len(cols[2].got) >= 1
	})
	// Drain any residue.
	for i := 0; i < 200; i++ {
		eng.Step()
	}
	if len(cols[5].got) != 0 {
		t.Errorf("request reached the home node despite filter: %v", cols[5].got[0].pkt)
	}
	if st.Net.FilteredRequests != 1 {
		t.Errorf("FilteredRequests = %d, want 1", st.Net.FilteredRequests)
	}
}

func TestFilterDisabledRequestPasses(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.FilterEnabled = false
	eng, net, cols := testNet(t, cfg)
	push := &Packet{
		VNet: VNetData, Class: stats.ClassPushData, IsPush: true,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: OneDest(2), Addr: 0xbeef00, Size: cfg.DataPacketSize(),
	}
	req := &Packet{
		VNet: VNetReq, Class: stats.ClassReadRequest, Filterable: true,
		SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
		Dests: OneDest(5), Addr: 0xbeef00, Size: 1, Requester: 2,
	}
	net.NI(5).Inject(push, eng.Now())
	net.NI(2).Inject(req, eng.Now())
	runUntil(t, eng, func() bool { return len(cols[5].got) == 1 && len(cols[2].got) == 1 })
}

func TestFilterDoesNotPruneOtherRequester(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.FilterEnabled = true
	eng, net, cols := testNet(t, cfg)
	// Push destined only to tile 0; request from tile 2 for the same line
	// must NOT be filtered (its response is not embedded in the push).
	push := &Packet{
		VNet: VNetData, Class: stats.ClassPushData, IsPush: true,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: OneDest(0), Addr: 0xbeef00, Size: cfg.DataPacketSize(),
	}
	req := &Packet{
		VNet: VNetReq, Class: stats.ClassReadRequest, Filterable: true,
		SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
		Dests: OneDest(5), Addr: 0xbeef00, Size: 1, Requester: 2,
	}
	net.NI(5).Inject(push, eng.Now())
	net.NI(2).Inject(req, eng.Now())
	runUntil(t, eng, func() bool { return len(cols[5].got) == 1 && len(cols[0].got) == 1 })
}

func TestOrdPushInvStaysBehindPush(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.FilterEnabled = true
	cfg.OrdPushInvStall = true
	eng, net, cols := testNet(t, cfg)
	// LLC at tile 5 sends a push to tile 10, then immediately an
	// invalidation for the same line to tile 10. The invalidation must be
	// delivered after the push.
	push := &Packet{
		VNet: VNetData, Class: stats.ClassPushData, IsPush: true,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: OneDest(10), Addr: 0xabc0, Size: cfg.DataPacketSize(),
	}
	inv := &Packet{
		VNet: VNetCtrl, Class: stats.ClassOther, IsInv: true,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: OneDest(10), Addr: 0xabc0, Size: 1,
	}
	net.NI(5).Inject(push, eng.Now())
	net.NI(5).Inject(inv, eng.Now())
	runUntil(t, eng, func() bool { return len(cols[10].got) == 2 })
	if !cols[10].got[0].pkt.IsPush {
		t.Fatalf("invalidation overtook the push: first=%v", cols[10].got[0].pkt)
	}
}

func TestOrdPushInvUnrelatedLineNotStalled(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.FilterEnabled = true
	cfg.OrdPushInvStall = true
	eng, net, cols := testNet(t, cfg)
	// Push for line A; invalidation for a DIFFERENT line B: a 1-flit
	// control packet should win the race against a 5-flit data packet.
	push := &Packet{
		VNet: VNetData, Class: stats.ClassPushData, IsPush: true,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: OneDest(10), Addr: 0xaaa0, Size: cfg.DataPacketSize(),
	}
	inv := &Packet{
		VNet: VNetCtrl, Class: stats.ClassOther, IsInv: true,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: OneDest(10), Addr: 0xbbb0, Size: 1,
	}
	net.NI(5).Inject(push, eng.Now())
	net.NI(5).Inject(inv, eng.Now())
	runUntil(t, eng, func() bool { return len(cols[10].got) == 2 })
}

func TestLinkLoadAccounting(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	eng, net, cols := testNet(t, cfg)
	pkt := &Packet{
		VNet: VNetReq, Class: stats.ClassReadRequest,
		SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
		Dests: OneDest(3), Addr: 0x40, Size: 1, Requester: 0,
	}
	net.NI(0).Inject(pkt, eng.Now())
	runUntil(t, eng, func() bool { return len(cols[3].got) == 1 })
	// XY from (0,0) to (3,0): three eastbound link traversals.
	for x := 0; x < 3; x++ {
		idx := LinkIndex(cfg.Node(x, 0), PortEast)
		if net.st.Net.LinkFlits[idx] != 1 {
			t.Errorf("link (%d,0)->E flits = %d, want 1", x, net.st.Net.LinkFlits[idx])
		}
	}
	if got := net.st.Net.TotalFlitsByClass[stats.ClassReadRequest]; got != 3 {
		t.Errorf("total ReadRequest link flits = %d, want 3", got)
	}
}

func TestPacketLatencyGrowsWithDistance(t *testing.T) {
	cfg := DefaultConfig(8, 8)
	eng, net, cols := testNet(t, cfg)
	near := &Packet{VNet: VNetReq, SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
		Dests: OneDest(1), Size: 1}
	net.NI(0).Inject(near, eng.Now())
	runUntil(t, eng, func() bool { return len(cols[1].got) == 1 })
	nearLat := cols[1].got[0].at - near.InjectedAt

	far := &Packet{VNet: VNetReq, SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
		Dests: OneDest(63), Size: 1}
	net.NI(0).Inject(far, eng.Now())
	runUntil(t, eng, func() bool { return len(cols[63].got) == 1 })
	farLat := cols[63].got[0].at - far.InjectedAt
	if farLat <= nearLat {
		t.Errorf("far latency %d not greater than near latency %d", farLat, nearLat)
	}
	// 14 hops at 3 cycles/hop ~= 42 plus endpoint overheads.
	if farLat < 40 || farLat > 60 {
		t.Errorf("far latency %d outside expected envelope", farLat)
	}
}

func TestWiderLinkShortensDataPackets(t *testing.T) {
	lat := func(width int) sim.Cycle {
		cfg := DefaultConfig(4, 4)
		cfg.LinkWidthBits = width
		eng, net, cols := testNet(t, cfg)
		pkt := &Packet{VNet: VNetData, SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
			Dests: OneDest(15), Size: cfg.DataPacketSize()}
		net.NI(0).Inject(pkt, eng.Now())
		runUntil(t, eng, func() bool { return len(cols[15].got) == 1 })
		return cols[15].got[0].at
	}
	if l64, l512 := lat(64), lat(512); l512 >= l64 {
		t.Errorf("512-bit link latency %d not below 64-bit latency %d", l512, l64)
	}
}

// TestPacketLayout pins what the field order of Packet and inputVC is for:
// a packet is two cache lines with the fields a router reads in the first,
// and an input VC is half a line. A new field is welcome; it has to fit.
func TestPacketLayout(t *testing.T) {
	var p Packet
	if size := unsafe.Sizeof(p); size > 128 {
		t.Errorf("Packet is %d bytes, want at most 128", size)
	}
	for name, off := range map[string]uintptr{
		"Dests": unsafe.Offsetof(p.Dests), "Addr": unsafe.Offsetof(p.Addr), "VNet": unsafe.Offsetof(p.VNet),
		"Requester": unsafe.Offsetof(p.Requester), "IsPush": unsafe.Offsetof(p.IsPush),
		"Filterable": unsafe.Offsetof(p.Filterable), "IsInv": unsafe.Offsetof(p.IsInv),
	} {
		if off >= 64 {
			t.Errorf("Packet.%s sits at offset %d, outside the first cache line", name, off)
		}
	}
	if size := unsafe.Sizeof(inputVC{}); size > 32 {
		t.Errorf("inputVC is %d bytes, want at most 32", size)
	}
}
