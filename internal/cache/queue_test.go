package cache

import (
	"testing"

	"pushmulticast/internal/coherence"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// buildNet makes a minimal 2x2 mesh for queue tests.
func buildNet(t *testing.T, _ int) *noc.Network {
	t.Helper()
	eng := sim.NewEngine(0, 0)
	net, err := noc.New(noc.DefaultConfig(2, 2), eng, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func mkPkt(addr uint64, push, inv bool) *noc.Packet {
	vnet := noc.VNetReq
	if push || inv {
		vnet = noc.VNetData
	}
	if inv {
		vnet = noc.VNetCtrl
	}
	return &noc.Packet{Addr: addr, IsPush: push, IsInv: inv, VNet: vnet, Size: 1, Dests: noc.OneDest(1)}
}

func TestDelayQueueMaturity(t *testing.T) {
	q := delayQueue{latency: 5}
	q.push(mkPkt(0x40, false, false), 10)
	if q.pop(12) != nil {
		t.Fatal("popped before maturity")
	}
	if p := q.pop(15); p == nil || p.Addr != 0x40 {
		t.Fatal("mature packet not popped")
	}
	if len(q.live()) != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestDelayQueueFIFO(t *testing.T) {
	q := delayQueue{latency: 0}
	for i := uint64(0); i < 4; i++ {
		q.push(mkPkt(i, false, false), 0)
	}
	for i := uint64(0); i < 4; i++ {
		if p := q.pop(0); p.Addr != i {
			t.Fatalf("FIFO order broken: got %#x want %#x", p.Addr, i)
		}
	}
}

func TestDelayQueuePushFront(t *testing.T) {
	q := delayQueue{latency: 0}
	q.push(mkPkt(1, false, false), 0)
	q.pushFront(mkPkt(2, false, false), 0)
	if p := q.pop(0); p.Addr != 2 {
		t.Fatalf("pushFront packet not first: %#x", p.Addr)
	}
}

func TestDelayQueuePeekAndRemoveIf(t *testing.T) {
	q := delayQueue{latency: 0}
	q.push(mkPkt(1, false, false), 0)
	q.push(mkPkt(2, false, false), 0)
	q.push(mkPkt(1, false, false), 0)
	out := q.removeIf(func(p *noc.Packet) bool { return p.Addr == 1 })
	if len(out) != 2 || len(q.items) != 1 || q.items[0].pkt.Addr != 2 {
		t.Fatalf("removeIf wrong: out=%d kept=%d", len(out), len(q.items))
	}
	if p := q.pop(0); p == nil || p.Addr != 2 || q.pop(0) != nil {
		t.Fatal("removeIf left the wrong head")
	}
}

// blockedOutbox returns an outbox on tile 0 of a 2x2 mesh whose data vnet
// injection queue is full, so a push cannot inject.
func blockedOutbox(t *testing.T) *outbox {
	net := buildNet(t, 1)
	cfg := noc.DefaultConfig(2, 2)
	for net.NI(0).CanInject(stats.UnitLLC, noc.VNetData) {
		filler := mkPkt(0x1, false, false)
		filler.VNet, filler.SrcUnit = noc.VNetData, stats.UnitLLC
		net.NI(0).Inject(filler, 0)
	}
	return &outbox{ni: net.NI(0), cfg: &cfg, unit: stats.UnitLLC}
}

func TestOutboxHoldsInvBehindSameLinePush(t *testing.T) {
	// An invalidation must not be injected while a same-line push is still
	// stuck in the outbox (the pre-injection half of OrdPush ordering).
	ob := blockedOutbox(t)
	ob.send(coherence.Msg{Type: coherence.PushData, Addr: 0xbeef}, noc.OneDest(1), stats.UnitL2)
	ob.send(coherence.Msg{Type: coherence.Inv, Addr: 0xbeef}, noc.OneDest(1), stats.UnitL2)
	ob.drain(0)
	if len(ob.pkts) != 2 {
		t.Fatalf("both packets should be held, kept %d", len(ob.pkts))
	}
}

func TestOutboxUnrelatedInvPasses(t *testing.T) {
	ob := blockedOutbox(t)
	ob.send(coherence.Msg{Type: coherence.PushData, Addr: 0xbeef}, noc.OneDest(1), stats.UnitL2)
	ob.send(coherence.Msg{Type: coherence.Inv, Addr: 0xaaaa}, noc.OneDest(1), stats.UnitL2)
	ob.drain(0)
	if len(ob.pkts) != 1 || !ob.pkts[0].IsPush {
		t.Fatalf("unrelated inv should pass; kept %d", len(ob.pkts))
	}
}

// TestOutboxSendFillsFromItsUnit: the packet send builds carries the
// outbox's unit as its source and the message's vnet and size.
func TestOutboxSendFillsFromItsUnit(t *testing.T) {
	net := buildNet(t, 1)
	cfg := noc.DefaultConfig(2, 2)
	ob := outbox{ni: net.NI(0), cfg: &cfg, unit: stats.UnitL2}
	ob.send(coherence.Msg{Type: coherence.GetS, Addr: 0x40, Requester: 0}, noc.OneDest(3), stats.UnitLLC)
	p := ob.pkts[0]
	if p.SrcUnit != stats.UnitL2 || p.DstUnit != stats.UnitLLC || p.VNet != noc.VNetReq ||
		p.Size != cfg.CtrlPacketSize() || !p.Filterable || p.Dests != noc.OneDest(3) {
		t.Fatalf("GetS packet %+v", p)
	}
}
