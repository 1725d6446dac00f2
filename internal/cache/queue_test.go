package cache

import (
	"testing"

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

func TestOutboxHoldsInvBehindSameLinePush(t *testing.T) {
	// An invalidation must not be injected while a same-line push is still
	// stuck in the outbox (the pre-injection half of OrdPush ordering).
	net := buildNet(t, 1) // helper builds a tiny network
	ob := outbox{ni: net.NI(0), unit: 0}
	push := mkPkt(0xbeef, true, false)
	push.Size = 5
	inv := mkPkt(0xbeef, false, true)
	// Fill the data vnet queue so the push cannot inject.
	for net.NI(0).CanInject(0, noc.VNetData) {
		filler := mkPkt(0x1, false, false)
		filler.VNet = noc.VNetData
		net.NI(0).Inject(filler, 0)
	}
	ob.send(push)
	ob.send(inv)
	ob.drain(0)
	if len(ob.pkts) != 2 {
		t.Fatalf("both packets should be held, kept %d", len(ob.pkts))
	}
}

func TestOutboxUnrelatedInvPasses(t *testing.T) {
	net := buildNet(t, 1)
	ob := outbox{ni: net.NI(0), unit: 0}
	push := mkPkt(0xbeef, true, false)
	push.Size = 5
	inv := mkPkt(0xaaaa, false, true)
	for net.NI(0).CanInject(0, noc.VNetData) {
		filler := mkPkt(0x1, false, false)
		filler.VNet = noc.VNetData
		net.NI(0).Inject(filler, 0)
	}
	ob.send(push)
	ob.send(inv)
	ob.drain(0)
	if len(ob.pkts) != 1 || !ob.pkts[0].IsPush {
		t.Fatalf("unrelated inv should pass; kept %d", len(ob.pkts))
	}
}
