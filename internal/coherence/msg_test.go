package coherence

import (
	"testing"

	"pushmulticast/internal/noc"
	"pushmulticast/internal/stats"
)

func TestPacketRouting(t *testing.T) {
	cfg := noc.DefaultConfig(4, 4)
	cases := []struct {
		typ   MsgType
		vnet  int
		class stats.Class
		size  int
	}{
		{GetS, noc.VNetReq, stats.ClassReadRequest, 1},
		{GetM, noc.VNetReq, stats.ClassOther, 1},
		{MemRead, noc.VNetReq, stats.ClassOther, 1},
		{Inv, noc.VNetCtrl, stats.ClassOther, 1},
		{WBAck, noc.VNetCtrl, stats.ClassOther, 1},
		{InvAck, noc.VNetData, stats.ClassOther, 1},
		{InvAckData, noc.VNetData, stats.ClassWriteBackData, 5},
		{PutM, noc.VNetData, stats.ClassWriteBackData, 5},
		{DataS, noc.VNetData, stats.ClassReadSharedData, 5},
		{DataM, noc.VNetData, stats.ClassExclusiveData, 5},
		{PushData, noc.VNetData, stats.ClassPushData, 5},
		{PushAck, noc.VNetData, stats.ClassPushAck, 1},
		{MemWrite, noc.VNetData, stats.ClassOther, 5},
		{MemData, noc.VNetData, stats.ClassOther, 5},
	}
	for _, c := range cases {
		m := &Msg{Type: c.typ, Addr: 0x1000, Requester: 3}
		p := m.Packet(cfg, stats.UnitL2, stats.UnitLLC, noc.OneDest(5))
		if p.VNet != c.vnet {
			t.Errorf("%v: vnet = %d, want %d", c.typ, p.VNet, c.vnet)
		}
		if p.Class != c.class {
			t.Errorf("%v: class = %v, want %v", c.typ, p.Class, c.class)
		}
		if p.Size != c.size {
			t.Errorf("%v: size = %d, want %d", c.typ, p.Size, c.size)
		}
		if p.Addr != 0x1000 || p.Requester != 3 {
			t.Errorf("%v: addr/requester not propagated", c.typ)
		}
	}
}

func TestPacketFlags(t *testing.T) {
	cfg := noc.DefaultConfig(4, 4)
	push := (&Msg{Type: PushData}).Packet(cfg, stats.UnitLLC, stats.UnitL2, noc.OneDest(1))
	if !push.IsPush || push.Filterable || push.IsInv {
		t.Errorf("push flags wrong: %+v", push)
	}
	gets := (&Msg{Type: GetS}).Packet(cfg, stats.UnitL2, stats.UnitLLC, noc.OneDest(1))
	if !gets.Filterable || gets.IsPush {
		t.Errorf("GetS flags wrong: %+v", gets)
	}
	inv := (&Msg{Type: Inv}).Packet(cfg, stats.UnitLLC, stats.UnitL2, noc.OneDest(1))
	if !inv.IsInv {
		t.Errorf("Inv flags wrong: %+v", inv)
	}
}

func TestPrivateDataSClassifiedExclusive(t *testing.T) {
	cfg := noc.DefaultConfig(4, 4)
	p := (&Msg{Type: DataS, Private: true}).Packet(cfg, stats.UnitLLC, stats.UnitL2, noc.OneDest(1))
	if p.Class != stats.ClassExclusiveData {
		t.Errorf("sole-sharer DataS class = %v, want ExclusiveData", p.Class)
	}
}

func TestDataPacketSizeTracksLinkWidth(t *testing.T) {
	cfg := noc.DefaultConfig(4, 4)
	cfg.LinkWidthBits = 512
	p := (&Msg{Type: DataS}).Packet(cfg, stats.UnitLLC, stats.UnitL2, noc.OneDest(1))
	if p.Size != 2 {
		t.Errorf("512-bit data packet = %d flits, want 2", p.Size)
	}
}

func TestMsgStrings(t *testing.T) {
	for typ := MsgType(0); typ < NumMsgTypes; typ++ {
		if typ.String() == "Unknown" {
			t.Errorf("type %d unnamed", typ)
		}
	}
	m := &Msg{Type: GetS, Addr: 0x40, Requester: 2, Version: 3, Epoch: 4}
	if s := m.String(); s == "" {
		t.Error("empty Msg string")
	}
}

// TestMsgRoundTripsThroughPacket: every message type and every flag, alone
// and together, survives FillPacket and From, and a flag never bleeds into
// another.
func TestMsgRoundTripsThroughPacket(t *testing.T) {
	cfg := noc.DefaultConfig(4, 4)
	flags := []func(*Msg){
		func(m *Msg) { m.NeedPush = true }, func(m *Msg) { m.Reset = true },
		func(m *Msg) { m.Prefetch = true }, func(m *Msg) { m.Recall = true },
		func(m *Msg) { m.Private = true },
	}
	for typ := MsgType(0); typ < NumMsgTypes; typ++ {
		for set := 0; set < 1<<len(flags); set++ {
			m := Msg{Type: typ, Addr: 0x7fc0, Requester: 11, Version: 1<<40 | 9, Epoch: 1<<31 | 5}
			for i, f := range flags {
				if set&(1<<i) != 0 {
					f(&m)
				}
			}
			p := m.Packet(cfg, stats.UnitLLC, stats.UnitL2, noc.OneDest(1))
			if got := From(p); got != m {
				t.Fatalf("sent %+v, packet reads back %+v", m, got)
			}
		}
	}
}

// TestFromRejectsBarePacket: a packet nobody filled carries no message, and
// reading one must not come back as a zero-valued GetS.
func TestFromRejectsBarePacket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("From accepted a packet without a message")
		}
	}()
	From(&noc.Packet{Addr: 0x40})
}
