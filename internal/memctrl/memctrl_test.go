package memctrl

import (
	"testing"

	"pushmulticast/internal/coherence"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// sink collects packets delivered to an LLC endpoint.
type sink struct{ got []*noc.Packet }

func (s *sink) Receive(p *noc.Packet, now sim.Cycle) { s.got = append(s.got, p) }

func rigCtrl(t *testing.T) (*Ctrl, *sim.Engine, *noc.Network, *sink) {
	t.Helper()
	cfg := config.Default16()
	st := stats.New()
	eng := sim.NewEngine(100_000, 10_000_000)
	net, err := noc.New(cfg.NoC, eng, st)
	if err != nil {
		t.Fatal(err)
	}
	mc := New(0, &cfg, net, eng, st, nil)
	llc := &sink{}
	net.Attach(5, stats.UnitLLC, llc)
	return mc, eng, net, llc
}

func sendMem(net *noc.Network, eng *sim.Engine, m *coherence.Msg, from noc.NodeID) {
	cfg := config.Default16()
	pkt := m.Packet(cfg.NoC, stats.UnitLLC, stats.UnitMem, noc.OneDest(0))
	net.NI(from).Inject(pkt, eng.Now())
}

func TestMemReadReturnsData(t *testing.T) {
	mc, eng, net, llc := rigCtrl(t)
	sendMem(net, eng, &coherence.Msg{Type: coherence.MemRead, Addr: 0x1000, Requester: 5}, 5)
	for i := 0; i < 1000 && len(llc.got) == 0; i++ {
		eng.Step()
	}
	if len(llc.got) != 1 {
		t.Fatal("no MemData received")
	}
	m := coherence.From(llc.got[0])
	if m.Type != coherence.MemData || m.Addr != 0x1000 || m.Version != 0 {
		t.Fatalf("wrong response: %v", m)
	}
	if !mc.Idle() {
		t.Error("controller not idle after completing")
	}
}

func TestMemWriteThenReadRoundTrips(t *testing.T) {
	mc, eng, net, llc := rigCtrl(t)
	sendMem(net, eng, &coherence.Msg{Type: coherence.MemWrite, Addr: 0x2000, Version: 42}, 5)
	for i := 0; i < 400; i++ {
		eng.Step()
	}
	if mc.Version(0x2000) != 42 {
		t.Fatalf("memory image version = %d, want 42", mc.Version(0x2000))
	}
	sendMem(net, eng, &coherence.Msg{Type: coherence.MemRead, Addr: 0x2000, Requester: 5}, 5)
	for i := 0; i < 1000 && len(llc.got) == 0; i++ {
		eng.Step()
	}
	if m := coherence.From(llc.got[0]); m.Version != 42 {
		t.Fatalf("read-after-write version = %d, want 42", m.Version)
	}
}

func TestMemBandwidthSerializes(t *testing.T) {
	_, eng, net, llc := rigCtrl(t)
	for i := 0; i < 4; i++ {
		sendMem(net, eng, &coherence.Msg{Type: coherence.MemRead,
			Addr: uint64(0x1000 + i*64), Requester: 5}, 5)
	}
	var first, last sim.Cycle
	for i := 0; i < 5000 && len(llc.got) < 4; i++ {
		if len(llc.got) == 1 && first == 0 {
			first = eng.Now()
		}
		eng.Step()
	}
	if len(llc.got) != 4 {
		t.Fatal("not all reads returned")
	}
	last = eng.Now()
	cfg := config.Default16()
	// Three additional line occupancies must separate first and last.
	if int(last-first) < 3*cfg.MemCyclesPerLine-5 {
		t.Errorf("responses %d..%d too close for bandwidth limit", first, last)
	}
}

func TestMemLatencyApplied(t *testing.T) {
	_, eng, net, llc := rigCtrl(t)
	start := eng.Now()
	sendMem(net, eng, &coherence.Msg{Type: coherence.MemRead, Addr: 0x40, Requester: 5}, 5)
	for i := 0; i < 2000 && len(llc.got) == 0; i++ {
		eng.Step()
	}
	cfg := config.Default16()
	if int(eng.Now()-start) < cfg.MemLatency {
		t.Errorf("response after %d cycles, below DRAM latency %d", eng.Now()-start, cfg.MemLatency)
	}
}
