package cache

import (
	"testing"

	"pushmulticast/internal/coherence"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// l2Fixture drives one L2 controller directly with crafted protocol
// messages, bypassing the LLC, to pin down individual FSM transitions.
type l2Fixture struct {
	t    *testing.T
	eng  *sim.Engine
	st   *stats.All
	l2   *L2
	core *recordingCore
	cfg  config.System
}

type recordingCore struct {
	loadsDone, storesDone int
}

func (r *recordingCore) LoadDone(uint64, sim.Cycle)  { r.loadsDone++ }
func (r *recordingCore) StoreDone(uint64, sim.Cycle) { r.storesDone++ }

func newL2Fixture(t *testing.T, sch config.Scheme) *l2Fixture {
	t.Helper()
	cfg := config.Default16().Scaled(16).WithScheme(sch)
	st := stats.New()
	eng := sim.NewEngine(0, 0)
	net, err := noc.New(cfg.NoC, eng, st)
	if err != nil {
		t.Fatal(err)
	}
	f := &l2Fixture{t: t, eng: eng, st: st, core: &recordingCore{}, cfg: cfg}
	f.l2 = NewL2(3, &cfg, net, eng, st, f.core)
	// Absorb anything the L2 sends toward its home.
	for i := 0; i < cfg.Tiles(); i++ {
		for u := stats.Unit(0); u < stats.NumUnits; u++ {
			if i == 3 && u == stats.UnitL2 {
				continue
			}
			net.Attach(noc.NodeID(i), u, sinkEndpoint{})
		}
	}
	return f
}

type sinkEndpoint struct{}

func (sinkEndpoint) Receive(*noc.Packet, sim.Cycle) {}

// deliver hands a message straight to the L2 (as if ejected) and ticks past
// the controller's pipeline latency.
func (f *l2Fixture) deliver(m *coherence.Msg) {
	pkt := m.Packet(f.cfg.NoC, stats.UnitLLC, stats.UnitL2, noc.OneDest(3))
	f.l2.Receive(pkt, f.eng.Now())
	f.step(f.cfg.L2Latency + 3)
}

func (f *l2Fixture) step(n int) {
	for i := 0; i < n; i++ {
		f.eng.Step()
	}
}

func (f *l2Fixture) state(addr uint64) State {
	if l := f.l2.arr.Lookup(addr); l != nil {
		return l.State
	}
	return StateI
}

const lineA = uint64(0x40000000)

func TestL2LoadMissIssuesGetSAndFills(t *testing.T) {
	f := newL2Fixture(t, config.NoPrefetch())
	done, acc := f.l2.Load(lineA, f.eng.Now())
	if done || !acc {
		t.Fatalf("miss path wrong: done=%v acc=%v", done, acc)
	}
	if f.state(lineA) != StateISD {
		t.Fatalf("state %v, want IS_D", f.state(lineA))
	}
	f.deliver(&coherence.Msg{Type: coherence.DataS, Addr: lineA, Requester: 3, Version: 5})
	if f.state(lineA) != StateS || f.core.loadsDone != 1 {
		t.Fatalf("fill failed: state=%v loads=%d", f.state(lineA), f.core.loadsDone)
	}
	if !f.l2.L1().Present(lineA) {
		t.Fatal("demand fill skipped the L1")
	}
}

func TestL2LoadMergesIntoOutstandingMiss(t *testing.T) {
	f := newL2Fixture(t, config.NoPrefetch())
	f.l2.Load(lineA, f.eng.Now())
	f.l2.Load(lineA, f.eng.Now())
	f.deliver(&coherence.Msg{Type: coherence.DataS, Addr: lineA, Requester: 3})
	if f.core.loadsDone != 2 {
		t.Fatalf("merged loads completed %d, want 2", f.core.loadsDone)
	}
	if f.st.Cache.L2Misses != 1 {
		t.Fatalf("L2 misses %d, want 1 (secondary merged)", f.st.Cache.L2Misses)
	}
}

func TestL2InvWhileISDUsesDataOnce(t *testing.T) {
	f := newL2Fixture(t, config.NoPrefetch())
	f.l2.Load(lineA, f.eng.Now())
	f.deliver(&coherence.Msg{Type: coherence.Inv, Addr: lineA, Epoch: 1})
	if f.state(lineA) != StateISDI {
		t.Fatalf("state %v, want IS_D_I", f.state(lineA))
	}
	f.deliver(&coherence.Msg{Type: coherence.DataS, Addr: lineA, Requester: 3, Version: 1})
	if f.core.loadsDone != 1 {
		t.Fatal("use-once data did not complete the load")
	}
	if f.state(lineA) != StateI {
		t.Fatalf("line kept after use-once: %v", f.state(lineA))
	}
}

func TestL2StoreUpgradePath(t *testing.T) {
	f := newL2Fixture(t, config.NoPrefetch())
	f.l2.Load(lineA, f.eng.Now())
	f.deliver(&coherence.Msg{Type: coherence.DataS, Addr: lineA, Requester: 3, Version: 7})
	f.l2.Store(lineA, f.eng.Now())
	if f.state(lineA) != StateSMD {
		t.Fatalf("state %v, want SM_D", f.state(lineA))
	}
	f.deliver(&coherence.Msg{Type: coherence.DataM, Addr: lineA, Requester: 3, Version: 7})
	if f.state(lineA) != StateM || f.core.storesDone != 1 {
		t.Fatalf("upgrade failed: %v stores=%d", f.state(lineA), f.core.storesDone)
	}
	if l := f.l2.arr.Lookup(lineA); l.Version != 8 {
		t.Fatalf("store did not bump version: %d", l.Version)
	}
}

func TestL2RecallDeferredUntilDataM(t *testing.T) {
	f := newL2Fixture(t, config.NoPrefetch())
	f.l2.Store(lineA, f.eng.Now())
	if f.state(lineA) != StateIMD {
		t.Fatalf("state %v, want IM_D", f.state(lineA))
	}
	// Recall overtakes the DataM.
	f.deliver(&coherence.Msg{Type: coherence.Inv, Addr: lineA, Epoch: 2, Recall: true})
	if f.state(lineA) != StateIMD {
		t.Fatalf("recall destroyed the pending write: %v", f.state(lineA))
	}
	f.deliver(&coherence.Msg{Type: coherence.DataM, Addr: lineA, Requester: 3, Version: 4})
	if f.core.storesDone != 1 {
		t.Fatal("deferred recall lost the store")
	}
	if f.state(lineA) != StateI {
		t.Fatalf("line kept after recall: %v", f.state(lineA))
	}
}

func TestL2PushOutcomes(t *testing.T) {
	f := newL2Fixture(t, config.OrdPush())
	// Speculative push into an empty cache: installs.
	f.deliver(&coherence.Msg{Type: coherence.PushData, Addr: lineA, Requester: -1, Version: 2})
	if f.state(lineA) != StateS {
		t.Fatalf("push not installed: %v", f.state(lineA))
	}
	// Duplicate push: redundancy drop.
	f.deliver(&coherence.Msg{Type: coherence.PushData, Addr: lineA, Requester: -1, Version: 2})
	if f.st.Cache.PushOutcomes[stats.PushRedundancyDrop] != 1 {
		t.Fatalf("outcomes %v, want one redundancy drop", f.st.Cache.PushOutcomes)
	}
	// First touch classifies Miss-to-Hit.
	f.l2.Load(lineA, f.eng.Now())
	if f.st.Cache.PushOutcomes[stats.PushMissToHit] != 1 {
		t.Fatalf("outcomes %v, want one miss-to-hit", f.st.Cache.PushOutcomes)
	}
}

func TestL2PushServesOutstandingMiss(t *testing.T) {
	f := newL2Fixture(t, config.OrdPush())
	f.l2.Load(lineA, f.eng.Now())
	f.deliver(&coherence.Msg{Type: coherence.PushData, Addr: lineA, Requester: -1, Version: 2})
	if f.core.loadsDone != 1 {
		t.Fatal("push did not serve the outstanding miss")
	}
	if f.st.Cache.PushOutcomes[stats.PushEarlyResp] != 1 {
		t.Fatalf("outcomes %v, want one early-resp", f.st.Cache.PushOutcomes)
	}
	// The late unicast response is dropped silently.
	f.deliver(&coherence.Msg{Type: coherence.DataS, Addr: lineA, Requester: 3, Version: 2})
	if f.core.loadsDone != 1 {
		t.Fatal("duplicate response completed a phantom load")
	}
}

func TestL2PushDroppedOnWriteUpgrade(t *testing.T) {
	f := newL2Fixture(t, config.OrdPush())
	f.l2.Store(lineA, f.eng.Now())
	f.deliver(&coherence.Msg{Type: coherence.PushData, Addr: lineA, Requester: -1, Version: 2})
	if f.st.Cache.PushOutcomes[stats.PushCoherenceDrop] != 1 {
		t.Fatalf("outcomes %v, want one coherence drop", f.st.Cache.PushOutcomes)
	}
	if f.state(lineA) != StateIMD {
		t.Fatalf("push disturbed the write upgrade: %v", f.state(lineA))
	}
}

func TestL2PushNeverEvictsDirtyData(t *testing.T) {
	f := newL2Fixture(t, config.OrdPush())
	// Fill one whole set with M lines.
	sets := uint64(f.cfg.L2Size / noc.LineBytes / f.cfg.L2Ways)
	stride := sets * noc.LineBytes
	for w := 0; w < f.cfg.L2Ways; w++ {
		addr := lineA + uint64(w)*stride
		f.l2.Store(addr, f.eng.Now())
		f.deliver(&coherence.Msg{Type: coherence.DataM, Addr: addr, Requester: 3})
	}
	f.deliver(&coherence.Msg{Type: coherence.PushData, Addr: lineA + uint64(f.cfg.L2Ways)*stride,
		Requester: -1})
	if f.st.Cache.PushOutcomes[stats.PushDeadlockDrop] != 1 {
		t.Fatalf("outcomes %v, want a deadlock-drop (all ways dirty)", f.st.Cache.PushOutcomes)
	}
	if f.st.Cache.L2Evictions != 0 {
		t.Fatal("push evicted dirty data")
	}
}

func TestL2InvOnDirtyLineReturnsData(t *testing.T) {
	f := newL2Fixture(t, config.NoPrefetch())
	f.l2.Store(lineA, f.eng.Now())
	f.deliver(&coherence.Msg{Type: coherence.DataM, Addr: lineA, Requester: 3, Version: 0})
	f.deliver(&coherence.Msg{Type: coherence.Inv, Addr: lineA, Epoch: 3, Recall: true})
	if f.state(lineA) != StateI {
		t.Fatalf("recall left %v", f.state(lineA))
	}
}

func TestL2ResetFlagClearsKnob(t *testing.T) {
	f := newL2Fixture(t, config.OrdPush())
	for i := 0; i < 20; i++ {
		f.deliver(&coherence.Msg{Type: coherence.PushData,
			Addr: lineA + uint64(i)*64, Requester: -1})
	}
	if _, _, need := f.l2.Knob(); need {
		t.Fatal("knob should have paused after 20 unused pushes")
	}
	f.l2.Load(lineA+4096, f.eng.Now())
	f.deliver(&coherence.Msg{Type: coherence.DataS, Addr: lineA + 4096, Requester: 3, Reset: true})
	if tpc, _, need := f.l2.Knob(); !need || tpc != 0 {
		t.Fatalf("reset flag ignored: tpc=%d need=%v", tpc, need)
	}
}
