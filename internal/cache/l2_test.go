package cache

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"pushmulticast/internal/coherence"
	"pushmulticast/internal/config"
	"pushmulticast/internal/fault"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/stats"
)

// l2Fixture drives one L2 controller directly with crafted protocol
// messages, bypassing the LLC, to pin down individual FSM transitions.
type l2Fixture struct {
	t    *testing.T
	eng  *sim.Engine
	st   *stats.All
	net  *noc.Network
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
	return newL2FixtureFor(t, config.Default16().Scaled(16).WithScheme(sch))
}

func newL2FixtureFor(t *testing.T, cfg config.System) *l2Fixture {
	t.Helper()
	st := stats.New()
	eng := sim.NewEngine(0, 0)
	net, err := noc.New(cfg.NoC, eng, st)
	if err != nil {
		t.Fatal(err)
	}
	f := &l2Fixture{t: t, eng: eng, st: st, net: net, core: &recordingCore{}, cfg: cfg}
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

// mshrTimerRun drives a lossy L2 whose requests nobody answers unless the
// script below does, so every MSHR times out and reissues with backoff. The
// script retires the MSHR whose deadline is the earliest (leaving the retry
// bound stale low), and opens a miss and starts fresh write episodes (after a
// fill, and after a use-once fill) while the bound is later than their
// deadlines, so it must be lowered. It returns the
// cycles on which a reissue happened from cycle from on, stepping f from its
// current cycle to end. walkEveryTick zeroes the bound before every step, so
// each tick of the L2 walks its MSHR file — the reference the bound must
// match.
func mshrTimerRun(f *l2Fixture, from, end sim.Cycle, walkEveryTick bool) []sim.Cycle {
	f.t.Helper()
	recv := func(t coherence.MsgType, addr uint64, now sim.Cycle) {
		m := &coherence.Msg{Type: t, Addr: addr, Requester: 3, Version: 1, Epoch: 1}
		f.l2.Receive(m.Packet(f.cfg.NoC, stats.UnitLLC, stats.UnitL2, noc.OneDest(3)), now)
	}
	var reissues []sim.Cycle
	for now := f.eng.Now(); now < end; now = f.eng.Now() {
		switch now {
		case 0:
			f.l2.Load(lineA, now)
		case 40:
			f.l2.Load(lineA+64, now)
		case 130:
			f.l2.Store(lineA+128, now)
		case 700: // lineA's deadline, 900, is the earliest
			recv(coherence.DataS, lineA, now)
		case 1500: // deadline 1800, under a bound of 2140
			f.l2.Load(lineA+192, now)
		case 2500:
			f.l2.Store(lineA+64, now)
		case 2600: // the fill starts a GetM episode due at 2904, under 3600
			recv(coherence.DataS, lineA+64, now)
		case 3000: // reissued at 3300 and 3900, then due at 5100
			f.l2.Load(lineA+256, now)
		case 3950:
			f.l2.Store(lineA+256, now)
		case 3960:
			recv(coherence.Inv, lineA+256, now)
		case 4000: // the use-once fill starts a GetM episode due at 4304, under 4630
			recv(coherence.DataS, lineA+256, now)
		}
		if walkEveryTick {
			f.l2.retryAt = 0
		}
		before := f.st.Cache.MSHRTimeouts
		f.eng.Step()
		if f.st.Cache.MSHRTimeouts != before && now >= from {
			reissues = append(reissues, now)
		}
		if err := f.l2.Audit(); err != nil {
			f.t.Fatalf("cycle %d: %v", now, err)
		}
		if !walkEveryTick && f.l2.retryAt <= now {
			f.t.Fatalf("cycle %d: retry bound %d not past it: the next tick walks the file again", now, f.l2.retryAt)
		}
	}
	return reissues
}

// TestMSHRRetryBoundMatchesWalkEveryTick: with the retry bound, an overdue
// MSHR reissues on exactly the cycle it does when the L2 walks its MSHR file
// on every tick — cold, and continued from a snapshot taken mid-backoff, whose
// restored bound is zero.
func TestMSHRRetryBoundMatchesWalkEveryTick(t *testing.T) {
	cfg := config.Default16().Scaled(16).WithScheme(config.NoPrefetch())
	plan := fault.GenerateLossyPlan(cfg.Tiles(), 1, 10)
	cfg.Faults = &plan
	const pause, end = 2500, 30000
	want := mshrTimerRun(newL2FixtureFor(t, cfg), 0, end, true)
	if len(want) < 12 {
		t.Fatalf("the reference reissued %d times by cycle %d (%v); the run does not exercise the timers", len(want), end, want)
	}
	cold := newL2FixtureFor(t, cfg)
	if got := mshrTimerRun(cold, 0, end, false); !slices.Equal(got, want) {
		t.Fatalf("bounded L2 reissued at %v, walk-every-tick reference at %v", got, want)
	}

	donor := newL2FixtureFor(t, cfg)
	mshrTimerRun(donor, 0, pause, false)
	state := func(f *l2Fixture, c *snapshot.Codec) {
		f.eng.State(c)
		f.net.State(c)
		f.l2.State(c)
	}
	enc := snapshot.NewEncoder("", "", uint64(donor.eng.Now()))
	state(donor, enc)
	dec, err := snapshot.NewDecoder(enc.Finish())
	if err != nil {
		t.Fatal(err)
	}
	restored := newL2FixtureFor(t, cfg)
	if state(restored, dec); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	if restored.l2.retryAt != 0 || len(restored.l2.mshr) != 3 {
		t.Fatalf("restored L2: retry bound %d, %d MSHRs; want 0 and 3", restored.l2.retryAt, len(restored.l2.mshr))
	}
	i, _ := slices.BinarySearch(want, sim.Cycle(pause))
	if got := mshrTimerRun(restored, pause, end, false); !slices.Equal(got, want[i:]) {
		t.Fatalf("restored L2 reissued at %v, walk-every-tick reference at %v", got, want[i:])
	}
}

// TestL2AuditDetectsWritebackDrift pins an address for writeback each way the
// buffer can go wrong and requires the audit, and the snapshot decoder, to
// name it. The clean state pins one absent line beside a resident one.
func TestL2AuditDetectsWritebackDrift(t *testing.T) {
	roundTrip := func(f *l2Fixture) error {
		c := snapshot.NewEncoder("", "", 0)
		f.l2.State(c)
		d, err := snapshot.NewDecoder(c.Finish())
		if err != nil {
			return err
		}
		newL2Fixture(t, f.cfg.Scheme).l2.State(d)
		return d.Err()
	}
	const pinned = lineA + 64
	for _, tc := range []struct {
		name, want, wantDecode string
		corrupt                func(c *L2)
	}{
		{"pinned line resident", "resident in S", "", func(c *L2) { c.wb = append(c.wb, lineA) }},
		{"line pinned twice", "pinned for writeback twice", "out of order", func(c *L2) { c.wb = append(c.wb, pinned) }},
	} {
		f := newL2Fixture(t, config.NoPrefetch())
		f.l2.Load(lineA, f.eng.Now())
		f.deliver(&coherence.Msg{Type: coherence.DataS, Addr: lineA, Requester: 3, Version: 5})
		f.l2.wb = append(f.l2.wb, pinned)
		if err := f.l2.Audit(); err != nil {
			t.Fatalf("%s: audit dirty before the corruption: %v", tc.name, err)
		}
		if err := roundTrip(f); err != nil {
			t.Fatalf("%s: clean L2 does not restore: %v", tc.name, err)
		}
		tc.corrupt(f.l2)
		if err := f.l2.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit says %v, want %q", tc.name, err, tc.want)
		}
		want := tc.want
		if tc.wantDecode != "" {
			want = tc.wantDecode
		}
		if err := roundTrip(f); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: restore says %v, want a corrupt snapshot naming %q", tc.name, err, want)
		}
	}
}
