package cache

import (
	"errors"
	"strings"
	"testing"

	"pushmulticast/internal/coherence"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/stats"
)

// llcFixture drives one LLC slice directly, capturing everything it sends.
type llcFixture struct {
	t   *testing.T
	eng *sim.Engine
	st  *stats.All
	llc *LLC
	cfg config.System
	// sent records the messages ejected at any other endpoint, sentTo the
	// tile each was ejected at.
	sent   []*noc.Packet
	sentTo []noc.NodeID
}

type captureEndpoint struct {
	f    *llcFixture
	tile noc.NodeID
}

func (c captureEndpoint) Receive(p *noc.Packet, now sim.Cycle) {
	c.f.sent = append(c.f.sent, p)
	c.f.sentTo = append(c.f.sentTo, c.tile)
}

// newLLCFixture puts the slice at tile 0 so lineB (which homes to 0) is
// served locally.
func newLLCFixture(t *testing.T, sch config.Scheme) *llcFixture {
	t.Helper()
	return newLLCFixtureFor(t, config.Default16().Scaled(16).WithScheme(sch))
}

// newLLCFixtureFor is newLLCFixture on any machine; lineB homes to slice 0 on
// each of the 16-, 64- and 256-tile meshes.
func newLLCFixtureFor(t *testing.T, cfg config.System) *llcFixture {
	t.Helper()
	st := stats.New()
	eng := sim.NewEngine(0, 0)
	net, err := noc.New(cfg.NoC, eng, st)
	if err != nil {
		t.Fatal(err)
	}
	f := &llcFixture{t: t, eng: eng, st: st, cfg: cfg}
	f.llc = NewLLC(0, &cfg, net, eng, st, NewPools(&cfg), nil)
	for i := 0; i < cfg.Tiles(); i++ {
		for u := stats.Unit(0); u < stats.NumUnits; u++ {
			if i == 0 && u == stats.UnitLLC {
				continue
			}
			net.Attach(noc.NodeID(i), u, captureEndpoint{f, noc.NodeID(i)})
		}
	}
	return f
}

// lineB homes to slice 0 in a 16-tile system.
const lineB = uint64(0x80000000)

func (f *llcFixture) deliver(m *coherence.Msg, from noc.NodeID) {
	pkt := m.Packet(f.cfg.NoC, stats.UnitL2, stats.UnitLLC, noc.OneDest(0))
	pkt.Src = from
	f.llc.Receive(pkt, f.eng.Now())
	f.step(f.cfg.LLCLatency + 4)
}

func (f *llcFixture) step(n int) {
	for i := 0; i < n; i++ {
		f.eng.Step()
	}
}

// drainSent waits for in-flight ejections and returns messages of a type.
func (f *llcFixture) drainSent(typ coherence.MsgType) []coherence.Msg {
	f.step(120)
	var out []coherence.Msg
	for _, p := range f.sent {
		if m := coherence.From(p); m.Type == typ {
			out = append(out, m)
		}
	}
	return out
}

func (f *llcFixture) lineState(addr uint64) (State, noc.DestSet) {
	var st State
	var sh noc.DestSet
	if l := f.llc.Line(addr); l != nil {
		st, sh = l.State, f.llc.Dir(l).Sharers()
	}
	return st, sh
}

// fill brings lineB into the slice via a memory round trip.
func (f *llcFixture) fill(requester noc.NodeID) {
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: requester, NeedPush: true}, requester)
	// The slice sends MemRead toward a corner controller; feed MemData back.
	reads := f.drainSent(coherence.MemRead)
	if len(reads) != 1 {
		f.t.Fatalf("expected 1 MemRead, got %d", len(reads))
	}
	mem := &coherence.Msg{Type: coherence.MemData, Addr: lineB, Version: 0}
	pkt := mem.Packet(f.cfg.NoC, stats.UnitMem, stats.UnitLLC, noc.OneDest(0))
	f.llc.Receive(pkt, f.eng.Now())
	f.step(f.cfg.LLCLatency + 4)
}

func TestLLCMissFetchesAndReplies(t *testing.T) {
	f := newLLCFixture(t, config.NoPrefetch())
	f.fill(2)
	if st, sh := f.lineState(lineB); st != StateLV || !sh.Has(2) {
		t.Fatalf("after fill: %v sharers=%b", st, sh)
	}
	if len(f.drainSent(coherence.DataS)) != 1 {
		t.Fatal("requester not answered")
	}
}

func TestLLCReReferenceTriggersPush(t *testing.T) {
	f := newLLCFixture(t, config.OrdPush())
	f.fill(2)
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 5, NeedPush: true}, 5)
	// New sharer: unicast. Re-reference from 2 within the recent window is
	// suppressed, so advance past it.
	f.step(300)
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 2, NeedPush: true}, 2)
	// One multicast, two destinations: the capture endpoint sees one
	// delivered replica per destination.
	pushes := f.drainSent(coherence.PushData)
	if len(pushes) != 2 {
		t.Fatalf("delivered push replicas = %d, want 2", len(pushes))
	}
	if f.st.Cache.PushesTriggered != 1 || f.st.Cache.PushDestinations != 2 {
		t.Fatalf("push accounting wrong: %d/%d",
			f.st.Cache.PushesTriggered, f.st.Cache.PushDestinations)
	}
}

func TestLLCPrefetchNeverPushes(t *testing.T) {
	f := newLLCFixture(t, config.OrdPush())
	f.fill(2)
	f.step(300)
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 2,
		NeedPush: true, Prefetch: true}, 2)
	if len(f.drainSent(coherence.PushData)) != 0 {
		t.Fatal("prefetch re-reference triggered a push")
	}
}

func TestLLCWriteCollectsAcksBeforeGrant(t *testing.T) {
	f := newLLCFixture(t, config.NoPrefetch())
	f.fill(2)
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 5}, 5)
	f.deliver(&coherence.Msg{Type: coherence.GetM, Addr: lineB, Requester: 9}, 9)
	invs := f.drainSent(coherence.Inv)
	if len(invs) != 2 {
		t.Fatalf("invs = %d, want 2 (both sharers)", len(invs))
	}
	if grants := f.drainSent(coherence.DataM); len(grants) != 0 {
		t.Fatal("ownership granted before acks")
	}
	f.deliver(&coherence.Msg{Type: coherence.InvAck, Addr: lineB, Requester: 2, Epoch: invs[0].Epoch}, 2)
	if grants := f.drainSent(coherence.DataM); len(grants) != 0 {
		t.Fatal("ownership granted after partial acks")
	}
	f.deliver(&coherence.Msg{Type: coherence.InvAck, Addr: lineB, Requester: 5, Epoch: invs[0].Epoch}, 5)
	if grants := f.drainSent(coherence.DataM); len(grants) != 1 {
		t.Fatal("ownership not granted after all acks")
	}
	if st, _ := f.lineState(lineB); st != StateLM {
		t.Fatalf("directory in %v, want LM", st)
	}
}

func TestLLCStaleEpochAckIgnored(t *testing.T) {
	f := newLLCFixture(t, config.NoPrefetch())
	f.fill(2)
	f.deliver(&coherence.Msg{Type: coherence.GetM, Addr: lineB, Requester: 9}, 9)
	invs := f.drainSent(coherence.Inv)
	if len(invs) != 1 {
		t.Fatalf("invs = %d", len(invs))
	}
	// An ack from a long-dead episode must not complete this one.
	f.deliver(&coherence.Msg{Type: coherence.InvAck, Addr: lineB, Requester: 2,
		Epoch: invs[0].Epoch + 7}, 2)
	if len(f.drainSent(coherence.DataM)) != 0 {
		t.Fatal("stale-epoch ack completed the episode")
	}
	f.deliver(&coherence.Msg{Type: coherence.InvAck, Addr: lineB, Requester: 2, Epoch: invs[0].Epoch}, 2)
	if len(f.drainSent(coherence.DataM)) != 1 {
		t.Fatal("episode never completed")
	}
}

func TestLLCPushAckPState(t *testing.T) {
	f := newLLCFixture(t, config.PushAck())
	f.fill(2)
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 5, NeedPush: true}, 5)
	f.step(300)
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 2, NeedPush: true}, 2)
	if st, _ := f.lineState(lineB); st != StateLP {
		t.Fatalf("directory in %v, want LP after push", st)
	}
	// Reads are still served in P...
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 7, NeedPush: true}, 7)
	if n := len(f.drainSent(coherence.DataS)); n < 3 {
		t.Fatalf("GetS during P not served: %d DataS", n)
	}
	// ...writes are blocked until both PushAcks arrive.
	f.deliver(&coherence.Msg{Type: coherence.GetM, Addr: lineB, Requester: 9}, 9)
	if len(f.drainSent(coherence.Inv)) != 0 {
		t.Fatal("write processed while in P")
	}
	f.deliver(&coherence.Msg{Type: coherence.PushAck, Addr: lineB, Requester: 2}, 2)
	f.deliver(&coherence.Msg{Type: coherence.PushAck, Addr: lineB, Requester: 5}, 5)
	if len(f.drainSent(coherence.Inv)) == 0 {
		t.Fatal("write still blocked after all PushAcks")
	}
}

func TestLLCWritebackUpdatesAndAcks(t *testing.T) {
	f := newLLCFixture(t, config.NoPrefetch())
	f.fill(2)
	f.deliver(&coherence.Msg{Type: coherence.GetM, Addr: lineB, Requester: 2}, 2)
	if len(f.drainSent(coherence.DataM)) != 1 {
		t.Fatal("sole-sharer upgrade not granted immediately")
	}
	f.deliver(&coherence.Msg{Type: coherence.PutM, Addr: lineB, Requester: 2, Version: 3}, 2)
	if len(f.drainSent(coherence.WBAck)) != 1 {
		t.Fatal("writeback not acknowledged")
	}
	st, _ := f.lineState(lineB)
	if st != StateLV {
		t.Fatalf("directory in %v after writeback, want LV", st)
	}
	var ver uint64
	f.llc.ForEachLine(func(addr uint64, l *Line) {
		if addr == lineB {
			ver = l.Version
		}
	})
	if ver != 3 {
		t.Fatalf("writeback version %d, want 3", ver)
	}
}

func TestLLCKnobExcludesDisabledSharers(t *testing.T) {
	f := newLLCFixture(t, config.OrdPush())
	f.fill(2)
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 5, NeedPush: false}, 5)
	if !f.llc.knob.pushDisabled(5) {
		t.Fatal("need_push=false did not register in the PDRMap")
	}
	f.step(300)
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 2, NeedPush: true}, 2)
	pushes := f.drainSent(coherence.PushData)
	if len(pushes) != 0 {
		// With 5 excluded, dests collapse to {2}: the degenerate unicast.
		t.Fatalf("push sent despite PDR exclusion: %d", len(pushes))
	}
}

// TestCoalescedRequestsRejoinFreeList: a coalesced reply is done with the
// packets of the k queued reads it absorbed, so the tile's free list grows by
// k, not by the one packet that reached a handler. The list is a stack: once
// the reply has taken its own packet, the next k draws must all be packets
// this test delivered.
func TestCoalescedRequestsRejoinFreeList(t *testing.T) {
	f := newLLCFixture(t, config.Coalesce())
	f.fill(2)
	f.step(200)
	ni := f.llc.out.ni
	const k = 3
	delivered := map[*noc.Packet]bool{}
	for r := noc.NodeID(3); r < 3+k+1; r++ {
		p := ni.NewPacket()
		coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: r}.FillPacket(
			p, f.cfg.NoC, stats.UnitL2, stats.UnitLLC, noc.OneDest(0))
		p.Src = r
		delivered[p] = true
		f.llc.Receive(p, f.eng.Now())
	}
	for i := 0; f.st.Cache.CoalescedRequests < k; i++ {
		if i > f.cfg.LLCLatency+4 {
			t.Fatalf("the head read absorbed %d queued requests, want %d", f.st.Cache.CoalescedRequests, k)
		}
		f.eng.Step()
	}
	for i := 0; i < k; i++ {
		if p := ni.NewPacket(); !delivered[p] {
			t.Fatalf("draw %d of %d from the free list is not a request packet the slice consumed: %d leaked", i+1, k, k-i)
		}
	}
}

// roundTrip encodes the slice and decodes the bytes into a fresh one,
// returning the decoder's verdict.
func (f *llcFixture) roundTrip() error {
	c := snapshot.NewEncoder("", "", 0)
	f.llc.State(c)
	d, err := snapshot.NewDecoder(c.Finish())
	if err != nil {
		return err
	}
	newLLCFixture(f.t, f.cfg.Scheme).llc.State(d)
	return d.Err()
}

// TestLLCAuditDetectsTxnDrift breaks the one-record-per-blocked-line rule each
// way it can go wrong and requires both the audit and the snapshot decoder to
// name the break. The clean state is a write episode (LS_Inv, two acks
// pending, writer 9) with a read parked on it.
func TestLLCAuditDetectsTxnDrift(t *testing.T) {
	setup := func() *llcFixture {
		f := newLLCFixture(t, config.NoPrefetch())
		f.fill(2)
		f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 5}, 5)
		f.deliver(&coherence.Msg{Type: coherence.GetM, Addr: lineB, Requester: 9}, 9)
		f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 7}, 7)
		return f
	}
	for _, tc := range []struct {
		name, want, wantDecode string
		corrupt                func(s *LLC, t *txn, l *Line)
	}{
		{"blocked line without a record", "has 0 transaction records", "",
			func(s *LLC, t *txn, l *Line) { s.txns = s.txns[:0] }},
		{"record on a stable line", "not blocked", "", func(s *LLC, t *txn, l *Line) { l.State = StateLV }},
		{"record on an absent line", "absent line", "", func(s *LLC, t *txn, l *Line) { t.addr = lineB + 16*64 }},
		{"two records on one line", "has 2 transaction records", "out of order",
			func(s *LLC, t *txn, l *Line) { s.txns = append(s.txns, t) }},
		{"writer on an evict-shared record", "writer 9", "", func(s *LLC, t *txn, l *Line) { t.evict = true }},
		{"write without a writer", "writer -1", "", func(s *LLC, t *txn, l *Line) { t.writer = noWriter }},
		{"evict bit on a fetch", "an evict bit", "", func(s *LLC, t *txn, l *Line) { l.State, t.evict = StateLFetch, true }},
		{"invalidation without pending acks", "0 pending acks", "",
			func(s *LLC, t *txn, l *Line) { t.pending = noc.DestSet{} }},
		{"pending ack beyond the mesh", "3 pending acks", "",
			func(s *LLC, t *txn, l *Line) { t.pending = t.pending.Add(200) }},
		{"merged reader outside a fetch", "merged readers [3]", "",
			func(s *LLC, t *txn, l *Line) { t.readers = append(t.readers, 3) }},
	} {
		f := setup()
		line := f.llc.Line(lineB)
		if line == nil || line.State != StateLSInv || len(f.llc.txns) != 1 || len(f.llc.txns[0].parked) != 1 {
			t.Fatalf("%s: setup did not block the line with one parked read", tc.name)
		}
		if err := f.llc.Audit(); err != nil {
			t.Fatalf("%s: audit dirty before the corruption: %v", tc.name, err)
		}
		if err := f.roundTrip(); err != nil {
			t.Fatalf("%s: clean slice does not restore: %v", tc.name, err)
		}
		tc.corrupt(f.llc, f.llc.txns[0], line)
		if err := f.llc.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit says %v, want %q", tc.name, err, tc.want)
		}
		want := tc.want
		if tc.wantDecode != "" {
			want = tc.wantDecode
		}
		if err := f.roundTrip(); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: restore says %v, want a corrupt snapshot naming %q", tc.name, err, want)
		}
	}
}

// TestLLCAuditDetectsDirectoryPastMesh names a non-tile in a line's directory
// each way the 16-tile table can hold one and requires both the audit and the
// snapshot decoder to name it. The clean state is the line owned by tile 2.
func TestLLCAuditDetectsDirectoryPastMesh(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(d DirWay, l *Line)
	}{
		{"sharer past the mesh", "has sharer 20 past the 16-tile mesh", func(d DirWay, l *Line) {
			l.State = StateLV
			d.SetSharers(noc.OneDest(3).Add(20))
		}},
		{"owner past the mesh", "in LM has owner 99 past the 16-tile mesh", func(d DirWay, l *Line) { d.Owner = 99 }},
		// The directory is audited before the transaction table, so the missing
		// recall record goes unreported.
		{"negative owner under recall", "in LM_Inv has owner -1", func(d DirWay, l *Line) { l.State, d.Owner = StateLMInv, -1 }},
	} {
		f := newLLCFixture(t, config.NoPrefetch())
		f.fill(2)
		f.deliver(&coherence.Msg{Type: coherence.GetM, Addr: lineB, Requester: 2}, 2)
		line := f.llc.Line(lineB)
		if line == nil || line.State != StateLM || f.llc.Dir(line).Owner != 2 {
			t.Fatalf("%s: setup did not leave the line owned by tile 2", tc.name)
		}
		if err := f.llc.Audit(); err != nil {
			t.Fatalf("%s: audit dirty before the corruption: %v", tc.name, err)
		}
		tc.corrupt(f.llc.Dir(line), line)
		if err := f.llc.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit says %v, want %q", tc.name, err, tc.want)
		}
		if err := f.roundTrip(); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore says %v, want a corrupt snapshot naming %q", tc.name, err, tc.want)
		}
	}
}

// TestLLCPushShapes pins the packets each push shape puts on the network: the
// requester each copy carries, which tiles receive a copy, how many packets
// the slice injects for them, and the PushAck acknowledgments the line then
// waits for in LP.
func TestLLCPushShapes(t *testing.T) {
	withPredict := func(sch config.Scheme) config.Scheme {
		sch.Name += "+Predict"
		sch.PredictPush = true
		return sch
	}
	set := func(ids ...noc.NodeID) (s noc.DestSet) {
		for _, id := range ids {
			s = s.Add(id)
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		sch    config.Scheme
		drive  func(f *llcFixture)
		pushes noc.DestSet // tiles a PushData reaches
		req    noc.NodeID  // the requester every PushData carries
		dataS  noc.DestSet // tiles a DataS reaches alongside the push
		inject uint64      // PushData packets the slice injects
		lp     bool        // the line waits in LP
		acks   noc.DestSet // the PushAcks it waits for
	}{
		{"OrdPush re-reference", config.OrdPush(), reReference, set(2, 5, 7), 2, set(), 1, false, set()},
		{"MSP re-reference", config.MSP(), reReference, set(5, 7), -1, set(2), 2, true, set(5, 7)},
		{"PushAck+Predict fill", withPredict(config.PushAck()), predictedFill, set(3, 4, 6), -1, set(2), 1, true, set(3, 4, 6)},
		{"MSP+Predict fill", withPredict(config.MSP()), predictedFill, set(3, 4, 6), -1, set(2), 1, true, set(3, 4, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newLLCFixture(t, tc.sch)
			tc.drive(f)
			var pushes, dataS noc.DestSet
			for i, p := range f.sent {
				switch m := coherence.From(p); m.Type {
				case coherence.PushData:
					if m.Requester != tc.req {
						t.Errorf("PushData to %d carries requester %d, want %d", f.sentTo[i], m.Requester, tc.req)
					}
					pushes = pushes.Add(f.sentTo[i])
				case coherence.DataS:
					dataS = dataS.Add(f.sentTo[i])
				}
			}
			if pushes != tc.pushes || dataS != tc.dataS {
				t.Errorf("PushData reached %v and DataS %v, want %v and %v", pushes, dataS, tc.pushes, tc.dataS)
			}
			if n := f.st.Net.InjectedPackets[stats.UnitLLC][stats.ClassPushData]; n != tc.inject {
				t.Errorf("slice injected %d PushData packets, want %d", n, tc.inject)
			}
			st, _ := f.lineState(lineB)
			if (st == StateLP) != tc.lp {
				t.Fatalf("line in %v, want LP %v", st, tc.lp)
			}
			if tc.lp {
				if got := f.llc.txn(lineB).pending; got != tc.acks {
					t.Errorf("LP waits for PushAcks from %v, want %v", got, tc.acks)
				}
			}
		})
	}
}

// reReference makes 2, 5 and 7 sharers of lineB, then has 2 read it again
// past the recent-push window: the re-reference triggers a push. Only the
// messages from the re-reference on stay in f.sent.
func reReference(f *llcFixture) {
	f.fill(2)
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 5, NeedPush: true}, 5)
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 7, NeedPush: true}, 7)
	f.step(300)
	f.sent, f.sentTo = nil, nil
	f.st.Net.InjectedPackets = [stats.NumUnits][stats.NumClasses]uint64{}
	f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: 2, NeedPush: true}, 2)
	f.step(120)
}

// predictedFill has the predictor remember 3, 4 and 6 as lineB's sharers,
// then fills the line for reader 2: the fill pushes to the three.
func predictedFill(f *llcFixture) {
	f.llc.pred.remember(lineB, noc.OneDest(3).Add(4).Add(6))
	f.fill(2)
	f.step(120)
}

// TestSharerGapPairsDistinctPast64Tiles: reads of one line by tiles 0, 64, 1
// and 0 are three ordered sharer pairs, each with its own reservoir. A key of
// prev*64+next would give 0-64 and 1-0 the same key, 64.
func TestSharerGapPairsDistinctPast64Tiles(t *testing.T) {
	cfg := config.Default256().Scaled(16).WithScheme(config.NoPrefetch())
	cfg.TraceSharerGaps = true
	f := newLLCFixtureFor(t, cfg)
	f.fill(0)
	for _, r := range []noc.NodeID{0, 64, 1, 0} {
		f.deliver(&coherence.Msg{Type: coherence.GetS, Addr: lineB, Requester: r}, r)
	}
	want := map[int]bool{0*noc.MaxNodes + 64: true, 64*noc.MaxNodes + 1: true, 1*noc.MaxNodes + 0: true}
	if len(f.st.SharerGaps) != len(want) {
		t.Fatalf("%d sharer pairs traced, want %d", len(f.st.SharerGaps), len(want))
	}
	for k := range f.st.SharerGaps {
		if !want[k] {
			t.Errorf("unexpected sharer pair %d-%d", k/noc.MaxNodes, k%noc.MaxNodes)
		}
	}
}
