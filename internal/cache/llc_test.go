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
	// sentTo[node] records messages ejected toward each tile's L2.
	sent []*noc.Packet
}

type captureEndpoint struct{ f *llcFixture }

func (c captureEndpoint) Receive(p *noc.Packet, now sim.Cycle) {
	c.f.sent = append(c.f.sent, p)
}

// newLLCFixture puts the slice at tile 0 so lineB (which homes to 0) is
// served locally.
func newLLCFixture(t *testing.T, sch config.Scheme) *llcFixture {
	t.Helper()
	cfg := config.Default16().Scaled(16).WithScheme(sch)
	st := stats.New()
	eng := sim.NewEngine(0, 0)
	net, err := noc.New(cfg.NoC, eng, st)
	if err != nil {
		t.Fatal(err)
	}
	f := &llcFixture{t: t, eng: eng, st: st, cfg: cfg}
	f.llc = NewLLC(0, &cfg, net, eng, st)
	for i := 0; i < cfg.Tiles(); i++ {
		for u := stats.Unit(0); u < stats.NumUnits; u++ {
			if i == 0 && u == stats.UnitLLC {
				continue
			}
			net.Attach(noc.NodeID(i), u, captureEndpoint{f})
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
		st, sh = l.State, f.llc.Dir(l).Sharers
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
	f.llc.ForEachLine(func(l *Line) {
		if l.Tag == lineB {
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
