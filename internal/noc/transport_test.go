package noc

import (
	"fmt"
	"slices"
	"testing"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/stats"
)

// bareTransportNI builds the minimal NI the transport-layer state machines
// need: a 4x4 mesh's anti-replay streams and tx windows, no engine or
// routers.
func bareTransportNI() *NI {
	ni := &NI{net: &Network{cfg: DefaultConfig(4, 4)}}
	ni.initTransport()
	return ni
}

// TestRxSeenProperty replays pseudo-random delivery sequences against a
// reference model that remembers every sequence number exactly, with the
// counter started just below 2^32 so the run crosses it (where a 32-bit
// number would wrap). A redelivery lags the newest delivery by less than the
// 64-bit mask horizon (the bounded retransmit window guarantees it); a fresh
// number may lead it by a long way, as when a receiver's stream skips every
// number its sender spent on other destinations — at the end by 2^31+1,
// which a distance taken modulo 2^32 reads as an ancient replay. The
// contract: the anti-replay window dedups exactly — no fresh packet
// suppressed, no duplicate admitted.
func TestRxSeenProperty(t *testing.T) {
	const (
		steps   = 30000
		maxBack = 40   // redelivery lag kept below the 64-entry mask horizon
		maxFwd  = 8    // bounded reorder ahead of the newest delivery
		maxSkip = 1000 // numbers the sender spent elsewhere (504 measured)
	)
	ni := bareTransportNI()
	pkt := &Packet{Src: 3, VNet: VNetData}
	top := uint64(1<<32 - 500)         // reference: newest delivery
	seen := map[uint64]bool{top: true} // reference: seq -> delivered
	pkt.Seq = top
	ni.rxSeen(pkt)
	rng := uint64(0x1234567)
	for i := 0; i <= steps; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		s := top - maxBack + (rng>>33)%(maxBack+1+maxFwd)
		if rng>>60 == 0 { // one step in sixteen jumps over a skipped run
			s = top + 1 + (rng>>33)%maxSkip
		}
		if i == steps { // the last jumps over 2^31 numbers spent elsewhere
			s = top + 1<<31 + 1
		}
		pkt.Seq = s
		want := seen[s]
		if peek := ni.rxSeenPeek(pkt); peek != want {
			t.Fatalf("step %d: rxSeenPeek(%#x)=%v, reference %v", i, s, peek, want)
		}
		if got := ni.rxSeen(pkt); got != want {
			t.Fatalf("step %d: rxSeen(%#x)=%v, reference %v", i, s, got, want)
		}
		seen[s] = true
		top = max(top, s)
	}
	if top < 1<<32+1<<31 {
		t.Fatalf("newest delivery %#x never crossed 2^32 and then jumped 2^31", top)
	}
	for _, s := range []uint64{top, top - 1<<31 - 1} { // the top, and the one before the jump
		if pkt.Seq = s; !ni.rxSeen(pkt) {
			t.Fatalf("a replay of %#x was admitted", s)
		}
	}
}

// TestConsumeAckCumulative checks that one cumulative ack retires exactly
// the window entries the receiver's (top, mask) snapshot covers: seqs at or
// behind top with their mask bit set, and nothing ahead of top.
func TestConsumeAckCumulative(t *testing.T) {
	ni := bareTransportNI()
	const dest = NodeID(5)
	w := &ni.tp.tx[VNetData]
	for seq := uint64(10); seq < 16; seq++ {
		w.entries = append(w.entries, txEntry{proto: Packet{Seq: seq}, pending: OneDest(dest)})
	}
	// Receiver saw 10, 11, 13 (top=13, mask bits 0,2,3); 12 was lost, 14 and
	// 15 have not arrived.
	ack := &Packet{
		IsAck: true, AckVNet: int8(VNetData), Src: dest,
		Seq: 13, AckMask: 1 | 1<<2 | 1<<3,
	}
	ni.consumeAck(ack, 0)
	// The done prefix (10, 11) is popped; 12 must survive at the front.
	if len(w.entries) != 4 {
		t.Fatalf("window has %d entries after ack, want 4 (12..15)", len(w.entries))
	}
	for i, want := range []struct {
		seq  uint64
		done bool
	}{{12, false}, {13, true}, {14, false}, {15, false}} {
		e := &w.entries[i]
		if e.done != want.done || !e.done && e.proto.Seq != want.seq {
			t.Errorf("entry %d: seq=%d done=%v, want seq=%d done=%v", i, e.proto.Seq, e.done, want.seq, want.done)
		}
	}
	// The retransmission of 12 arrives; the re-ack covers everything.
	ack.Seq, ack.AckMask = 13, 1|1<<1|1<<2|1<<3
	ni.consumeAck(ack, 0)
	if len(w.entries) != 2 || w.entries[0].proto.Seq != 14 {
		t.Fatalf("window after healing ack: %d entries, front seq %d; want 2 entries from 14", len(w.entries), w.entries[0].proto.Seq)
	}
}

// TestConsumeAckWraparound drives the cumulative coverage check across 2^32,
// where a 32-bit counter would wrap: an ack whose top sits at 2^32 must cover
// entries from just before it, and must not touch entries ahead of it.
func TestConsumeAckWraparound(t *testing.T) {
	ni := bareTransportNI()
	const dest = NodeID(2)
	w := &ni.tp.tx[VNetReq]
	for seq := uint64(1<<32 - 3); seq <= 1<<32+2; seq++ {
		w.entries = append(w.entries, txEntry{proto: Packet{Seq: seq}, pending: OneDest(dest)})
	}
	// Receiver saw 2^32-3, 2^32-1 and 2^32 (top=2^32): mask bits 3, 1, 0.
	ack := &Packet{
		IsAck: true, AckVNet: int8(VNetReq), Src: dest,
		Seq: 1 << 32, AckMask: 1 | 1<<1 | 1<<3,
	}
	ni.consumeAck(ack, 0)
	var got []uint64
	for i := range w.entries {
		if !w.entries[i].done {
			got = append(got, w.entries[i].proto.Seq)
		}
	}
	want := []uint64{1<<32 - 2, 1<<32 + 1, 1<<32 + 2}
	if len(got) != len(want) {
		t.Fatalf("surviving entries %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("surviving entries %v, want %v", got, want)
		}
	}
}

// TestSendAckCoalesces checks the congestive-collapse guard: any number of
// deliveries from the same (source, vnet) stream leaves exactly one due ack,
// and distinct streams queue independently in arrival order.
func TestSendAckCoalesces(t *testing.T) {
	ni := bareTransportNI()
	a := &Packet{Src: 1, VNet: VNetData, DstUnit: stats.UnitL2}
	b := &Packet{Src: 1, VNet: VNetReq, DstUnit: stats.UnitL2}
	c := &Packet{Src: 7, VNet: VNetData, DstUnit: stats.UnitL2}
	for i := 0; i < 5; i++ {
		ni.sendAck(a, sim.Cycle(i))
	}
	ni.sendAck(b, 5)
	ni.sendAck(c, 6)
	ni.sendAck(a, 7)
	if len(ni.tp.ackDue) != 3 {
		t.Fatalf("ackDue has %d streams, want 3 (coalesced)", len(ni.tp.ackDue))
	}
	wantKeys := []uint32{
		1*NumVNets + uint32(VNetData),
		1*NumVNets + uint32(VNetReq),
		7*NumVNets + uint32(VNetData),
	}
	for i, k := range wantKeys {
		if ni.tp.ackDue[i] != k {
			t.Fatalf("ackDue[%d]=%#x, want %#x", i, ni.tp.ackDue[i], k)
		}
	}
}

// lossyHook is a FaultHook that leaves timing alone and decides loss as a
// pure function of (node, cycle, packet ID): rate per mille of arrivals are
// dropped and as many again duplicated.
type lossyHook struct{ rate uint64 }

func (lossyHook) RouterFrozen(NodeID, sim.Cycle) bool        { return false }
func (lossyHook) FrozenIn(NodeID, sim.Cycle, sim.Cycle) bool { return false }
func (lossyHook) LinkBlocked(NodeID, int, sim.Cycle) bool    { return false }
func (lossyHook) Arrival(_ NodeID, _ int, _, base sim.Cycle, _ uint64, _ int) sim.Cycle {
	return base
}
func (lossyHook) InjQueueCap(_ NodeID, depth int) int      { return depth }
func (lossyHook) SuppressFilterHit(NodeID, sim.Cycle) bool { return false }
func (lossyHook) LossyEnabled() bool                       { return true }
func (h lossyHook) LossyVerdict(node NodeID, now sim.Cycle, id uint64) LossVerdict {
	x := (id ^ uint64(node)<<48 ^ uint64(now)<<24) * 0x9E3779B97F4A7C15
	switch r := (x >> 32) % 1000; {
	case r < h.rate:
		return LossDrop
	case r < 2*h.rate:
		return LossDup
	}
	return LossNone
}

// TestSeqWraparound runs lossy unicast traffic across the whole mesh with
// every sender's counters started just below 2^32, so each stream crosses it
// (where a 32-bit counter would wrap) mid-run while drops force
// retransmissions and duplicates force dedup on both sides. Senders pick
// destinations at random, so every receiver's stream also skips the numbers
// spent elsewhere. Every packet must reach its destination exactly once, and
// every window must drain.
func TestSeqWraparound(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	eng, net, cols := testNet(t, cfg)
	net.SetFaults(lossyHook{rate: 50})
	const start = 1<<32 - 20
	for _, ni := range net.nis {
		for v := range ni.tp.tx {
			ni.tp.tx[v].nextSeq = start
		}
	}
	const perSrc = 120
	sent := make([]int, cfg.Nodes())
	total := 0
	rng := uint64(99)
	for total < perSrc*cfg.Nodes() {
		for src := range sent {
			if sent[src] == perSrc {
				continue
			}
			rng = rng*6364136223846793005 + 1442695040888963407
			vnet, size := VNetReq, 1
			if rng>>63 == 1 {
				vnet, size = VNetData, cfg.DataPacketSize()
			}
			pkt := &Packet{VNet: vnet, SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
				Dests: OneDest(NodeID((rng >> 20) % uint64(cfg.Nodes()))),
				Addr:  uint64(src)<<32 | uint64(sent[src]), Size: size}
			if net.NI(NodeID(src)).Inject(pkt, eng.Now()) {
				sent[src]++
				total++
			}
		}
		eng.Step()
		if err := net.Unrecoverable(); err != nil {
			t.Fatal(err)
		}
	}
	drained := func() bool {
		for _, ni := range net.nis {
			for v := range ni.tp.tx {
				if len(ni.tp.tx[v].entries) != 0 {
					return false
				}
			}
		}
		return true
	}
	runUntil(t, eng, func() bool {
		got := 0
		for _, c := range cols {
			got += len(c.got)
		}
		return got >= total && drained()
	})
	seen := make(map[uint64]int)
	for dst, c := range cols {
		for _, r := range c.got {
			if !r.pkt.Dests.Has(NodeID(dst)) {
				t.Fatalf("packet %#x delivered to %d, not a destination", r.pkt.Addr, dst)
			}
			seen[r.pkt.Addr]++
		}
	}
	for addr, n := range seen {
		if n != 1 {
			t.Errorf("packet %#x delivered %d times", addr, n)
		}
	}
	if len(seen) != total {
		t.Errorf("%d distinct packets delivered, %d injected", len(seen), total)
	}
	for _, ni := range net.nis {
		for _, v := range []int{VNetReq, VNetData} {
			if n := ni.tp.tx[v].nextSeq; n <= 1<<32 {
				t.Errorf("node %d vnet %d counter at %#x never crossed 2^32", ni.node, v, n)
			}
		}
	}
	if net.st.Net.Retransmits == 0 || net.st.Net.DupSuppressed == 0 {
		t.Errorf("retransmits %d, duplicates suppressed %d: the loss never bit",
			net.st.Net.Retransmits, net.st.Net.DupSuppressed)
	}
}

// dropAtHook is a lossy FaultHook that drops every arrival at one node: what
// is sent there is never acked, and its sender retransmits until it gives up.
type dropAtHook struct {
	lossyHook
	node NodeID
}

func (h dropAtHook) LossyVerdict(node NodeID, _ sim.Cycle, _ uint64) LossVerdict {
	if node == h.node {
		return LossDrop
	}
	return LossNone
}

// retransmitRun steps a mesh whose node 5 drops every arrival from its
// current cycle to end, or until a sender gives up. Node 0 sends to node 6 at
// cycle 0 (acked, so its entry retires while its deadline is the earliest and
// leaves the bound stale low), then, once the windows are empty and the bound
// says so, to node 5 (the send must lower it), and later to node 5 on a
// second vnet. It returns the cycles, from cycle from on, on which node 0
// retransmitted, and the verdict. walkEveryTick zeroes every NI's bound
// before each step, so each tick walks the windows — the reference the bound
// must match.
func retransmitRun(t *testing.T, eng *sim.Engine, net *Network, from, end sim.Cycle, walkEveryTick bool) ([]sim.Cycle, error) {
	t.Helper()
	send := func(now sim.Cycle, dst NodeID, vnet int, addr uint64) {
		pkt := &Packet{VNet: vnet, SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
			Dests: OneDest(dst), Addr: addr, Size: 1}
		if !net.NI(0).Inject(pkt, now) {
			t.Fatalf("cycle %d: injection refused", now)
		}
	}
	var retx []sim.Cycle
	for now := eng.Now(); now < end; now = eng.Now() {
		switch now {
		case 0:
			send(now, 6, VNetReq, 0x1000)
		case 600:
			send(now, 5, VNetReq, 0x2000)
		case 3010:
			send(now, 5, VNetCtrl, 0x3000)
		}
		if walkEveryTick {
			for _, ni := range net.nis {
				ni.tp.retxAt = 0
			}
		}
		before := net.st.Net.Retransmits
		eng.Step()
		if net.st.Net.Retransmits != before && now >= from {
			retx = append(retx, now)
		}
		if err := net.CheckConservation(now); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		if err := net.Unrecoverable(); err != nil {
			return retx, err
		}
		if tp := net.nis[0].tp; !walkEveryTick && tp.retxAt <= now {
			t.Fatalf("cycle %d: retransmit bound %d not past it: the next tick walks the windows again", now, tp.retxAt)
		}
	}
	return retx, nil
}

// TestRetransmitBoundMatchesWalkEveryTick: with the retransmit bound, an
// overdue window entry is re-sent on exactly the cycle it is when the NI
// walks its windows on every tick — cold, and continued from a snapshot taken
// mid-run, whose restored bound is zero — and the sender gives up with the
// same verdict on the same cycle.
func TestRetransmitBoundMatchesWalkEveryTick(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	hook := dropAtHook{node: 5}
	lossyNet := func() (*sim.Engine, *Network) {
		eng, net, _ := testNet(t, cfg)
		net.SetFaults(hook)
		return eng, net
	}
	const pause, end = 2100, 20000
	eng, net := lossyNet()
	want, wantErr := retransmitRun(t, eng, net, 0, end, true)
	if len(want) <= cfg.MaxRetries || wantErr == nil {
		t.Fatalf("the reference retransmitted %d times and ended with %v; the run does not exercise the timers", len(want), wantErr)
	}
	eng, net = lossyNet()
	if got, err := retransmitRun(t, eng, net, 0, end, false); !slices.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("bounded NI retransmitted at %v (%v), walk-every-tick reference at %v (%v)", got, err, want, wantErr)
	}

	eng, net = lossyNet()
	retransmitRun(t, eng, net, 0, pause, false)
	enc := snapshot.NewEncoder("", "", uint64(eng.Now()))
	eng.State(enc)
	net.State(enc)
	dec, err := snapshot.NewDecoder(enc.Finish())
	if err != nil {
		t.Fatal(err)
	}
	eng, net = lossyNet()
	eng.State(dec)
	if net.State(dec); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	if net.nis[0].tp.retxAt != 0 {
		t.Fatalf("restored retransmit bound %d, want 0", net.nis[0].tp.retxAt)
	}
	i, _ := slices.BinarySearch(want, sim.Cycle(pause))
	if got, err := retransmitRun(t, eng, net, pause, end, false); !slices.Equal(got, want[i:]) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("restored NI retransmitted at %v (%v), walk-every-tick reference at %v (%v)", got, err, want[i:], wantErr)
	}
}

// dropFirstHook is a lossy FaultHook that drops one arrival: the packet with
// the given ID at the given node. A retransmission is a new injection with a
// new ID, so it gets through.
type dropFirstHook struct {
	lossyHook
	node NodeID
	id   *uint64
}

func (h dropFirstHook) LossyVerdict(node NodeID, _ sim.Cycle, id uint64) LossVerdict {
	if node == h.node && id == *h.id {
		return LossDrop
	}
	return LossNone
}

// TestInvWaitsForDroppedPush drives the push-before-invalidation rule across
// a loss: tile 0 pushes line A to tile 5, the push's first arrival is
// dropped, and tile 0 then invalidates lines A and B there. The inv for B is
// delivered at once; the inv for A arrives before the push's retransmission
// and must be parked, then handed to the endpoint in the same deliver pass
// as the retransmitted push, after it.
func TestInvWaitsForDroppedPush(t *testing.T) {
	const dst, lineA, lineB = NodeID(5), 0x1000, 0x2000
	cfg := DefaultConfig(4, 4)
	eng, net, cols := testNet(t, cfg)
	var pushID uint64
	net.SetFaults(dropFirstHook{node: dst, id: &pushID})
	send := func(vnet, size int, addr uint64, push bool) uint64 {
		pkt := &Packet{VNet: vnet, SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
			Dests: OneDest(dst), Addr: addr, Size: size, IsPush: push, IsInv: !push}
		if !net.NI(0).Inject(pkt, eng.Now()) {
			t.Fatalf("cycle %d: injection refused", eng.Now())
		}
		return pkt.ID
	}
	// got lists what the endpoint at dst received, by packet ID.
	got := func() []uint64 {
		var ids []uint64
		for _, r := range cols[dst].got {
			ids = append(ids, r.pkt.ID)
		}
		return ids
	}
	pushID = send(VNetData, cfg.DataPacketSize(), lineA, true)
	tp := net.nis[dst].tp
	runUntil(t, eng, func() bool { return len(tp.lost) == 1 })
	if !tp.pushLost(lineA) || tp.pushLost(lineB) {
		t.Fatalf("after the drop, line A held %v, line B held %v", tp.pushLost(lineA), tp.pushLost(lineB))
	}
	invA, invB := send(VNetCtrl, 1, lineA, false), send(VNetCtrl, 1, lineB, false)
	runUntil(t, eng, func() bool { return len(cols[dst].got) == 1 })
	if ids := got(); ids[0] != invB {
		t.Fatalf("first delivery is packet %#x, want the inv for line B (%#x)", ids[0], invB)
	}
	runUntil(t, eng, func() bool { return len(tp.held) == 1 })
	if tp.held[0].ID != invA || net.st.Net.Retransmits != 0 {
		t.Fatalf("held packet %#x after %d retransmissions, want the inv for line A (%#x) parked before the push is re-sent",
			tp.held[0].ID, net.st.Net.Retransmits, invA)
	}
	runUntil(t, eng, func() bool { return len(cols[dst].got) > 1 })
	r := cols[dst].got
	if len(r) != 3 || !r[1].pkt.IsPush || r[1].pkt.Addr != lineA || r[2].pkt.ID != invA {
		t.Fatalf("deliveries %#x; want the inv for line B, the push for line A, then the inv for it (%#x)", got(), invA)
	}
	if r[2].at != r[1].at {
		t.Fatalf("push delivered at cycle %d, parked inv at %d: the release waited", r[1].at, r[2].at)
	}
	if len(tp.held) != 0 || len(tp.lost) != 0 || net.st.Net.Retransmits != 1 {
		t.Fatalf("after the release: %d held, %d lost records, %d retransmissions; want 0, 0, 1", len(tp.held), len(tp.lost), net.st.Net.Retransmits)
	}
}
