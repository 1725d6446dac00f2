package noc

import (
	"testing"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// bareTransportNI builds the minimal NI the transport-layer state machines
// need: anti-replay streams and tx windows, no engine or routers.
func bareTransportNI() *NI {
	return &NI{
		tp: &niTransport{
			rx:        make(map[uint32]*rxStream),
			ackDueSet: make(map[uint32]struct{}),
		},
	}
}

// TestRxSeenProperty replays pseudo-random delivery sequences against a
// reference model that remembers every unwrapped sequence number exactly,
// with the counter started just below 2^32 so the run crosses the wrap. A
// redelivery lags the newest delivery by less than the 64-bit mask horizon
// (the bounded retransmit window guarantees it); a fresh number may lead it
// by a long way, as when a receiver's stream skips every number its sender
// spent on other destinations. The contract: the anti-replay window dedups
// exactly — no fresh packet suppressed, no duplicate admitted.
func TestRxSeenProperty(t *testing.T) {
	const (
		steps   = 30000
		maxBack = 40   // redelivery lag kept below the 64-entry mask horizon
		maxFwd  = 8    // bounded reorder ahead of the newest delivery
		maxSkip = 1000 // numbers the sender spent elsewhere (504 measured)
	)
	ni := bareTransportNI()
	pkt := &Packet{Src: 3, VNet: VNetData}
	top := uint64(1<<32 - 500)         // reference: newest unwrapped delivery
	seen := map[uint64]bool{top: true} // reference: unwrapped seq -> delivered
	pkt.Seq = uint32(top)
	ni.rxSeen(pkt)
	rng := uint64(0x1234567)
	for i := 0; i < steps; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		s := top - maxBack + (rng>>33)%(maxBack+1+maxFwd)
		if rng>>60 == 0 { // one step in sixteen jumps over a skipped run
			s = top + 1 + (rng>>33)%maxSkip
		}
		pkt.Seq = uint32(s)
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
	if top < 1<<32 {
		t.Fatalf("newest delivery %#x never crossed the wrap", top)
	}
}

// TestConsumeAckCumulative checks that one cumulative ack retires exactly
// the window entries the receiver's (top, mask) snapshot covers: seqs at or
// behind top with their mask bit set, and nothing ahead of top.
func TestConsumeAckCumulative(t *testing.T) {
	ni := bareTransportNI()
	const dest = NodeID(5)
	w := &ni.tp.tx[VNetData]
	for seq := uint32(10); seq < 16; seq++ {
		w.entries = append(w.entries, txEntry{
			seq: seq, proto: Packet{Seq: seq}, pending: OneDest(dest),
		})
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
		seq  uint32
		done bool
	}{{12, false}, {13, true}, {14, false}, {15, false}} {
		e := &w.entries[i]
		if e.seq != want.seq || e.done != want.done {
			t.Errorf("entry %d: seq=%d done=%v, want seq=%d done=%v", i, e.seq, e.done, want.seq, want.done)
		}
	}
	// The retransmission of 12 arrives; the re-ack covers everything.
	ack.Seq, ack.AckMask = 13, 1|1<<1|1<<2|1<<3
	ni.consumeAck(ack, 0)
	if len(w.entries) != 2 || w.entries[0].seq != 14 {
		t.Fatalf("window after healing ack: %d entries, front seq %d; want 2 entries from 14", len(w.entries), w.entries[0].seq)
	}
}

// TestConsumeAckWraparound drives the cumulative coverage check across the
// 32-bit counter's wrap: an ack whose top sits just past the wrap must cover
// entries from just before it, and must not touch entries logically ahead.
func TestConsumeAckWraparound(t *testing.T) {
	ni := bareTransportNI()
	const dest = NodeID(2)
	w := &ni.tp.tx[VNetReq]
	for _, seq := range []uint32{1<<32 - 3, 1<<32 - 2, 1<<32 - 1, 0, 1, 2} {
		w.entries = append(w.entries, txEntry{
			seq: seq, proto: Packet{Seq: seq}, pending: OneDest(dest),
		})
	}
	// Receiver saw -3, -1, 0 (top=0): mask bit 0 (=0), 1 (=-1), 3 (=-3).
	ack := &Packet{
		IsAck: true, AckVNet: int8(VNetReq), Src: dest,
		Seq: 0, AckMask: 1 | 1<<1 | 1<<3,
	}
	ni.consumeAck(ack, 0)
	var got []uint32
	for i := range w.entries {
		if !w.entries[i].done {
			got = append(got, w.entries[i].seq)
		}
	}
	want := []uint32{1<<32 - 2, 1, 2}
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
		uint32(1)<<2 | uint32(VNetData),
		uint32(1)<<2 | uint32(VNetReq),
		uint32(7)<<2 | uint32(VNetData),
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
// every sender's counters started just below 2^32, so each stream wraps
// mid-run while drops force retransmissions and duplicates force dedup on
// both sides of the wrap. Senders pick destinations at random, so every
// receiver's stream also skips the numbers spent elsewhere. Every packet must
// reach its destination exactly once, and every window must drain.
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
			if n := ni.tp.tx[v].nextSeq; n >= start {
				t.Errorf("node %d vnet %d counter at %#x never wrapped", ni.node, v, n)
			}
		}
	}
	if net.st.Net.Retransmits == 0 || net.st.Net.DupSuppressed == 0 {
		t.Errorf("retransmits %d, duplicates suppressed %d: the loss never bit",
			net.st.Net.Retransmits, net.st.Net.DupSuppressed)
	}
}
