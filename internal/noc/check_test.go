package noc

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// TestCheckConservationCleanAfterTraffic routes unicast, multicast, and
// filtered traffic through a mesh and asserts the conservation audit finds
// nothing once the network quiesces: every credit returned, every occ-list
// entry released, every filter count back to a consistent state.
func TestCheckConservationCleanAfterTraffic(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.FilterEnabled = true
	eng, net, cols := testNet(t, cfg)
	var dests DestSet
	for _, d := range []NodeID{0, 3, 7, 9, 12, 15} {
		dests = dests.Add(d)
	}
	push := &Packet{
		VNet: VNetData, Class: stats.ClassPushData,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: dests, Addr: 0x1000, Size: cfg.DataPacketSize(), IsPush: true,
	}
	net.NI(5).Inject(push, eng.Now())
	uni := &Packet{
		VNet: VNetReq, Class: stats.ClassReadRequest,
		SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
		Dests: OneDest(15), Addr: 0x40, Size: 1, Requester: 0,
	}
	net.NI(0).Inject(uni, eng.Now())
	runUntil(t, eng, func() bool {
		return len(cols[15].got) >= 1 && net.Quiescent()
	})
	if err := net.CheckConservation(eng.Now()); err != nil {
		t.Fatalf("conservation audit failed on a clean network: %v", err)
	}
}

// TestCheckConservationDetectsLeakedCredit corrupts credit bookkeeping —
// the exact drifts a buggy release or accept path would produce — and
// requires the audit to report them. The free-count drift trips the
// neighbour's link-conservation audit (which runs over every link) before
// the per-router free-count audit reaches the corrupted router, so both
// messages are accepted for it; the upstream credit drift has exactly one
// detector.
func TestCheckConservationDetectsLeakedCredit(t *testing.T) {
	t.Run("free-count drift", func(t *testing.T) {
		cfg := DefaultConfig(4, 4)
		_, net, _ := testNet(t, cfg)
		r := net.routers[5]
		r.freeVCs[PortNorth] &^= r.vnetVCs[VNetData] & -r.vnetVCs[VNetData]
		err := net.CheckConservation(0)
		if err == nil {
			t.Fatal("leaked VC credit not detected")
		}
		if !strings.Contains(err.Error(), "credit leak") && !strings.Contains(err.Error(), "credit conservation") {
			t.Fatalf("wrong diagnosis for a leaked credit: %v", err)
		}
	})
	t.Run("upstream credit drift", func(t *testing.T) {
		cfg := DefaultConfig(4, 4)
		_, net, _ := testNet(t, cfg)
		net.routers[5].credits[PortNorth][VNetData]--
		err := net.CheckConservation(0)
		if err == nil {
			t.Fatal("drifted upstream credit count not detected")
		}
		if !strings.Contains(err.Error(), "credit conservation") {
			t.Fatalf("wrong diagnosis for an upstream credit drift: %v", err)
		}
	})
}

// TestCheckConservationDetectsDerivedStateDrift stops a multicast mid-flight
// and flips, one at a time, each piece of derived hot state the router's
// datapath trusts without looking — the unrouted-head mask, a VC's
// pending-port mask, the queued-ring masks on both ends of a link, the held-
// and wanted-port masks — and requires the audit to name it. The audit must
// be clean before every flip, so a pass here cannot come from an already-dirty
// network.
func TestCheckConservationDetectsDerivedStateDrift(t *testing.T) {
	for _, tc := range []struct {
		name string
		// ready reports that the router's state lets corrupt bite.
		ready   func(r *Router) bool
		corrupt func(r *Router)
		want    string
	}{
		{"unrouted mask", func(r *Router) bool { return r.unrouted != 0 },
			func(r *Router) { r.unrouted = 0 }, "unrouted mask"},
		// Away from the source a multicast never leaves through every port.
		{"pending mask", func(r *Router) bool { return r.id != 5 && len(r.occ) > 0 && r.occ[0].routed },
			func(r *Router) { r.occ[0].pending = 1<<NumPorts - 1 }, "pending mask"},
		{"input-port mask", func(r *Router) bool { return len(r.occ) > 0 },
			func(r *Router) { r.portOcc[r.occ[0].port] = 0 }, "portOcc"},
		{"arrival ring mask", func(r *Router) bool { return r.arrQueued != 0 },
			func(r *Router) { r.arrQueued = 0 }, "queued-ring masks"},
		{"credit ring mask", func(r *Router) bool { return r.credQueued != 0 },
			func(r *Router) { r.credQueued = 0 }, "queued-ring masks"},
		{"spurious ring mask", func(r *Router) bool { return r.arrQueued == 0 },
			func(r *Router) { r.arrQueued = 1 << PortSouth }, "queued-ring masks"},
		// A lost held bit double-books a port; a lost wanted bit starves one.
		{"held input mask", func(r *Router) bool { return r.heldIn != 0 },
			func(r *Router) { r.heldIn &= r.heldIn - 1 }, "heldIn mask"},
		{"held output mask", func(r *Router) bool { return r.heldOut != 0 },
			func(r *Router) { r.heldOut &= r.heldOut - 1 }, "heldOut mask"},
		{"wanted output mask", func(r *Router) bool { return r.wantOut != 0 },
			func(r *Router) { r.wantOut &= r.wantOut - 1 }, "wantOut mask"},
		// A lost candidate bit strands a replica; a lost free bit leaks a VC.
		// (A neighbour audited earlier reads freeVCs through its link's credit
		// conservation and reports that instead, so the victim is router 0.)
		{"candidate mask", func(r *Router) bool { return r.wantOut != 0 },
			func(r *Router) { r.candMask[bits.TrailingZeros8(r.wantOut)] = 0 }, "candMask"},
		{"free-VC mask", func(r *Router) bool { return r.id == 0 },
			func(r *Router) { r.freeVCs[PortEast] &= r.freeVCs[PortEast] - 1 }, "freeVCs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4, 4)
			eng, net, _ := testNet(t, cfg)
			var dests DestSet
			for d := NodeID(0); d < 16; d++ {
				dests = dests.Add(d)
			}
			net.NI(5).Inject(&Packet{
				VNet: VNetData, Class: stats.ClassPushData, SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
				Dests: dests, Addr: 0x1000, Size: cfg.DataPacketSize(), IsPush: true,
			}, eng.Now())
			var victim *Router
			for victim == nil {
				if net.Quiescent() && eng.Now() > 4 {
					t.Fatal("the multicast drained without ever reaching the state to corrupt")
				}
				eng.Step()
				if err := net.CheckConservation(eng.Now() - 1); err != nil {
					t.Fatalf("audit dirty before the corruption: %v", err)
				}
				for _, r := range net.routers {
					if tc.ready(r) {
						victim = r
						break
					}
				}
			}
			tc.corrupt(victim)
			err := net.CheckConservation(eng.Now() - 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corrupted %s at router %d: audit says %v, want a %q violation", tc.name, victim.id, err, tc.want)
			}
		})
	}
}

// TestNIAuditDetectsTransportDrift builds a lossy mesh where node 0's request
// window holds two unacked entries to node 5 (which drops every arrival)
// around an acked one to node 6, then breaks, one at a time, what the NI's
// audit holds the transport to — the window's size and numbering, the
// retransmit bound, and the due bits against the due-ack list — and requires
// the audit to name it.
func TestNIAuditDetectsTransportDrift(t *testing.T) {
	for _, tc := range []struct {
		name string
		// corrupt gets node 0's transport, the sender, and node 6's, whose
		// stream 0 (node 0's requests) has accepted one packet.
		corrupt func(src, dst *niTransport)
		want    string
	}{
		{"window past RetryWindow", func(src, _ *niTransport) {
			w := &src.tx[VNetReq]
			for len(w.entries) <= DefaultConfig(4, 4).RetryWindow {
				w.entries = append([]txEntry{{done: true}}, w.entries...)
			}
		}, "RetryWindow"},
		{"entry out of sequence", func(src, _ *niTransport) { src.tx[VNetReq].entries[2].proto.Seq++ }, "window entry 2 is seq"},
		{"next number past the window", func(src, _ *niTransport) { src.tx[VNetReq].nextSeq++ }, "window entry 0 is seq"},
		{"retransmit bound past a deadline", func(src, _ *niTransport) { src.retxAt = sim.NeverWake }, "retransmit bound"},
		{"due bit not listed", func(_, dst *niTransport) { dst.rx[0].due = true }, "streams are due"},
		{"listed stream not due", func(_, dst *niTransport) { dst.ackDue = append(dst.ackDue, 0) }, "ackDue lists"},
		{"due stream that has seen nothing", func(_, dst *niTransport) {
			dst.rx[4].due, dst.ackDue = true, append(dst.ackDue, 4)
		}, "has seen nothing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, net, _ := testNet(t, DefaultConfig(4, 4))
			net.SetFaults(dropAtHook{node: 5})
			for i, dst := range []NodeID{5, 6, 5} {
				pkt := &Packet{VNet: VNetReq, SrcUnit: stats.UnitL2, DstUnit: stats.UnitLLC,
					Dests: OneDest(dst), Addr: uint64(i+1) << 6, Size: 1}
				if !net.NI(0).Inject(pkt, eng.Now()) {
					t.Fatal("injection refused")
				}
				eng.Step()
			}
			for eng.Now() < 100 {
				eng.Step()
			}
			src, dst := net.nis[0].tp, net.nis[6].tp
			if w := src.tx[VNetReq].entries; len(w) != 3 || w[0].done || !w[1].done || w[2].done || dst.rx[0].mask == 0 {
				t.Fatalf("window %+v, node 6's stream from node 0 has mask %#x: the setup did not take", w, dst.rx[0].mask)
			}
			if err := net.CheckConservation(eng.Now() - 1); err != nil {
				t.Fatalf("audit dirty before the corruption: %v", err)
			}
			tc.corrupt(src, dst)
			if err := net.CheckConservation(eng.Now() - 1); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit says %v, want a %q violation", err, tc.want)
			}
		})
	}
}

// TestCheckConservationDetectsFilterCountDrift corrupts a filter bank's
// O(1) liveness accounting, which would make dead() lie to every lookup, and
// requires the audit to name the drifted field. aliveUntil is an upper bound:
// slack above the last pending clear is legal, a bound below it is not.
func TestCheckConservationDetectsFilterCountDrift(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(fb *filterBank)
		want    string
	}{
		// The counter claims one more live entry than exists.
		{"activeCnt", func(fb *filterBank) { fb.activeCnt[PortEast]++ }, "activeCnt"},
		{"aliveUntil too low", func(fb *filterBank) { fb.aliveUntil[PortEast] = 19 }, "aliveUntil"},
		{"aliveUntil slack", func(fb *filterBank) { fb.aliveUntil[PortEast] = 500 }, ""},
	} {
		cfg := DefaultConfig(4, 4)
		cfg.FilterEnabled = true
		_, net, _ := testNet(t, cfg)
		fb := net.routers[3].filters
		fb.register(PortEast, PortWest, 0, 0x1000, OneDest(2))
		fb.register(PortEast, PortWest, 1, 0x2000, OneDest(2))
		fb.scheduleClear(PortEast, PortWest, 1, 20)
		if err := net.CheckConservation(0); err != nil {
			t.Fatalf("%s: audit dirty before the corruption: %v", tc.name, err)
		}
		tc.corrupt(fb)
		switch err := net.CheckConservation(0); {
		case tc.want == "" && err != nil:
			t.Errorf("%s: audit rejects legal state: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: audit says %v, want a %q violation", tc.name, err, tc.want)
		}
	}
}

// TestFilterStaleClearBookkeeping is the regression test for the lazy
// de-registration audit: a clear has no identity of its own, so a
// register → scheduleClear → register → scheduleClear sequence must leave
// the entry governed by the *latest* clear only, with the liveness
// counters consistent at every step.
func TestFilterStaleClearBookkeeping(t *testing.T) {
	fb := newFilterBank(4)
	assertActive := func(want int, when string) {
		t.Helper()
		if fb.activeCnt[PortNorth] != want {
			t.Fatalf("%s: activeCnt=%d, want %d", when, fb.activeCnt[PortNorth], want)
		}
	}
	fb.register(PortNorth, PortSouth, 0, 0xbeef00, OneDest(3))
	assertActive(1, "after first register")
	fb.scheduleClear(PortNorth, PortSouth, 0, 20)
	assertActive(0, "after first clear scheduled")
	// Re-registration before the clear matures resurrects the slot.
	fb.register(PortNorth, PortSouth, 0, 0xaaaa00, OneDest(5))
	assertActive(1, "after re-registration")
	// The stale clear time (20) must not apply to the fresh entry.
	if !fb.lookup(PortNorth, 0xaaaa00, 5, 25) {
		t.Fatal("fresh entry killed by the stale scheduled clear")
	}
	fb.scheduleClear(PortNorth, PortSouth, 0, 40)
	assertActive(0, "after second clear scheduled")
	if !fb.lookup(PortNorth, 0xaaaa00, 5, 39) {
		t.Fatal("entry dead before its own clear time")
	}
	if fb.lookup(PortNorth, 0xaaaa00, 5, 40) {
		t.Fatal("entry alive at its clear time")
	}
	// Double-clear on the same slot must not decrement activeCnt twice.
	fb.scheduleClear(PortNorth, PortSouth, 0, 45)
	assertActive(0, "after redundant clear")
	if fb.activeCnt[PortNorth] < 0 {
		t.Fatal("activeCnt went negative on redundant clear")
	}
}

// TestFilterBookkeepingFuzz drives the filter bank with a random
// register/clear/advance sequence and, after every operation, audits the
// O(1) liveness accounting against a full scan and cross-checks lookup and
// hasAddr against brute-force reference scans. This is the model-based
// audit of the live()/scheduleClear() interaction: any divergence between
// the fast path (dead()) and ground truth surfaces as a wrong
// lookup/hasAddr answer.
func TestFilterBookkeepingFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const dataVCs = 2
	fb := newFilterBank(dataVCs)
	addrs := []uint64{0x40, 0x80, 0xc0, 0x100}
	now := sim.Cycle(0)
	perPort := NumPorts * dataVCs

	refLive := func(p int, f func(e *filterEntry) bool) bool {
		for k := 0; k < perPort; k++ {
			e := &fb.entries[p*perPort+k]
			if e.live(now) && f(e) {
				return true
			}
		}
		return false
	}

	for i := 0; i < 20000; i++ {
		now += sim.Cycle(rng.Intn(3))
		outP, inP, vc := rng.Intn(NumPorts), rng.Intn(NumPorts), rng.Intn(dataVCs)
		switch rng.Intn(3) {
		case 0:
			fb.register(outP, inP, vc, addrs[rng.Intn(len(addrs))], DestSetFromWord(rng.Uint64()&0xffff))
		case 1:
			fb.scheduleClear(outP, inP, vc, now+sim.Cycle(rng.Intn(5)))
		}

		// Counter audit: activeCnt is exactly the valid-without-pending-clear
		// population; aliveUntil bounds every pending clear.
		for p := 0; p < NumPorts; p++ {
			active := 0
			for k := 0; k < perPort; k++ {
				e := &fb.entries[p*perPort+k]
				if e.valid && !e.clearPending {
					active++
				}
				if e.valid && e.clearPending && e.clearAt > fb.aliveUntil[p] {
					t.Fatalf("op %d: pending clear at %d beyond aliveUntil[%s]=%d",
						i, e.clearAt, PortName(p), fb.aliveUntil[p])
				}
			}
			if fb.activeCnt[p] != active {
				t.Fatalf("op %d: activeCnt[%s]=%d, scan says %d", i, PortName(p), fb.activeCnt[p], active)
			}
			// dead() must never claim a port dead while an entry is live.
			if fb.dead(p, now) && refLive(p, func(*filterEntry) bool { return true }) {
				t.Fatalf("op %d: dead(%s,%d) true with a live entry", i, PortName(p), now)
			}
		}

		// Lookup / hasAddr against the reference scans.
		addr := addrs[rng.Intn(len(addrs))]
		req := NodeID(rng.Intn(16))
		p := rng.Intn(NumPorts)
		wantLookup := refLive(p, func(e *filterEntry) bool { return e.addr == addr && e.dests.Has(req) })
		if got := fb.lookup(p, addr, req, now); got != wantLookup {
			t.Fatalf("op %d: lookup(%s,%#x,%d,%d)=%v, reference says %v", i, PortName(p), addr, req, now, got, wantLookup)
		}
		wantHas := refLive(p, func(e *filterEntry) bool { return e.addr == addr })
		if got := fb.hasAddr(p, addr, now); got != wantHas {
			t.Fatalf("op %d: hasAddr(%s,%#x,%d)=%v, reference says %v", i, PortName(p), addr, now, got, wantHas)
		}
	}
}

// pushInFlightEverywhere is PushInFlight over every NI queue, delivery link
// and retransmit window and every router stream, arrival ring and input VC,
// whatever the derived masks and occupancy list say: the reference the
// mask-guided walk must agree with.
func pushInFlightEverywhere(n *Network, addr uint64, req NodeID) bool {
	covers := func(p *Packet) bool { return p.IsPush && p.Addr == addr && p.Dests.Has(req) }
	for _, ni := range n.nis {
		if ni.QueuedPushes(addr).Has(req) {
			return true
		}
		for _, d := range ni.delivery {
			if covers(d.pkt) {
				return true
			}
		}
		if tp := ni.tp; tp != nil {
			for v := range tp.tx {
				for i := range tp.tx[v].entries {
					if e := &tp.tx[v].entries[i]; !e.done && e.proto.IsPush && e.proto.Addr == addr && e.pending.Has(req) {
						return true
					}
				}
			}
		}
	}
	for _, r := range n.routers {
		for p := 0; p < NumPorts; p++ {
			if s := r.outStream[p]; s != nil && s.isPush && s.vc.pkt.Addr == addr && r.portDests(s.vc, p).Has(req) {
				return true
			}
			found := false
			r.arrivals[p].forEach(func(pkt *Packet, _ sim.Cycle) { found = found || covers(pkt) })
			if found {
				return true
			}
			for i := range r.in[p] {
				vc := &r.in[p][i]
				if vc.pkt == nil || !vc.pkt.IsPush || vc.pkt.Addr != addr {
					continue
				}
				if !vc.routed && vc.pkt.Dests.Has(req) {
					return true
				}
				for m := vc.pending; vc.routed && m != 0; m &= m - 1 {
					if r.portDests(vc, bits.TrailingZeros8(m)).Has(req) {
						return true
					}
				}
			}
		}
	}
	return false
}

// TestPushInFlightMatchesFullWalk drives random multicast pushes over four
// lines through a 4x4 mesh, with unicast traffic beside them, and at every
// cycle asks PushInFlight about every (line, tile) pair: it must answer as
// the walk of every buffer does.
func TestPushInFlightMatchesFullWalk(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	eng, net, _ := testNet(t, cfg)
	rng := rand.New(rand.NewSource(7))
	covered := 0
	for cycle := 0; cycle < 3000; cycle++ {
		if cycle < 2000 {
			src := NodeID(rng.Intn(cfg.Nodes()))
			if net.NI(src).CanInject(stats.UnitLLC, VNetData) {
				push := rng.Intn(3) > 0
				dests := DestSetFromWord(rng.Uint64() & (1<<16 - 1))
				if !push {
					dests = OneDest(NodeID(rng.Intn(cfg.Nodes())))
				}
				if !dests.Empty() {
					net.NI(src).Inject(&Packet{
						VNet: VNetData, Class: stats.ClassPushData, SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
						Dests: dests, Addr: uint64(rng.Intn(4)) * 64, Size: cfg.DataPacketSize(), IsPush: push,
					}, eng.Now())
				}
			}
		}
		eng.Step()
		for addr := uint64(0); addr < 4*64; addr += 64 {
			for req := NodeID(0); int(req) < cfg.Nodes(); req++ {
				want := pushInFlightEverywhere(net, addr, req)
				if got := net.PushInFlight(addr, req); got != want {
					t.Fatalf("cycle %d: PushInFlight(%#x, %d) = %v, the full walk says %v", eng.Now(), addr, req, got, want)
				}
				if want {
					covered++
				}
			}
		}
	}
	if covered < 1000 {
		t.Fatalf("only %d (line, tile, cycle) triples had a push in flight", covered)
	}
	t.Logf("%d covered triples", covered)
}
