package noc

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/stats"
)

// freezeHook is a FaultHook whose only fault freezes one router's pipeline
// in the cycles [from, to) (a RouterSlow window at full duty).
type freezeHook struct {
	node     NodeID
	from, to sim.Cycle
}

func (h freezeHook) RouterFrozen(n NodeID, now sim.Cycle) bool {
	return n == h.node && now >= h.from && now < h.to
}
func (h freezeHook) FrozenIn(n NodeID, from, to sim.Cycle) bool {
	return n == h.node && from < h.to && to >= h.from
}
func (freezeHook) LinkBlocked(NodeID, int, sim.Cycle) bool { return false }
func (freezeHook) Arrival(_ NodeID, _ int, _, base sim.Cycle, _ uint64, _ int) sim.Cycle {
	return base
}
func (freezeHook) InjQueueCap(_ NodeID, depth int) int                { return depth }
func (freezeHook) SuppressFilterHit(NodeID, sim.Cycle) bool           { return false }
func (freezeHook) LossyEnabled() bool                                 { return false }
func (freezeHook) LossyVerdict(NodeID, sim.Cycle, uint64) LossVerdict { return LossNone }

// kernelNet is one 2x2 mesh on one kernel, with what the lockstep tests
// observe of it.
type kernelNet struct {
	eng  *sim.Engine
	net  *Network
	cols []*collector
	// tailAt is the cycle router 0's stream sent its tail (the first barrier
	// with router 0's outputs free, less one); bankAt the first barrier at
	// which router 0 holds every credit toward router 1 again, less one.
	tailAt, bankAt sim.Cycle
	// slept counts the barriers at which router 0 held a stream whose flits
	// were not counted through the previous cycle: it was asleep mid-stream.
	slept int
	// lazy counts the barriers at which a credit toward router 0 had
	// matured before the previous cycle and was still not banked: router 0
	// slept through it, or was frozen.
	lazy int
	// held is whether router 0 held an output at the previous barrier.
	held bool
}

func newKernelNet(t *testing.T, dense bool, hook FaultHook) *kernelNet {
	t.Helper()
	eng, net, cols := testNet(t, DefaultConfig(2, 2))
	eng.SetDense(dense)
	if hook != nil {
		net.SetFaults(hook)
	}
	return &kernelNet{eng: eng, net: net, cols: cols}
}

// observe records router 0's stream and credit milestones at a barrier, after
// the settle in the runs that settle.
func (k *kernelNet) observe() {
	r, now := k.net.routers[0], k.eng.Now()
	for m := r.heldOut; m != 0; m &= m - 1 {
		if r.streams[bits.TrailingZeros8(m)].last+1 < now {
			k.slept++
			break
		}
	}
	if k.held && r.heldOut == 0 && k.tailAt == 0 {
		k.tailAt = now - 1
	}
	k.held = r.heldOut != 0
	if ring := &k.net.routers[1].credRet[PortWest]; ring.len() != 0 && ring.earliest()+1 < now {
		k.lazy++
	}
	full := true
	for v := range r.credits[PortEast] {
		full = full && r.credits[PortEast][v] == int16(k.net.cfg.VCsPerVNet)
	}
	if k.tailAt != 0 && full && k.bankAt == 0 {
		k.bankAt = now - 1
	}
}

// settledBytes settles the network at the barrier and encodes the engine,
// the stats and the network, as a snapshot does.
func (k *kernelNet) settledBytes() []byte {
	k.net.Settle()
	c := snapshot.NewEncoder("", "", uint64(k.eng.Now()))
	k.eng.State(c)
	k.net.st.State(c)
	k.net.State(c)
	return c.Finish()
}

// sendData injects one data packet (5 flits at the default link width) from
// node 0 to node 1, one hop east.
func sendData(k *kernelNet) {
	pkt := &Packet{
		VNet: VNetData, Class: stats.ClassReadSharedData,
		SrcUnit: stats.UnitLLC, DstUnit: stats.UnitL2,
		Dests: OneDest(1), Addr: 0x80, Size: k.net.cfg.DataPacketSize(),
	}
	k.net.NI(0).Inject(pkt, k.eng.Now())
}

// lockstepNets runs one packet on three meshes a cycle at a time, until it
// is delivered and router 0 has held every credit again for two cycles: w (the wake-driven
// kernel) and d (dense) are settled and compared by State bytes at every
// barrier; u, wake-driven too, is never settled mid-run, so its routers catch
// up only where their own ticks do, and it must end with d's stats.
func lockstepNets(t *testing.T, hook FaultHook) (w, d, u *kernelNet) {
	t.Helper()
	w, d, u = newKernelNet(t, false, hook), newKernelNet(t, true, hook), newKernelNet(t, false, hook)
	all := []*kernelNet{w, d, u}
	for _, k := range all {
		sendData(k)
	}
	for len(u.cols[1].got) == 0 || len(d.cols[1].got) == 0 || w.bankAt == 0 || d.bankAt == 0 || d.eng.Now() < d.bankAt+3 {
		if d.eng.Now() > 200 {
			t.Fatal("packet not delivered and credit not returned within 200 cycles")
		}
		if wb, db := w.settledBytes(), d.settledBytes(); !bytes.Equal(wb, db) {
			t.Fatalf("cycle %d: settled state differs: link flits %v against dense %v, router 0 credits %v against %v",
				w.eng.Now(), w.net.st.Net.LinkFlits, d.net.st.Net.LinkFlits, w.net.routers[0].credits, d.net.routers[0].credits)
		}
		for _, k := range all {
			k.observe()
			k.eng.Step()
		}
	}
	u.net.Settle()
	if fmt.Sprint(u.net.st.Net) != fmt.Sprint(d.net.st.Net) || u.cols[1].got[0].at != d.cols[1].got[0].at {
		t.Fatalf("unsettled wake-driven run delivered at %d with %+v; dense at %d with %+v",
			u.cols[1].got[0].at, u.net.st.Net, d.cols[1].got[0].at, d.net.st.Net)
	}
	return w, d, u
}

// TestRouterSleepsThroughBodyFlits: router 0 streams a 5-flit packet to
// router 1 and, with every occupied VC streaming, sleeps to the tail. Both
// kernels send the tail in the same cycle, count the same flits on every
// link and bank the returned credit in the same cycle.
func TestRouterSleepsThroughBodyFlits(t *testing.T) {
	w, d, u := lockstepNets(t, nil)
	if u.slept == 0 || u.lazy == 0 {
		t.Fatalf("router 0 slept through %d barriers mid-stream and %d past a credit, want both", u.slept, u.lazy)
	}
	if w.tailAt == 0 || w.tailAt != d.tailAt || u.tailAt != d.tailAt {
		t.Fatalf("tail sent at %d (settled), %d (unsettled) and %d (dense)", w.tailAt, u.tailAt, d.tailAt)
	}
	if w.bankAt == 0 || w.bankAt != d.bankAt {
		t.Fatalf("credit banked at %d, dense at %d", w.bankAt, d.bankAt)
	}
	if got := d.net.st.Net.LinkFlits[LinkIndex(0, PortEast)]; got != 5 {
		t.Fatalf("%d flits crossed the link east of router 0, want 5", got)
	}
}

// TestFrozenRouterBanksCreditWhenUnfrozen: router 0 sleeps (its stream is
// done) when router 1 returns the credit, and a RouterSlow window freezes it
// across the credit's maturity. Settled, the wake-driven kernel banks the
// credit at the first unfrozen cycle, where the dense kernel's tick does.
func TestFrozenRouterBanksCreditWhenUnfrozen(t *testing.T) {
	// A hook with an empty window: the same schedule as below (a fault hook
	// keeps routers awake through body flits) with nothing frozen.
	_, dry, _ := lockstepNets(t, freezeHook{node: 3})
	m := dry.bankAt // the credit's maturity when nothing freezes
	w, d, u := lockstepNets(t, freezeHook{node: 0, from: m - 1, to: m + 3})
	if d.bankAt != m+3 || w.bankAt != d.bankAt {
		t.Fatalf("credit maturing at %d under a freeze to %d banked at %d, dense at %d; want %d",
			m, m+3, w.bankAt, d.bankAt, m+3)
	}
	if u.lazy <= d.lazy {
		t.Fatalf("router 0 left a matured credit unbanked at %d barriers, the dense one at %d: it did not sleep through it", u.lazy, d.lazy)
	}
}
