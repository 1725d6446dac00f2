package fault

import (
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// Injector drives a Plan against the network. It registers as the FIRST
// engine component so that a tile it wakes at a window boundary ticks in the
// same cycle (the engine ticks mid-step wakes from earlier-registered
// components), and it implements noc.FaultHook so the NoC's hot paths can
// consult the active schedule with one nil-check when injection is off.
//
// Scheduling: the injector sleeps until the next window boundary (start or
// end) across all faults, so idle fast-forward stays exact. At a window end
// it wakes the target tile — a router whose traffic was blocked by a
// LinkStall may have gone to sleep "blocked on downstream" with no release
// ever coming; the boundary wake restores the dense-mode placement cycle.
// Spurious wakes at window starts are harmless in both kernels.
type Injector struct {
	plan Plan        `snap:"-,config"`
	eng  *sim.Engine `snap:"-,wiring"`
	st   *stats.All  `snap:"-,wiring"`
	h    *sim.Handle `snap:"-,wiring"`
	// next is the earliest upcoming window boundary; ^0 when the schedule is
	// spent. Starting at 0 makes the first tick compute it, and the
	// now>=next guard keeps dense mode's every-cycle ticks equivalent to the
	// sparse kernel's boundary-only ticks.
	next uint64
	// wake wakes a tile (router + NI) at window boundaries; set by the
	// builder after the network exists.
	wake func(node int) `snap:"-,wiring"`

	// index lists the plan's faults by kind and slot, in plan order, so a
	// hook checks only the faults aimed at its target. The slot is
	// node*NumPorts+port for LinkStall and VCJitter (a Port of -1 is listed
	// at every port) and the node for every other kind.
	index [numKinds][][]*Fault `snap:"-,derived: indexed from the plan at build"`
	// lastArr tracks the last granted head-arrival cycle per (node, output
	// port), backing the monotonic clamp that keeps jittered links
	// order-preserving (OrdPush's push-before-invalidation survives).
	lastArr []sim.Cycle
}

// perPort reports whether the kind targets one router output port.
func (k Kind) perPort() bool { return k == LinkStall || k == VCJitter }

// NewInjector builds the injector for a validated plan on a machine with the
// given tile count.
func NewInjector(plan Plan, nodes int, st *stats.All) *Injector {
	in := &Injector{plan: plan, st: st, lastArr: make([]sim.Cycle, nodes*noc.NumPorts)}
	for k := range in.index {
		slots := nodes
		if Kind(k).perPort() {
			slots *= noc.NumPorts
		}
		in.index[k] = make([][]*Fault, slots)
	}
	for i := range plan.Faults {
		f := &plan.Faults[i]
		idx := in.index[f.Kind]
		switch {
		case !f.Kind.perPort():
			idx[f.Node] = append(idx[f.Node], f)
		case f.Port == -1:
			for p := 0; p < noc.NumPorts; p++ {
				k := f.Node*noc.NumPorts + p
				idx[k] = append(idx[k], f)
			}
		default:
			k := f.Node*noc.NumPorts + f.Port
			idx[k] = append(idx[k], f)
		}
	}
	return in
}

// Register adds the injector to the engine's tick list. It must be the first
// registration so boundary wakes take effect in the same cycle.
func (in *Injector) Register(eng *sim.Engine) {
	in.eng = eng
	in.h = eng.Register(in)
}

// SetWaker installs the tile-wake callback (router + NI of a node).
func (in *Injector) SetWaker(wake func(node int)) { in.wake = wake }

// Tick advances the schedule when a window boundary is due and re-sleeps
// until the next one. Dense mode calls it every cycle; the guard makes those
// extra calls no-ops, so both kernels process the identical boundary set.
func (in *Injector) Tick(now sim.Cycle) {
	if uint64(now) >= in.next {
		in.onBoundary(uint64(now))
	}
	if in.next == ^uint64(0) {
		in.h.Sleep()
	} else {
		in.h.SleepUntil(sim.Cycle(in.next))
	}
}

func (in *Injector) onBoundary(c uint64) {
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		starts := f.startsAt(c)
		if starts {
			in.st.Net.FaultWindows++
		}
		// A router that slept "blocked on downstream" during the window
		// needs the end wake: nothing else fires when the fault lifts.
		if (starts || f.endsAt(c)) && in.wake != nil {
			in.wake(f.Node)
		}
	}
	next := ^uint64(0)
	for i := range in.plan.Faults {
		if b, ok := in.plan.Faults[i].nextBoundary(c); ok && b < next {
			next = b
		}
	}
	in.next = next
}

// --- noc.FaultHook ---

// RouterFrozen reports whether a RouterSlow window holds the router's
// pipeline this cycle (the router runs only every Factor-th cycle of the
// window). Pure function of the cycle, so dense and sparse kernels freeze
// the identical cycle set.
func (in *Injector) RouterFrozen(node noc.NodeID, now sim.Cycle) bool {
	for _, f := range in.index[RouterSlow][node] {
		c := uint64(now)
		if !f.activeAt(c) {
			continue
		}
		start := f.From
		if f.Period != 0 {
			start = f.From + (c-f.From)/f.Period*f.Period
		}
		if (c-start)%uint64(f.Factor) != 0 {
			return true
		}
	}
	return false
}

// FrozenIn reports whether any RouterSlow window on the node overlaps
// [from, to]; the conservation checker uses it to excuse unrouted heads a
// frozen router legitimately left overdue.
func (in *Injector) FrozenIn(node noc.NodeID, from, to sim.Cycle) bool {
	for _, f := range in.index[RouterSlow][node] {
		if f.activeWithin(uint64(from), uint64(to)) {
			return true
		}
	}
	return false
}

// LinkBlocked reports whether a LinkStall window blocks new replica
// allocations onto the router's output port this cycle.
func (in *Injector) LinkBlocked(node noc.NodeID, port int, now sim.Cycle) bool {
	for _, f := range in.index[LinkStall][int(node)*noc.NumPorts+port] {
		if f.activeAt(uint64(now)) {
			return true
		}
	}
	return false
}

// Arrival maps a head flit's base arrival cycle on (node, output port) to
// its faulted arrival: active VCJitter windows add a delay derived purely
// from (seed, packet ID, cycle), and the per-port monotonic clamp then keeps
// arrivals in send order, so jitter can slow a link but never reorder it.
// Runs only from the sending router's own tick, once per head flit.
func (in *Injector) Arrival(node noc.NodeID, port int, now, base sim.Cycle, pktID uint64, vnet int) sim.Cycle {
	arr := base
	key := int(node)*noc.NumPorts + port
	for _, f := range in.index[VCJitter][key] {
		if f.activeAt(uint64(now)) && (f.VNet == -1 || f.VNet == vnet) {
			h := splitmix64(in.plan.Seed ^ splitmix64(pktID) ^ uint64(now)*0x9E3779B97F4A7C15)
			d := sim.Cycle(h % uint64(f.MaxJitter+1))
			arr += d
			in.st.Net.FaultJitterDelay += uint64(d)
		}
	}
	if last := in.lastArr[key]; arr <= last {
		arr = last + 1
	}
	in.lastArr[key] = arr
	return arr
}

// InjQueueCap returns the node NI's effective injection-queue depth: the
// configured depth, shrunk to the smallest active InjSpike capacity. It is
// called from endpoint ticks, which the dense kernel runs more often than
// the wake-driven one, so it must stay a pure read — no stats, no clamp
// state.
func (in *Injector) InjQueueCap(node noc.NodeID, depth int) int {
	now := uint64(in.eng.Now())
	for _, f := range in.index[InjSpike][node] {
		if f.activeAt(now) && f.Factor < depth {
			depth = f.Factor
		}
	}
	return depth
}

// LossyEnabled reports whether the plan schedules any lossy kind; the NoC
// arms its recovery layer (sequence numbers, acks, retransmit windows) only
// when it does, keeping fault-free hot paths unchanged.
func (in *Injector) LossyEnabled() bool { return in.plan.Lossy() }

// lossOrder is LossyVerdict's precedence, the more severe verdict first, and
// the hash bits each kind rolls. It is not Kind order (drop, dup, corrupt):
// looping over the kinds in numeric order would change verdicts.
var lossOrder = [...]struct {
	kind    Kind
	shift   uint
	verdict noc.LossVerdict
}{{MsgDrop, 0, noc.LossDrop}, {MsgCorrupt, 20, noc.LossCorrupt}, {MsgDup, 40, noc.LossDup}}

// LossyVerdict decides the fate of one packet arrival at a node's NI: intact,
// dropped, duplicated, or corrupted. It is a pure function of (seed, plan,
// cycle, node, packet id); the NI accounts the outcome. At most one
// window per lossy kind can be active on a node (Validate rejects overlaps),
// and the three kinds roll independent hash bits, with the more severe
// verdict winning when several fire at once.
func (in *Injector) LossyVerdict(node noc.NodeID, now sim.Cycle, pktID uint64) noc.LossVerdict {
	c := uint64(now)
	h := uint64(0)
	hashed := false
	roll := func(shift uint) uint64 {
		if !hashed {
			h = splitmix64(in.plan.Seed ^ splitmix64(pktID^0x10551) ^ (c+1)*0x9E3779B97F4A7C15)
			hashed = true
		}
		return (h >> shift) % 1000
	}
	for _, o := range lossOrder {
		for _, f := range in.index[o.kind][node] {
			if f.activeAt(c) && roll(o.shift) < uint64(f.Factor) {
				return o.verdict
			}
		}
	}
	return noc.LossNone
}

// SuppressFilterHit reports whether a FilterDrop window holds the router's
// filter bank offline for lookups this cycle; the router then treats the hit
// as a miss and routes the request on. Registrations and the OrdPush
// invalidation stall are deliberately unaffected — suppressing pruning only
// adds redundant traffic, while dropping ordering state could reorder
// protocol messages. Runs only from the router's own tick, once per hit.
func (in *Injector) SuppressFilterHit(node noc.NodeID, now sim.Cycle) bool {
	for _, f := range in.index[FilterDrop][node] {
		if f.activeAt(uint64(now)) {
			in.st.Net.FaultFilterSuppressed++
			return true
		}
	}
	return false
}
