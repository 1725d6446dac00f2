// Package fault implements the deterministic fault-injection layer: a seeded
// schedule of transient network faults (link stalls, router slowdowns, packet
// delay jitter, injection-queue pressure spikes, filter outages, and lossy
// message faults) applied to the NoC through narrow hooks, plus the injector
// component that drives the schedule off the simulation engine's timing wheel.
//
// Every fault effect is a pure function of (plan, seed, cycle, component
// identity, packet identity) — never of tick order, goroutine scheduling, or
// host state — so a fault schedule replays byte-identically across the
// wake-driven and dense kernels: same seed, same trace hash.
//
// The graceful-degradation contract: a valid plan may slow the simulated
// machine down arbitrarily within its windows, but it can never make a run
// panic, deadlock, or violate a coherence/ordering invariant. The benign
// kinds (LinkStall, RouterSlow, VCJitter, InjSpike, FilterDrop) only delay or
// withhold resources transiently. The lossy kinds (MsgDrop, MsgDup,
// MsgCorrupt) discard, duplicate, or corrupt packets at the receiving NI;
// the NoC's end-to-end recovery layer (sequence numbers, acks, a bounded
// retransmit window, and receiver-side dedup — see internal/noc) makes them
// survivable up to the documented loss ceiling (MaxLossPerMille), beyond
// which a run fails loudly with noc.ErrUnrecoverable rather than hanging.
// The invariant checker stays fully enabled under fault injection (the one
// structural check a frozen router legitimately suspends is excused through
// FrozenIn; dropped deliveries are excused through the loss trace events).
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"pushmulticast/internal/noc"
)

// Kind enumerates the fault mechanisms.
type Kind uint8

// Fault kinds.
const (
	// LinkStall blocks new replica allocations onto one router output port
	// for the window's duration. In-flight streams complete (links do not
	// corrupt mid-packet); blocked traffic waits in upstream VCs.
	LinkStall Kind = iota
	// RouterSlow freezes a router's pipeline on all but every Factor-th
	// cycle of the window, modeling a router running at 1/Factor frequency.
	RouterSlow
	// VCJitter adds a bounded pseudo-random delay to head-flit arrival on
	// one router output link. Per-link arrival order is preserved (a
	// monotonic clamp), so OrdPush's push-before-invalidation guarantee
	// survives arbitrary jitter.
	VCJitter
	// InjSpike shrinks a tile NI's effective injection-queue depth to
	// Factor entries, modeling endpoint-side congestion; sources feel
	// backpressure and retry.
	InjSpike
	// FilterDrop takes a router's filter bank offline for lookups: pruning
	// hits are suppressed (requests travel on redundantly). Registrations
	// and the OrdPush invalidation stall are untouched — dropping those
	// would break ordering, not degrade it.
	FilterDrop
	// MsgDrop discards packets at the target tile's NI on delivery with
	// probability Factor per mille; the sender's retransmit window recovers
	// them after an ack timeout.
	MsgDrop
	// MsgDup delivers packets at the target tile's NI twice with probability
	// Factor per mille; the receiver's sequence-number dedup suppresses the
	// second copy.
	MsgDup
	// MsgCorrupt flips payload bits in packets arriving at the target tile's
	// NI with probability Factor per mille; the per-packet checksum catches
	// the corruption and the packet is discarded and recovered like a drop.
	MsgCorrupt

	numKinds
)

var kindNames = [numKinds]string{
	"LinkStall", "RouterSlow", "VCJitter", "InjSpike", "FilterDrop",
	"MsgDrop", "MsgDup", "MsgCorrupt",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "Unknown"
}

// lossy reports whether the kind discards, duplicates, or corrupts packets.
func (k Kind) lossy() bool { return k == MsgDrop || k == MsgDup || k == MsgCorrupt }

// MarshalJSON encodes the kind by name, keeping plan files readable.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("fault: cannot marshal unknown kind %d", k)
	}
	return []byte(`"` + kindNames[k] + `"`), nil
}

// UnmarshalJSON accepts a kind name (case-insensitive) or its numeric value.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' {
		name := string(b[1 : len(b)-1])
		for i, n := range kindNames {
			if strings.EqualFold(n, name) {
				*k = Kind(i)
				return nil
			}
		}
		return fmt.Errorf("fault: unknown fault kind %q", name)
	}
	var v uint8
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("fault: fault kind must be a name or small integer: %w", err)
	}
	if v >= uint8(numKinds) {
		return fmt.Errorf("fault: unknown fault kind %d", v)
	}
	*k = Kind(v)
	return nil
}

// MaxOutageWindow caps the duration of a full-outage window (LinkStall,
// RouterSlow): far below the engine's progress watchdog, so a legal plan can
// stall traffic but never trip deadlock detection.
const MaxOutageWindow = 10_000

// MaxJitterCycles caps VCJitter's per-packet extra delay.
const MaxJitterCycles = 64

// MaxLossPerMille is the documented forward-progress ceiling for the lossy
// kinds: at per-mille loss rates up to this value the recovery layer's
// defaults (retransmit window, timeout, max retries — see noc.Config)
// guarantee every run completes coherently, merely slower. Validate accepts
// rates up to 1000 so tests can force noc.ErrUnrecoverable, but rates above
// the ceiling are outside the graceful-degradation contract.
const MaxLossPerMille = 100

// Fault is one scheduled fault. Its first active window is [From, To) in
// cycles; with a nonzero Period the window repeats every Period cycles
// forever, which guarantees coverage regardless of run length.
type Fault struct {
	Kind Kind
	// Node is the target tile (router and NI share the tile index).
	Node int
	// Port is the target output port for LinkStall and VCJitter
	// (noc.PortNorth..PortLocal); -1 targets every port. Ignored otherwise.
	Port int
	// From and To bound the first active window: [From, To).
	From, To uint64
	// Period repeats the window every Period cycles (0 = one-shot).
	Period uint64
	// Factor is the RouterSlow duty divisor (the router runs one cycle in
	// Factor, >= 2), the InjSpike forced queue capacity (>= 1), or the
	// lossy kinds' per-mille event probability (1..1000).
	Factor int
	// MaxJitter bounds VCJitter's extra delay in cycles (1..MaxJitterCycles).
	MaxJitter int
	// VNet restricts VCJitter to one virtual network; -1 jitters all.
	VNet int
}

// activeAt reports whether the fault's window covers cycle c.
func (f *Fault) activeAt(c uint64) bool {
	if c < f.From {
		return false
	}
	if f.Period == 0 {
		return c < f.To
	}
	return (c-f.From)%f.Period < f.To-f.From
}

// startsAt reports whether a window of this fault opens exactly at cycle c.
func (f *Fault) startsAt(c uint64) bool {
	return f.activeAt(c) && (c == 0 || !f.activeAt(c-1))
}

// endsAt reports whether a window of this fault closed exactly at cycle c
// (c is the first inactive cycle).
func (f *Fault) endsAt(c uint64) bool {
	return c > 0 && f.activeAt(c-1) && !f.activeAt(c)
}

// nextBoundary returns the earliest window start or end strictly after now,
// or false when the fault is spent (one-shot and fully in the past, or
// periodic with its next boundary beyond the last cycle number).
func (f *Fault) nextBoundary(now uint64) (uint64, bool) {
	if now < f.From {
		return f.From, true
	}
	dur := f.To - f.From
	if f.Period == 0 {
		if now < f.To {
			return f.To, true
		}
		return 0, false
	}
	phase := (now - f.From) % f.Period
	step := f.Period - phase // to the next window's start
	if phase < dur {
		step = dur - phase // to the current window's end
	}
	if now+step < now {
		return 0, false // past the end of the cycle counter: spent, not wrapped to the past
	}
	return now + step, true
}

// activeWithin reports whether any cycle in [from, to] falls inside one of
// the fault's windows.
func (f *Fault) activeWithin(from, to uint64) bool {
	if to < f.From {
		return false
	}
	if from < f.From {
		from = f.From
	}
	if f.Period == 0 {
		return from < f.To
	}
	if to-from+1 >= f.Period {
		return true
	}
	phase := (from - f.From) % f.Period
	if phase < f.To-f.From {
		return true
	}
	return from+(f.Period-phase) <= to
}

// Plan is a complete fault schedule: a seed (feeding the jitter hash) and the
// fault list. The zero value (or an empty fault list) disables injection.
type Plan struct {
	// Seed feeds every pseudo-random fault decision; two runs with equal
	// (Plan, workload, config) are byte-identical.
	Seed uint64
	// Faults is the schedule.
	Faults []Fault
}

// Validate checks the plan against a machine with the given tile count. The
// bounds are the documented intensities under which the graceful-degradation
// contract holds: transient windows only, outages shorter than the progress
// watchdog, and no fault that could drop or reorder protocol traffic.
func (p *Plan) Validate(nodes int) error {
	for i := range p.Faults {
		f := &p.Faults[i]
		fail := func(format string, args ...any) error {
			return fmt.Errorf("fault: plan entry %d (%s): %s", i, f.Kind, fmt.Sprintf(format, args...))
		}
		if f.Kind >= numKinds {
			return fail("unknown kind %d", f.Kind)
		}
		if f.Node < 0 || f.Node >= nodes {
			return fail("node %d outside [0,%d)", f.Node, nodes)
		}
		if f.From >= f.To {
			return fail("empty window [%d,%d)", f.From, f.To)
		}
		if f.Period != 0 && f.Period < f.To-f.From {
			return fail("period %d shorter than window %d", f.Period, f.To-f.From)
		}
		switch f.Kind {
		case LinkStall, RouterSlow:
			if f.To-f.From > MaxOutageWindow {
				return fail("outage window %d exceeds MaxOutageWindow %d", f.To-f.From, MaxOutageWindow)
			}
		}
		switch f.Kind {
		case LinkStall, VCJitter:
			if f.Port < -1 || f.Port >= noc.NumPorts {
				return fail("port %d outside [-1,%d)", f.Port, noc.NumPorts)
			}
		}
		switch f.Kind {
		case RouterSlow:
			if f.Factor < 2 || f.Factor > 64 {
				return fail("duty factor %d outside [2,64]", f.Factor)
			}
		case InjSpike:
			if f.Factor < 1 {
				return fail("forced queue capacity %d below 1", f.Factor)
			}
		case VCJitter:
			if f.MaxJitter < 1 || f.MaxJitter > MaxJitterCycles {
				return fail("max jitter %d outside [1,%d]", f.MaxJitter, MaxJitterCycles)
			}
			if f.VNet < -1 || f.VNet >= noc.NumVNets {
				return fail("vnet %d outside [-1,%d)", f.VNet, noc.NumVNets)
			}
		case MsgDrop, MsgDup, MsgCorrupt:
			if f.Factor < 1 || f.Factor > 1000 {
				return fail("per-mille loss rate %d outside [1,1000]", f.Factor)
			}
		}
	}
	// Two windows of the same kind on the same component must never be
	// active simultaneously: stacked effects would be undefined (which loss
	// rate applies? which duty factor?), so reject the plan up front.
	for i := range p.Faults {
		for j := i + 1; j < len(p.Faults); j++ {
			a, b := &p.Faults[i], &p.Faults[j]
			if sameComponent(a, b) && windowsOverlap(a, b) {
				return fmt.Errorf("fault: plan entries %d and %d (%s, node %d): overlapping windows on the same component (undefined effect stacking)",
					i, j, a.Kind, a.Node)
			}
		}
	}
	return nil
}

// sameComponent reports whether two faults target the same mechanism on the
// same hardware component, so that simultaneous windows would stack.
func sameComponent(a, b *Fault) bool {
	if a.Kind != b.Kind || a.Node != b.Node {
		return false
	}
	switch a.Kind {
	case LinkStall, VCJitter:
		// Port-scoped: -1 covers every port, so it collides with anything.
		return a.Port == b.Port || a.Port == -1 || b.Port == -1
	}
	return true
}

// windowsOverlap reports — exactly, not conservatively — whether any cycle
// lies inside an active window of both faults.
func windowsOverlap(a, b *Fault) bool {
	switch {
	case a.Period == 0 && b.Period == 0:
		from, to := a.From, a.To
		if b.From > from {
			from = b.From
		}
		if b.To < to {
			to = b.To
		}
		return from < to
	case a.Period == 0:
		return b.activeWithin(a.From, a.To-1)
	case b.Period == 0:
		return a.activeWithin(b.From, b.To-1)
	}
	// Both periodic (forever): window starts align modulo gcd(periods), so
	// the two duration intervals overlap iff they overlap in that residue
	// ring.
	g := gcd(a.Period, b.Period)
	durA, durB := a.To-a.From, b.To-b.From
	if durA >= g || durB >= g {
		return true
	}
	d := ((a.From % g) + g - (b.From % g)) % g // a's start relative to b's, mod g
	return d < durB || g-d < durA
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Lossy reports whether the plan schedules any packet-loss fault (MsgDrop,
// MsgDup, MsgCorrupt); the NoC arms its recovery layer only when it does.
func (p *Plan) Lossy() bool {
	if p == nil {
		return false
	}
	for i := range p.Faults {
		if p.Faults[i].Kind.lossy() {
			return true
		}
	}
	return false
}

// splitmix64 is the avalanche step behind every seeded fault decision:
// deterministic, stateless, and uniform enough for schedule generation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4B9FE
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// GeneratePlan builds a chaos-campaign plan for a machine with the given
// tile count: intensity (clamped to [0,1]) scales the number of concurrent
// fault processes per kind, and every parameter choice derives from the seed,
// so equal (nodes, seed, intensity) always yields the identical plan. All
// windows are periodic, guaranteeing fault coverage regardless of run length.
// Each kind targets distinct nodes (a seeded partial shuffle), so generated
// plans never trip Validate's same-component overlap rejection. Intensity 0
// returns an empty (injection-off) plan. Lossy kinds are not generated here;
// see GenerateLossyPlan.
func GeneratePlan(nodes int, seed uint64, intensity float64) Plan {
	if math.IsNaN(intensity) || intensity <= 0 {
		return Plan{Seed: seed}
	}
	if intensity > 1 {
		intensity = 1
	}
	p := Plan{Seed: seed}
	// At intensity 1, one fault process per kind per 4 tiles.
	perKind := int(math.Ceil(intensity * float64(nodes) / 4))
	x := splitmix64(seed ^ 0xFA017)
	next := func(mod uint64) uint64 {
		x = splitmix64(x)
		return x % mod
	}
	perm := make([]int, nodes)
	for k := Kind(0); k < FilterDrop+1; k++ {
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < perKind; i++ {
			// Partial Fisher-Yates: position i draws from the unpicked tail.
			j := i + int(next(uint64(nodes-i)))
			perm[i], perm[j] = perm[j], perm[i]
			f := Fault{
				Kind: k,
				Node: perm[i],
				Port: int(next(noc.NumPorts)),
				VNet: -1,
			}
			from := 100 + next(900)
			dur := 100 + uint64(float64(next(900))*intensity)
			f.From = from
			f.To = from + dur
			f.Period = f.To - f.From + 1500 + next(4000)
			switch k {
			case RouterSlow:
				f.Factor = 2 + int(next(3))
			case InjSpike:
				f.Factor = 1 + int(next(2))
			case VCJitter:
				f.MaxJitter = 1 + int(next(8))
			}
			p.Faults = append(p.Faults, f)
		}
	}
	return p
}

// GenerateLossyPlan builds an always-on lossy plan for the chaos campaign:
// every tile's NI drops arrivals at ratePerMille, and duplicates and corrupts
// them at half that rate each. The rate is clamped to [0,1000]; 0 returns an
// empty plan. Rates above MaxLossPerMille validate and run but are outside
// the forward-progress contract — a rate of 1000 (every delivery lost,
// including retransmissions) deterministically ends in noc.ErrUnrecoverable,
// which is exactly what the loud-failure tests use.
func GenerateLossyPlan(nodes int, seed uint64, ratePerMille int) Plan {
	if ratePerMille <= 0 {
		return Plan{Seed: seed}
	}
	if ratePerMille > 1000 {
		ratePerMille = 1000
	}
	p := Plan{Seed: seed}
	// One-shot windows covering any realizable run length; validation's
	// outage cap applies only to full-outage kinds, not lossy ones.
	const forever = uint64(1) << 62
	add := func(k Kind, node, rate int) {
		if rate < 1 {
			return
		}
		p.Faults = append(p.Faults, Fault{Kind: k, Node: node, To: forever, Factor: rate})
	}
	for n := 0; n < nodes; n++ {
		add(MsgDrop, n, ratePerMille)
		add(MsgDup, n, ratePerMille/2)
		add(MsgCorrupt, n, ratePerMille/2)
	}
	return p
}
