// Package config defines the simulated system's configuration surface: the
// Table I machine parameters, the evaluated scheme lattice (baselines,
// PushAck/OrdPush, and the Fig 20 ablation points), and named presets for
// the paper's 16-core and 64-core systems.
package config

import (
	"fmt"
	"math/bits"

	"pushmulticast/internal/fault"
	"pushmulticast/internal/noc"
)

// Protocol selects how push/write races are serialized (§III-F).
type Protocol uint8

// Protocol variants.
const (
	// ProtoNone runs the plain MSI protocol (no pushes possible).
	ProtoNone Protocol = iota
	// ProtoPushAck adds the directory P (shared-push) semi-blocking state:
	// writes stall until every pushed sharer acknowledges.
	ProtoPushAck
	// ProtoOrdPush relies on in-network ordering: an invalidation stalls in
	// routers (and at the NI) behind a same-line push on its path.
	ProtoOrdPush
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtoNone:
		return "MSI"
	case ProtoPushAck:
		return "PushAck"
	case ProtoOrdPush:
		return "OrdPush"
	}
	return "Unknown"
}

// Scheme is one evaluated design point.
type Scheme struct {
	// Name labels result rows.
	Name string
	// Push enables speculative pushes from the LLC on re-references.
	Push bool
	// Multicast sends one multicast push packet instead of per-sharer
	// unicast pushes (off for the MSP baseline and the Push ablation).
	Multicast bool
	// Filter enables in-network read-request pruning.
	Filter bool
	// Knob enables the dynamic pause/resume mechanism.
	Knob bool
	// Protocol selects the push/write serialization approach.
	Protocol Protocol
	// Coalesce enables LLC same-line request coalescing with a multicast
	// reply (the Coalesce baseline [38]).
	Coalesce bool
	// L1Bingo / L2Stride enable the baseline prefetchers.
	L1Bingo  bool
	L2Stride bool

	// PredictPush enables the §VI "General Push Multicast" extension: a
	// sharer predictor decoupled from the directory remembers the sharer
	// set of evicted LLC lines and triggers a push multicast when the line
	// is refetched from memory, extending pushes to LLC misses. It needs
	// Push: without a push protocol nothing orders the fill's pushes
	// against invalidations.
	PredictPush bool

	// PushFillL1 enables the §VI "Multi-Level Caches" extension: a push
	// accepted at the L2 is propagated into the L1 as well.
	PushFillL1 bool
}

// Evaluated schemes (§IV): the baseline carries the prefetchers; all other
// configurations run without hardware prefetching, as in the paper.
func Baseline() Scheme {
	return Scheme{Name: "L1Bingo-L2Stride", L1Bingo: true, L2Stride: true}
}

// NoPrefetch is a prefetcher-less reactive baseline (used by the Fig 20
// discussion of push overhead relative to a no-prefetch system).
func NoPrefetch() Scheme { return Scheme{Name: "NoPrefetch"} }

// Coalesce groups concurrent same-line LLC requests and multicasts one reply.
func Coalesce() Scheme { return Scheme{Name: "Coalescing", Coalesce: true} }

// MSP mimics the memory sharing predictor [41]: pushes without multicast,
// filtering, or dynamic control.
func MSP() Scheme {
	return Scheme{Name: "MSP", Push: true, Protocol: ProtoPushAck}
}

// PushAck is the full design under the push-acknowledgment protocol.
func PushAck() Scheme {
	return Scheme{Name: "PushAck", Push: true, Multicast: true, Filter: true,
		Knob: true, Protocol: ProtoPushAck}
}

// OrdPush is the full design under the ordered-network protocol.
func OrdPush() Scheme {
	return Scheme{Name: "OrdPush", Push: true, Multicast: true, Filter: true,
		Knob: true, Protocol: ProtoOrdPush}
}

// Fig 20 ablation lattice over OrdPush.
func AblationPush() Scheme {
	return Scheme{Name: "Push", Push: true, Protocol: ProtoOrdPush}
}

func AblationPushMulticast() Scheme {
	return Scheme{Name: "Push+Multicast", Push: true, Multicast: true, Protocol: ProtoOrdPush}
}

func AblationPushMulticastFilter() Scheme {
	return Scheme{Name: "Push+Multicast+Filter", Push: true, Multicast: true,
		Filter: true, Protocol: ProtoOrdPush}
}

func AblationFull() Scheme {
	s := OrdPush()
	s.Name = "Push+Multicast+Filter+Knob"
	return s
}

// PushPrefetch combines OrdPush with the baseline prefetchers — the §VI
// "Interplay of Push and Prefetch" exploration. Prefetch requests never
// trigger pushes; demand re-references still do.
func PushPrefetch() Scheme {
	s := OrdPush()
	s.Name = "OrdPush+Prefetch"
	s.L1Bingo = true
	s.L2Stride = true
	return s
}

// PredictivePush extends OrdPush with the decoupled sharer predictor (§VI
// "General Push Multicast"): pushes also fire on LLC-miss fills for lines
// whose pre-eviction sharer set is remembered.
func PredictivePush() Scheme {
	s := OrdPush()
	s.Name = "OrdPush+Predict"
	s.PredictPush = true
	return s
}

// DeepPush extends OrdPush by propagating accepted pushes into the L1 (§VI
// "Multi-Level Caches").
func DeepPush() Scheme {
	s := OrdPush()
	s.Name = "OrdPush+L1Fill"
	s.PushFillL1 = true
	return s
}

// System is the full machine configuration (Table I).
type System struct {
	// Cache geometry (bytes / ways); lines are noc.LineBytes.
	L1Size, L1Ways        int
	L2Size, L2Ways        int
	LLCSliceSize, LLCWays int
	L2MSHRs               int

	// Latencies in cycles. An L1 hit has none: it completes inside the
	// core's own tick.
	L2Latency, LLCLatency, MemLatency int
	// MemCyclesPerLine is the bandwidth limit per memory controller: one
	// line transfer occupies the controller for this many cycles
	// (12.8 GB/s shared by 4 controllers => 64B / 3.2GB/s = 40 cycles at
	// 2 GHz).
	MemCyclesPerLine int

	// Core model.
	CoreWidth   int // retire width (instructions/cycle)
	CoreWindow  int // max outstanding loads (MLP)
	StoreBuffer int // max outstanding stores

	// Dynamic knob parameters (Table I).
	TPCThreshold int
	TimeWindow   int
	// KnobRatioShift sets the useful-push ratio threshold to 1/2^shift
	// (shift 1 = 50%, the paper's setting).
	KnobRatioShift uint

	// NoC parameters, among them the mesh: NoC.Width x NoC.Height tiles, one
	// core + private L1/L2 + LLC slice per tile.
	NoC noc.Config

	// Scheme is the evaluated design point.
	Scheme Scheme

	// Prefetcher settings.
	BingoRegionBytes int // spatial region size (2KB)
	BingoPHTEntries  int
	StrideStreams    int
	StrideDegree     int

	// TraceSharerGaps enables Fig 4 consecutive-sharer-gap tracing at the
	// LLC (costs memory; off by default).
	TraceSharerGaps bool

	// NoRecentPushTable disables the LLC's small recent-push table (an
	// implementation refinement that degrades re-references arriving just
	// after a push departed to unicasts instead of fresh multicasts).
	// Exposed for the ablation study of this design choice.
	NoRecentPushTable bool

	// DenseKernel runs the simulation on the dense reference kernel that
	// ticks every component every cycle, instead of the wake-driven
	// scheduler. Results are identical by contract (the equivalence tests
	// enforce it); dense mode exists as the cross-check oracle and for
	// debugging suspected scheduling bugs.
	DenseKernel bool

	// ParallelWorkers is inert: it selected the intra-run parallel tick
	// executor, which was deleted (DESIGN §4c); nothing reads it and
	// core.Fingerprint zeroes it, so it cannot change a run or a snapshot.
	//
	// Deprecated: the field survives only because benchmark/measure.go
	// assigns it and that directory is frozen between benchmark PRs. The
	// next benchmark PR drops its parallel2 probe, then this field.
	ParallelWorkers int

	// Check enables the runtime invariant checker: the paper's protocol
	// invariants (SWMR, L1⊆L2 inclusion, directory sharer-set superset,
	// filter soundness, OrdPush push-before-invalidation ordering) and the
	// NoC's structural conservation laws are asserted while the simulation
	// runs, and any violation fails the run with a trace tail. Off by
	// default: the checker costs throughput and is meant for tests and
	// campaign runs, not benchmarking.
	Check bool

	// CheckEvery is the period, in cycles, of the checker's structural
	// scans (global coherence, inclusion, directory view, NoC
	// conservation); event-driven checks run every cycle regardless.
	// 0 selects a default period.
	CheckEvery int

	// TraceN bounds the structured event-trace ring: the last TraceN
	// events are retained and dumped on a checker violation, watchdog
	// deadlock, or panic. 0 disables the trace unless Check is set, which
	// keeps a default-sized ring so violations always carry context.
	TraceN int

	// Faults, when non-nil and non-empty, enables the deterministic
	// fault-injection layer: the plan's seeded schedule of transient NoC
	// faults is driven against the run, and the graceful-degradation
	// contract (no panic, no deadlock, no invariant violation — only
	// elevated latency) is expected to hold. The same plan replays
	// byte-identically across the wake-driven and dense kernels.
	Faults *fault.Plan

	// MSHRRetryTimeout is the cycle count after which an L2 MSHR with no
	// response reissues its request (lossy fault plans only; fault-free runs
	// never arm the timers). It must sit below the NoC transport's
	// RetryTimeout so a protocol-level reissue genuinely fires before the
	// transport's own retransmission heals the loss.
	MSHRRetryTimeout int
}

// Tiles returns the tile count.
func (s System) Tiles() int { return s.NoC.Width * s.NoC.Height }

// Validate reports configuration errors.
func (s System) Validate() error {
	if s.Tiles() < 2 || s.Tiles() > noc.MaxNodes {
		return fmt.Errorf("config: unsupported tile count %d", s.Tiles())
	}
	for _, c := range []struct {
		name       string
		size, ways int
	}{
		{"L1", s.L1Size, s.L1Ways},
		{"L2", s.L2Size, s.L2Ways},
		{"LLC slice", s.LLCSliceSize, s.LLCWays},
	} {
		// The array indexes sets by address bits: their count is a power of two.
		if c.size <= 0 || c.ways <= 0 || c.size%(c.ways*noc.LineBytes) != 0 ||
			bits.OnesCount(uint(c.size/(c.ways*noc.LineBytes))) != 1 {
			return fmt.Errorf("config: bad %s geometry size=%d ways=%d", c.name, c.size, c.ways)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"L2MSHRs", s.L2MSHRs}, {"MemCyclesPerLine", s.MemCyclesPerLine},
		{"CoreWidth", s.CoreWidth}, {"CoreWindow", s.CoreWindow}, {"StoreBuffer", s.StoreBuffer},
		{"TPCThreshold", s.TPCThreshold}, {"TimeWindow", s.TimeWindow},
		{"BingoPHTEntries", s.BingoPHTEntries}, {"StrideStreams", s.StrideStreams},
		{"StrideDegree", s.StrideDegree}, {"MSHRRetryTimeout", s.MSHRRetryTimeout},
	} {
		if f.v <= 0 {
			return fmt.Errorf("config: %s must be positive, got %d", f.name, f.v)
		}
	}
	if s.L2Latency < 0 || s.LLCLatency < 0 || s.MemLatency < 0 {
		return fmt.Errorf("config: negative latency (L2 %d, LLC %d, memory %d)", s.L2Latency, s.LLCLatency, s.MemLatency)
	}
	if r := s.BingoRegionBytes; r < noc.LineBytes || r > 64*noc.LineBytes || r&(r-1) != 0 {
		// A region's footprint is one 64-bit word, one bit per line.
		return fmt.Errorf("config: BingoRegionBytes %d is not a power of two from 1 to 64 lines", r)
	}
	if s.Scheme.Protocol > ProtoOrdPush {
		return fmt.Errorf("config: scheme %q has unknown protocol %d", s.Scheme.Name, s.Scheme.Protocol)
	}
	if s.Scheme.Push && s.Scheme.Protocol == ProtoNone {
		return fmt.Errorf("config: scheme %q pushes without a push protocol", s.Scheme.Name)
	}
	if s.Scheme.PredictPush && !s.Scheme.Push {
		return fmt.Errorf("config: scheme %q predicts pushes without pushing", s.Scheme.Name)
	}
	if s.NoC != s.withNoCFlags().NoC {
		return fmt.Errorf("config: NoC filter/ordering flags disagree with scheme %q (set a scheme with WithScheme)", s.Scheme.Name)
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(s.Tiles()); err != nil {
			return err
		}
	}
	return s.NoC.Validate()
}

// withNoCFlags aligns the NoC feature flags with the scheme.
func (s System) withNoCFlags() System {
	s.NoC.FilterEnabled = s.Scheme.Filter
	s.NoC.OrdPushInvStall = s.Scheme.Push && s.Scheme.Protocol == ProtoOrdPush
	return s
}

// WithScheme returns a copy of the system configured for the scheme,
// including the Table I per-scheme knob settings.
func (s System) WithScheme(sch Scheme) System {
	s.Scheme = sch
	tiles := s.Tiles()
	if sch.Protocol == ProtoPushAck {
		if tiles > 16 {
			s.TPCThreshold, s.TimeWindow = 8, 1500
		} else {
			s.TPCThreshold, s.TimeWindow = 64, 500
		}
	} else {
		if tiles > 16 {
			s.TPCThreshold, s.TimeWindow = 16, 1500
		} else {
			s.TPCThreshold, s.TimeWindow = 16, 500
		}
	}
	return s.withNoCFlags()
}

// Default16 returns the Table I 16-core system (4x4 mesh).
func Default16() System { return defaultSystem(4, 4) }

// Default64 returns the Table I 64-core system (8x8 mesh).
func Default64() System { return defaultSystem(8, 8) }

// Default256 returns the scaled-up 256-core system (16x16 mesh) used by the
// manycore scaling studies; Table I parameters otherwise.
func Default256() System { return defaultSystem(16, 16) }

func defaultSystem(w, h int) System {
	s := System{
		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 16,
		LLCSliceSize: 1 << 20, LLCWays: 16,
		L2MSHRs:   16,
		L2Latency: 4, LLCLatency: 10,
		MemLatency: 120, MemCyclesPerLine: 40,
		CoreWidth: 8, CoreWindow: 16, StoreBuffer: 16,
		KnobRatioShift:   1,
		NoC:              noc.DefaultConfig(w, h),
		BingoRegionBytes: 2 << 10, BingoPHTEntries: 256,
		StrideStreams: 16, StrideDegree: 4,
		MSHRRetryTimeout: 300,
	}
	return s.WithScheme(Baseline())
}

// Scaled returns a copy with cache capacities divided by factor (geometry
// ratios preserved). Experiment quick modes use this together with scaled
// workload inputs so that runs finish fast while keeping the paper's
// cache-pressure ratios.
func (s System) Scaled(factor int) System {
	if factor <= 1 {
		return s
	}
	div := func(bytes int) int {
		v := bytes / factor
		min := noc.LineBytes * s.L2Ways
		if v < min {
			v = min
		}
		return v
	}
	s.L1Size = div(s.L1Size)
	s.L2Size = div(s.L2Size)
	s.LLCSliceSize = div(s.LLCSliceSize)
	return s
}

// MemControllers returns the tiles hosting the four corner memory
// controllers.
func (s System) MemControllers() []noc.NodeID {
	w, h := s.NoC.Width, s.NoC.Height
	corners := []noc.NodeID{
		s.NoC.Node(0, 0),
		s.NoC.Node(w-1, 0),
		s.NoC.Node(0, h-1),
		s.NoC.Node(w-1, h-1),
	}
	// Deduplicate for tiny meshes.
	seen := map[noc.NodeID]bool{}
	var out []noc.NodeID
	for _, c := range corners {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// NearestMemController returns the memory controller tile closest (hop
// count, ties to lowest id) to the given tile.
func (s System) NearestMemController(n noc.NodeID) noc.NodeID {
	best := noc.NodeID(-1)
	bestDist := 1 << 30
	nx, ny := s.NoC.XY(n)
	for _, mc := range s.MemControllers() {
		mx, my := s.NoC.XY(mc)
		d := abs(nx-mx) + abs(ny-my)
		if d < bestDist || (d == bestDist && mc < best) {
			best, bestDist = mc, d
		}
	}
	return best
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// HomeSlice maps a line address to its home LLC slice by low-order set
// interleaving, the address-hashing NUCA placement the paper assumes. The
// receiver is a pointer: every L2 miss and every line the checker sweeps asks,
// and a value receiver copies the whole System each time.
func (s *System) HomeSlice(lineAddr uint64) noc.NodeID {
	return noc.NodeID((lineAddr / noc.LineBytes) % uint64(s.NoC.Width*s.NoC.Height))
}
