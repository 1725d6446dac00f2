// Package stats defines the measurement vocabulary shared by all simulator
// subsystems: traffic classes, network/link counters, cache counters, and the
// push-usage breakdown used to reproduce the paper's evaluation figures.
//
// Counters are plain integers with no synchronization: a bundle is only ever
// mutated by its run's single simulation goroutine.
package stats

// Class is the traffic category a packet is accounted under. The categories
// follow the paper's traffic breakdowns (Fig 3, Fig 13, Fig 15, Fig 16).
type Class uint8

// Traffic classes.
const (
	// ClassReadRequest covers GetS demand and prefetch read requests.
	ClassReadRequest Class = iota
	// ClassReadSharedData covers unicast data responses for lines in the
	// shared state.
	ClassReadSharedData
	// ClassPushData covers speculative push multicast data packets. For
	// figure reporting it is merged into the read-shared category, matching
	// the paper's classification of pushes as shared-data traffic.
	ClassPushData
	// ClassExclusiveData covers E/M data responses (including write data).
	ClassExclusiveData
	// ClassWriteBackData covers dirty writeback (PutM) data packets.
	ClassWriteBackData
	// ClassPushAck covers push acknowledgment control messages (PushAck
	// coherence variant only).
	ClassPushAck
	// ClassAck covers transport-level delivery acknowledgments generated by
	// the lossy-interconnect recovery layer (single-flit control packets
	// retiring retransmit-window entries; only nonzero under lossy faults).
	ClassAck
	// ClassOther covers everything else: invalidations, inv-acks, memory
	// traffic, and miscellaneous control.
	ClassOther

	// NumClasses is the number of traffic classes.
	NumClasses
)

var classNames = [NumClasses]string{
	"ReadRequest", "ReadSharedData", "PushData", "ExclusiveData",
	"WriteBackData", "PushAck", "Ack", "Other",
}

// String returns the class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "Unknown"
}

// Unit identifies the kind of endpoint a flit was injected from or ejected
// to, for the per-endpoint bandwidth figures (Fig 15, Fig 16).
type Unit uint8

// Endpoint units.
const (
	UnitL2 Unit = iota
	UnitLLC
	UnitMem
	NumUnits
)

var unitNames = [NumUnits]string{"L2", "LLC", "Mem"}

// String returns the unit name.
func (u Unit) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return "Unknown"
}

// Network aggregates all NoC-side counters.
type Network struct {
	// LinkFlits[l] is the number of flits that traversed link l; noc.LinkIndex
	// gives the index of the link leaving a node through a port.
	LinkFlits []uint64
	// TotalFlitsByClass counts link-level flit traversals per class
	// (a flit crossing three links counts three times, matching traffic
	// volume as the paper measures it).
	TotalFlitsByClass [NumClasses]uint64
	// InjectedFlits[u][c] counts flits injected into the NoC by unit kind u
	// under class c (endpoint-side, each flit counted once).
	InjectedFlits [NumUnits][NumClasses]uint64
	// EjectedFlits[u][c] counts flits ejected from the NoC to unit kind u.
	EjectedFlits [NumUnits][NumClasses]uint64
	// InjectedPackets / EjectedPackets mirror the flit counters at packet
	// granularity.
	InjectedPackets [NumUnits][NumClasses]uint64
	EjectedPackets  [NumUnits][NumClasses]uint64
	// FilteredRequests counts read requests pruned by the in-network
	// coherent filter.
	FilteredRequests uint64
	// StalledInvCycles counts cycles an invalidation spent stalled behind a
	// same-line push (OrdPush ordering enforcement).
	StalledInvCycles uint64
	// MulticastReplicas counts extra packet replicas created by in-router
	// multicast forking.
	MulticastReplicas uint64
	// PacketLatencySum/PacketCount measure end-to-end packet latency.
	PacketLatencySum uint64
	PacketCount      uint64
	// InjRefused counts injection attempts an NI refused because the queue
	// was full (backpressure; the source retries next cycle). Nonzero under
	// heavy load or an InjSpike fault, never fatal.
	InjRefused uint64
	// FaultWindows counts fault windows opened by the injection layer.
	FaultWindows uint64
	// FaultJitterDelay sums extra head-arrival cycles added by VCJitter.
	FaultJitterDelay uint64
	// FaultFilterSuppressed counts filter hits a FilterDrop window turned
	// into misses.
	FaultFilterSuppressed uint64
	// MsgDropped counts packets a MsgDrop fault discarded at the receiving
	// NI (each discarded arrival counted once, including retransmissions).
	MsgDropped uint64
	// Retransmits counts recovery copies re-injected by sender NIs after an
	// ack timeout.
	Retransmits uint64
	// DupSuppressed counts arrivals the receiver's sequence-number dedup
	// discarded as already-delivered (MsgDup faults and retransmissions that
	// crossed a lost ack).
	DupSuppressed uint64
	// CorruptDetected counts arrivals whose checksum verification failed
	// under a MsgCorrupt fault; each is discarded and recovered like a drop.
	CorruptDetected uint64
}

// TotalFlits returns total link-level flit traversals across classes.
func (n *Network) TotalFlits() uint64 {
	var t uint64
	for _, v := range n.TotalFlitsByClass {
		t += v
	}
	return t
}

// PushOutcome classifies what happened to one received push at a private
// cache (Fig 12 categories).
type PushOutcome uint8

// Push outcomes.
const (
	// PushDeadlockDrop: dropped because every line in the target set was in
	// a blocking transient state (deadlock avoidance).
	PushDeadlockDrop PushOutcome = iota
	// PushRedundancyDrop: dropped because the line was already present.
	PushRedundancyDrop
	// PushCoherenceDrop: dropped because the line had a conflicting
	// transient write upgrade outstanding.
	PushCoherenceDrop
	// PushUnused: installed but evicted without being accessed.
	PushUnused
	// PushMissToHit: installed and later accessed before eviction.
	PushMissToHit
	// PushEarlyResp: served an outstanding same-line read miss on arrival.
	PushEarlyResp
	NumPushOutcomes
)

var pushOutcomeNames = [NumPushOutcomes]string{
	"Deadlock-Drop", "Redundancy-Drop", "Coherence-Drop",
	"Unused", "Miss-to-Hit", "Early-Resp",
}

// String returns the outcome name.
func (o PushOutcome) String() string {
	if int(o) < len(pushOutcomeNames) {
		return pushOutcomeNames[o]
	}
	return "Unknown"
}

// Cache aggregates per-cache-level counters summed over all tiles.
type Cache struct {
	L1Accesses   uint64
	L1Misses     uint64
	L2Accesses   uint64
	L2Misses     uint64 // demand + prefetch misses, as the paper counts MPKI
	L2Evictions  uint64
	LLCAccesses  uint64
	LLCMisses    uint64
	LLCEvictions uint64
	// PushOutcomes is the Fig 12 breakdown, summed over private caches.
	PushOutcomes [NumPushOutcomes]uint64
	// PushesTriggered counts push transactions initiated by LLC slices;
	// PushDestinations sums their destination counts (avg destinations =
	// PushDestinations / PushesTriggered, the §IV-C profiling).
	PushesTriggered  uint64
	PushDestinations uint64
	// PausedPushRequests counts GetS requests carrying need_push=false.
	PausedPushRequests uint64
	// CoalescedRequests counts LLC requests merged by the Coalesce scheme.
	CoalescedRequests uint64
	// MemReads/MemWrites count DRAM transactions.
	MemReads  uint64
	MemWrites uint64
	// MSHRTimeouts counts L2 MSHR retry timers that fired and reissued a
	// demand request (lossy fault recovery; zero with faults off).
	MSHRTimeouts uint64
}

// TotalPushes returns the number of pushes received at private caches.
func (c *Cache) TotalPushes() uint64 {
	var t uint64
	for _, v := range c.PushOutcomes {
		t += v
	}
	return t
}

// UsefulPushes returns pushes that served a miss or turned a miss into a hit.
func (c *Cache) UsefulPushes() uint64 {
	return c.PushOutcomes[PushMissToHit] + c.PushOutcomes[PushEarlyResp]
}

// Core aggregates per-core execution counters summed over all cores.
type Core struct {
	Instructions uint64
	Cycles       uint64 // parallel-phase cycles (same for every core)
	Loads        uint64
	Stores       uint64
	StallCycles  uint64 // cycles the window was full
}

// GapReservoirCap bounds the sample count each sharer pair's gap reservoir
// retains; beyond it, Algorithm R keeps a uniform subsample.
const GapReservoirCap = 2048

// GapReservoir holds a bounded uniform sample of gap observations. Below
// GapReservoirCap it records everything (so small-scale quantiles are exact);
// past the cap it applies reservoir sampling (Algorithm R) driven by a
// deterministic LCG, keeping memory fixed on long full-scale traces while
// every observation — early or late — retains equal selection probability.
type GapReservoir struct {
	// Samples is the retained sample set, in retention order (not sorted).
	Samples []uint64
	// Seen counts every observation offered, retained or not.
	Seen uint64
	rng  uint64
}

// NewGapReservoir returns an empty reservoir; seed decorrelates the sampling
// streams of different reservoirs while keeping runs reproducible.
func NewGapReservoir(seed uint64) *GapReservoir {
	return &GapReservoir{rng: seed*2654435761 + 1}
}

// Observe offers one gap sample to the reservoir.
func (r *GapReservoir) Observe(gap uint64) {
	r.Seen++
	if len(r.Samples) < GapReservoirCap {
		r.Samples = append(r.Samples, gap)
		return
	}
	// Knuth MMIX LCG: deterministic, so identical runs keep identical samples.
	r.rng = r.rng*6364136223846793005 + 1442695040888963407
	if j := r.rng % r.Seen; j < GapReservoirCap {
		r.Samples[j] = gap
	}
}

// All is the top-level stats bundle for one simulation run.
type All struct {
	Net   Network
	Cache Cache
	Core  Core
	// SharerGaps records, for traced shared lines, the cycle gap between
	// consecutive accesses by distinct sharers (Fig 4). Keyed by the ordered
	// sharer pair index (prev*noc.MaxNodes+next, so no two pairs of a
	// 256-tile mesh share a key); each value is a bounded reservoir of gap
	// samples.
	SharerGaps map[int]*GapReservoir
}

// New returns an empty stats bundle.
func New() *All {
	return &All{SharerGaps: make(map[int]*GapReservoir)}
}

// ObserveGap records one sharer-gap sample into the keyed reservoir.
func (a *All) ObserveGap(key int, gap uint64) {
	r := a.SharerGaps[key]
	if r == nil {
		r = NewGapReservoir(uint64(key))
		a.SharerGaps[key] = r
	}
	r.Observe(gap)
}

// Add accumulates src's counters into a. It covers every counter field of
// Network, Cache, and Core (merge_test.go checks completeness by reflection);
// SharerGaps is excluded — reservoir sampling is order-sensitive and does
// not sum.
func (a *All) Add(src *All) {
	if need := len(src.Net.LinkFlits) - len(a.Net.LinkFlits); need > 0 {
		a.Net.LinkFlits = append(a.Net.LinkFlits, make([]uint64, need)...)
	}
	for i, v := range src.Net.LinkFlits {
		a.Net.LinkFlits[i] += v
	}
	for i, v := range src.Net.TotalFlitsByClass {
		a.Net.TotalFlitsByClass[i] += v
	}
	for u := range src.Net.InjectedFlits {
		for c, v := range src.Net.InjectedFlits[u] {
			a.Net.InjectedFlits[u][c] += v
		}
	}
	for u := range src.Net.EjectedFlits {
		for c, v := range src.Net.EjectedFlits[u] {
			a.Net.EjectedFlits[u][c] += v
		}
	}
	for u := range src.Net.InjectedPackets {
		for c, v := range src.Net.InjectedPackets[u] {
			a.Net.InjectedPackets[u][c] += v
		}
	}
	for u := range src.Net.EjectedPackets {
		for c, v := range src.Net.EjectedPackets[u] {
			a.Net.EjectedPackets[u][c] += v
		}
	}
	a.Net.FilteredRequests += src.Net.FilteredRequests
	a.Net.StalledInvCycles += src.Net.StalledInvCycles
	a.Net.MulticastReplicas += src.Net.MulticastReplicas
	a.Net.PacketLatencySum += src.Net.PacketLatencySum
	a.Net.PacketCount += src.Net.PacketCount
	a.Net.InjRefused += src.Net.InjRefused
	a.Net.FaultWindows += src.Net.FaultWindows
	a.Net.FaultJitterDelay += src.Net.FaultJitterDelay
	a.Net.FaultFilterSuppressed += src.Net.FaultFilterSuppressed
	a.Net.MsgDropped += src.Net.MsgDropped
	a.Net.Retransmits += src.Net.Retransmits
	a.Net.DupSuppressed += src.Net.DupSuppressed
	a.Net.CorruptDetected += src.Net.CorruptDetected

	a.Cache.L1Accesses += src.Cache.L1Accesses
	a.Cache.L1Misses += src.Cache.L1Misses
	a.Cache.L2Accesses += src.Cache.L2Accesses
	a.Cache.L2Misses += src.Cache.L2Misses
	a.Cache.L2Evictions += src.Cache.L2Evictions
	a.Cache.LLCAccesses += src.Cache.LLCAccesses
	a.Cache.LLCMisses += src.Cache.LLCMisses
	a.Cache.LLCEvictions += src.Cache.LLCEvictions
	for i, v := range src.Cache.PushOutcomes {
		a.Cache.PushOutcomes[i] += v
	}
	a.Cache.PushesTriggered += src.Cache.PushesTriggered
	a.Cache.PushDestinations += src.Cache.PushDestinations
	a.Cache.PausedPushRequests += src.Cache.PausedPushRequests
	a.Cache.CoalescedRequests += src.Cache.CoalescedRequests
	a.Cache.MemReads += src.Cache.MemReads
	a.Cache.MemWrites += src.Cache.MemWrites
	a.Cache.MSHRTimeouts += src.Cache.MSHRTimeouts

	a.Core.Instructions += src.Core.Instructions
	a.Core.Cycles += src.Core.Cycles
	a.Core.Loads += src.Core.Loads
	a.Core.Stores += src.Core.Stores
	a.Core.StallCycles += src.Core.StallCycles
}

// MPKI returns misses-per-kilo-instruction given a miss count.
func (a *All) MPKI(misses uint64) float64 {
	if a.Core.Instructions == 0 {
		return 0
	}
	return float64(misses) * 1000 / float64(a.Core.Instructions)
}
