// Package cache implements the simulated cache hierarchy: private L1 and L2
// caches, the shared sliced LLC with its embedded directory, the MSI
// coherence controllers with the paper's PushAck and OrdPush extensions, the
// LLC push-trigger machinery, and the dynamic pause/resume knobs.
package cache

import (
	"fmt"
	"math/bits"

	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
)

// State is a per-line coherence state. Private-cache lines use the I/S/M
// stable states plus transients; LLC lines use the L-prefixed states.
type State uint8

// Private cache line states.
const (
	// StateI: invalid / way free.
	StateI State = iota
	// StateS: shared, read-only, clean with respect to the LLC.
	StateS
	// StateM: modified, exclusive ownership.
	StateM
	// StateISD: GetS outstanding, waiting for data.
	StateISD
	// StateISDI: invalidated while ISD; arriving data is used once by the
	// waiting loads and then discarded.
	StateISDI
	// StateIMD: GetM outstanding from I, waiting for exclusive data.
	StateIMD
	// StateSMD: GetM outstanding from S (upgrade), S data still readable.
	StateSMD

	// LLC line states.

	// StateLV: valid at LLC, no private owner (sharers may exist).
	StateLV
	// StateLM: owned modified by one private cache; LLC data stale.
	StateLM
	// StateLP: shared-push outstanding (PushAck protocol's semi-blocking P
	// state): reads are served, writes stall until all PushAcks arrive.
	StateLP
	// StateLSInv: invalidation episode running for a pending write.
	StateLSInv
	// StateLMInv: recall episode running (owner asked to invalidate and
	// return data).
	StateLMInv
	// StateLFetch: memory fetch outstanding.
	StateLFetch
)

var stateNames = map[State]string{
	StateI: "I", StateS: "S", StateM: "M",
	StateISD: "IS_D", StateISDI: "IS_D_I", StateIMD: "IM_D", StateSMD: "SM_D",
	StateLV: "LV", StateLM: "LM", StateLP: "LP",
	StateLSInv: "LS_Inv", StateLMInv: "LM_Inv", StateLFetch: "LFetch",
}

// String names the state.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Transient reports whether the state is a blocking transient; pushes may
// not evict transient lines (deadlock avoidance, §III-B).
func (s State) Transient() bool {
	switch s {
	case StateISD, StateISDI, StateIMD, StateSMD,
		StateLSInv, StateLMInv, StateLFetch, StateLP:
		return true
	}
	return false
}

// Line is one cache line's tag, state, and metadata: what every way of every
// cache holds. Three words, then four bytes — 32 bytes a way. The directory
// words of an LLC way live beside it in its array's DirEntry table.
type Line struct {
	// Tag is the full line address (64-byte aligned); valid when State != I.
	Tag uint64
	// Version is the line's write serial number (the simulated data value).
	Version uint64
	// LastUse drives LRU replacement.
	LastUse sim.Cycle
	// State is the coherence state.
	State State
	// Dirty, at the LLC, marks data newer than memory.
	Dirty bool
	// Pushed/Accessed implement the pause-knob usefulness tracking: Pushed
	// is set when a push installs the line, Accessed on its first use.
	Pushed, Accessed bool
}

// DirEntry is the directory state of one LLC way (§III): 40 bytes, allocated
// only by a directory array.
type DirEntry struct {
	// Sharers is the directory's sharer bit vector. Silent S-state
	// evictions make it a conservative superset of true holders, which is
	// exactly the property push speculation exploits.
	Sharers noc.DestSet
	// Owner is the M-state owner when State == StateLM.
	Owner noc.NodeID
	// Epoch tags invalidation episodes so stale acknowledgments are
	// discarded.
	Epoch uint32
}

// Array is a set-associative cache structure. Lines are stored set after
// set; tags is the compact per-set index a lookup reads instead of the lines
// themselves (a set's ways*8 bytes against ways*32): tags[i] is lines[i].Tag
// while lines[i] is valid and noTag while its State is I. Install and
// Invalidate are the only writers of a line's validity and keep the two in
// step; reindex rebuilds tags from lines and audit compares the two. A
// directory array also holds dir[i], way i's directory entry; a private
// cache's array has none.
type Array struct {
	lines    []Line
	dir      []DirEntry
	tags     []uint64 `snap:"-,derived: lines[i].Tag where lines[i].State != StateI"`
	setMask  uint64   `snap:"-,config"`
	setShift uint     `snap:"-,config"`
	ways     int      `snap:"-,config"`
}

// noTag marks a free way in Array.tags. Line addresses are line-aligned, so
// no lookup ever asks for it.
const noTag = ^uint64(0)

// NewArray builds an array with sizeBytes capacity, the given associativity,
// and noc.LineBytes lines. The set count must come out a power of two.
func NewArray(sizeBytes, ways int) *Array {
	return NewInterleavedArray(sizeBytes, ways, 1)
}

// NewInterleavedArray builds an array for one slice of an address-
// interleaved cache: the log2(interleave) address bits that select the
// slice are skipped when computing the set index, so a slice uses all of
// its sets rather than the 1/interleave subset its stripe of addresses
// would otherwise map to.
func NewInterleavedArray(sizeBytes, ways, interleave int) *Array {
	sets := sizeBytes / noc.LineBytes / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two (size=%d ways=%d)", sets, sizeBytes, ways))
	}
	if interleave <= 0 || interleave&(interleave-1) != 0 {
		panic(fmt.Sprintf("cache: interleave %d not a power of two", interleave))
	}
	a := &Array{
		lines:    make([]Line, sets*ways),
		tags:     make([]uint64, sets*ways),
		setMask:  uint64(sets - 1),
		setShift: uint(bits.TrailingZeros(noc.LineBytes) + bits.TrailingZeros(uint(interleave))),
		ways:     ways,
	}
	for i := range a.tags {
		a.tags[i] = noTag // without reading — and so faulting in — the lines
	}
	return a
}

// newDirectoryArray builds an LLC slice's array: an interleaved array with a
// directory entry beside every way.
func newDirectoryArray(sizeBytes, ways, interleave int) *Array {
	a := NewInterleavedArray(sizeBytes, ways, interleave)
	a.dir = make([]DirEntry, len(a.lines))
	return a
}

// dirEntry returns the directory entry of l, a valid way of a directory
// array.
func (a *Array) dirEntry(l *Line) *DirEntry { return &a.dir[a.way(l, l.Tag)] }

// Sets returns the number of sets.
func (a *Array) Sets() int { return len(a.lines) / a.ways }

// base returns the index of the first way of lineAddr's set.
func (a *Array) base(lineAddr uint64) int {
	return int((lineAddr>>a.setShift)&a.setMask) * a.ways
}

// Lookup returns the line holding lineAddr, or nil.
func (a *Array) Lookup(lineAddr uint64) *Line {
	base := a.base(lineAddr)
	for w, t := range a.tags[base : base+a.ways] {
		if t == lineAddr {
			return &a.lines[base+w]
		}
	}
	return nil
}

// Victim returns the replacement candidate for lineAddr under the policy:
// a free way first, then the least-recently-used line for which allowed
// returns true. It returns nil when no way qualifies.
func (a *Array) Victim(lineAddr uint64, allowed func(*Line) bool) *Line {
	base := a.base(lineAddr)
	for w, t := range a.tags[base : base+a.ways] {
		if t == noTag {
			return &a.lines[base+w]
		}
	}
	var best *Line
	for i := base; i < base+a.ways; i++ {
		if l := &a.lines[i]; allowed(l) && (best == nil || l.LastUse < best.LastUse) {
			best = l
		}
	}
	return best
}

// ForEach visits every non-invalid line.
func (a *Array) ForEach(f func(*Line)) {
	for i, t := range a.tags {
		if t != noTag {
			f(&a.lines[i])
		}
	}
}

// way returns the index in lines of l, a way of lineAddr's set.
func (a *Array) way(l *Line, lineAddr uint64) int {
	base := a.base(lineAddr)
	for i := base; i < base+a.ways; i++ {
		if &a.lines[i] == l {
			return i
		}
	}
	panic(fmt.Sprintf("cache: line is not a way of %#x's set", lineAddr))
}

// Install claims the given line struct, a way of lineAddr's set, for
// lineAddr, resetting metadata (and, in a directory array, the way's
// directory entry).
func (a *Array) Install(l *Line, lineAddr uint64, st State, now sim.Cycle) {
	if st == StateI || lineAddr == noTag {
		panic(fmt.Sprintf("cache: installing %#x in state %v", lineAddr, st))
	}
	w := a.way(l, lineAddr)
	a.tags[w] = lineAddr
	*l = Line{Tag: lineAddr, State: st, LastUse: now}
	if a.dir != nil {
		a.dir[w] = DirEntry{}
	}
}

// Invalidate frees the way holding the valid line l. The rest of the line
// is left as it was: a free way's metadata is never read.
func (a *Array) Invalidate(l *Line) {
	a.tags[a.way(l, l.Tag)] = noTag
	l.State = StateI
}

// indexed returns what tags[i] restates: way i's address while its line is
// valid, noTag while it is free.
func (a *Array) indexed(i int) uint64 {
	if l := &a.lines[i]; l.State != StateI {
		return l.Tag
	}
	return noTag
}

// reindex rebuilds tags from the lines (after a snapshot decode wrote them).
func (a *Array) reindex() {
	for i := range a.tags {
		a.tags[i] = a.indexed(i)
	}
}

// audit checks the tag index against the lines it summarizes: a way is
// tagged with what reindex would tag it, every valid line sits in the set
// its address maps to, and no set holds an address twice.
func (a *Array) audit() error {
	for set := 0; set < len(a.tags); set += a.ways {
		for i := set; i < set+a.ways; i++ {
			t := a.tags[i]
			switch want := a.indexed(i); {
			case want == noTag && t != noTag:
				return fmt.Errorf("way %d is free but indexed as %#x", i, t)
			case want == noTag:
				continue
			case t != want || a.base(t) != set:
				l := &a.lines[i]
				return fmt.Errorf("way %d holds %#x (%v) but is indexed as %#x", i, l.Tag, l.State, t)
			}
			for j := set; j < i; j++ {
				if a.tags[j] == t {
					return fmt.Errorf("line %#x is valid in ways %d and %d of one set", t, j, i)
				}
			}
		}
	}
	return nil
}
