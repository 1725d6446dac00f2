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

// Line is one cache line's state and metadata: what every way of every
// cache holds besides its address, which only its array's tag index keeps
// (Array.Tag). Two words, then four bytes and the way's number — 24 bytes a
// way. The directory words of an LLC way live beside it in its page.
type Line struct {
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
	// way is the line's way number in its array, which finds its tag and
	// directory (Array.index).
	way uint32 `snap:"-,layout: fixed when the way's set gets its page"`
}

// DirEntry is the directory state of one LLC way (§III) besides its sharer
// set: 8 bytes, allocated only by a directory array.
type DirEntry struct {
	// Owner is the M-state owner when State == StateLM.
	Owner noc.NodeID
	// Epoch tags invalidation episodes so stale acknowledgments are
	// discarded.
	Epoch uint32
}

// DirWay is a directory array's view of one way: its entry and its sharer
// words, as many as the mesh needs (one per 64 tiles). The sharer set is the
// directory's bit vector; silent S-state evictions make it a conservative
// superset of true holders, which is exactly what push speculation exploits.
type DirWay struct {
	*DirEntry
	words []uint64
}

// Sharers loads the way's sharer set.
func (d DirWay) Sharers() (s noc.DestSet) {
	copy(s[:], d.words)
	return s
}

// SetSharers stores s as the way's sharer set. Only a bug puts a non-tile in
// a sharer set, so a member past the way's words panics.
func (d DirWay) SetSharers(s noc.DestSet) {
	if past := s.Subtract(s.Mask(64 * copy(d.words, s[:]))); !past.Empty() {
		panic(fmt.Sprintf("cache: sharer %d past the directory's %d words", past.First(), len(d.words)))
	}
}

// Array is a set-associative cache structure. Ways are numbered set after
// set; tags[i] is way i's line address while the way is valid and noTag
// while its State is I. It is the only copy of a way's tag, and the compact
// per-set index a lookup reads instead of the lines themselves (a set's
// ways*8 bytes against ways*24). Install and Invalidate are the only writers
// of a way's validity and keep the two in step; audit checks them.
//
// The rest of a set is its page: its Lines and, in a directory array, each
// way's directory entry and sharer words. A set gets its page the first time
// Victim hands out one of its ways; until then its ways are free and only
// their tags exist, so an array's memory follows the sets a run touches, not
// its capacity. Pages are carved in that order from slabs that never move or
// grow, so a *Line stays valid while other sets get pages: slab j holds
// pageGranule<<j pages (fewer where the sets run out), which keeps an
// array's allocations few however far it fills.
//
// An array the invariant checker tracks also marks every way it hands out —
// a Lookup hit, the way Victim returns, Install, Invalidate — and every way
// of a set that gets its page, until the checker's next sweep. Nothing keeps
// a *Line across ticks, so every write to a way's line or directory, and to
// its LLC transaction record, goes through a way marked in the same tick, and
// a sweep needs to look at no other.
type Array struct {
	tags []uint64
	// pageOf[s] locates set s's page: the number of its slab in the high 32
	// bits and one more than the offset of its first way there in the low 32;
	// 0 while the set has none. It shares tags' allocation.
	pageOf []uint64 `snap:"-,layout: decoding gives a page to each set with a valid way"`
	slabs  []slab
	// pages is the number of pages carved.
	pages       int    `snap:"-,layout: the count of nonzero pageOf entries"`
	sharerWords int    `snap:"-,config"`
	setMask     uint64 `snap:"-,config"`
	setShift    uint   `snap:"-,config"`
	ways        int    `snap:"-,config"`
	// marks is nil unless the checker tracks the array.
	marks *marks `snap:"-,derived: the checker's sweep record; a built or restored array starts with every way marked"`
}

// slab holds consecutive pages: lines[k] is its k-th way and, in a directory
// array, dir[k] and sharers[k*sharerWords:(k+1)*sharerWords] that way's
// directory.
type slab struct {
	lines   []Line
	dir     []DirEntry
	sharers []uint64
}

// pageGranule is the number of pages in an array's first slab; each later
// slab holds twice the one before.
const pageGranule = 16

// marks is what a tracked array handed out since the checker's last sweep:
// one bit a way, and the addresses its ways stopped holding, oldest first.
type marks struct {
	ways  []uint64
	freed []uint64
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
	a := newArray(sizeBytes, ways, interleave, 0)
	return &a
}

// newDirectoryArray builds the array of one slice of an LLC interleaved over
// tiles slices: an interleaved array with a directory entry and a tiles-bit
// sharer set beside every way.
func newDirectoryArray(sizeBytes, ways, tiles int) Array {
	return newArray(sizeBytes, ways, tiles, (tiles+63)/64)
}

// newArray builds an array interleaved over interleave slices with
// sharerWords sharer words a way (0: not a directory array). The caches hold
// their arrays by value, one allocation fewer each.
func newArray(sizeBytes, ways, interleave, sharerWords int) Array {
	sets := sizeBytes / noc.LineBytes / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two (size=%d ways=%d)", sets, sizeBytes, ways))
	}
	if interleave <= 0 || interleave&(interleave-1) != 0 {
		panic(fmt.Sprintf("cache: interleave %d not a power of two", interleave))
	}
	index := make([]uint64, sets*ways+sets)
	a := Array{
		tags:        index[:sets*ways],
		pageOf:      index[sets*ways:],
		slabs:       make([]slab, 0, bits.Len(uint((sets+pageGranule-1)/pageGranule))),
		sharerWords: sharerWords,
		setMask:     uint64(sets - 1),
		setShift:    uint(bits.TrailingZeros(noc.LineBytes) + bits.TrailingZeros(uint(interleave))),
		ways:        ways,
	}
	for i := range a.tags {
		a.tags[i] = noTag
	}
	return a
}

// set returns the set lineAddr maps to.
func (a *Array) set(lineAddr uint64) int { return int((lineAddr >> a.setShift) & a.setMask) }

// base returns the index of the first way of lineAddr's set.
func (a *Array) base(lineAddr uint64) int { return a.set(lineAddr) * a.ways }

// carve gives set s, which has no page, the next page: the next of the last
// slab's, or the first of a new slab. Slab j holds pages pageGranule*(2^j-1)
// up to pageGranule*(2^(j+1)-1). The set's ways come into being, so a
// tracked array marks them all.
func (a *Array) carve(s int) {
	p := a.pages
	j := bits.Len(uint(p/pageGranule+1)) - 1
	if j == len(a.slabs) {
		n := min(pageGranule<<j, len(a.pageOf)-p) * a.ways
		sl := slab{lines: make([]Line, n)}
		if a.sharerWords > 0 {
			sl.dir, sl.sharers = make([]DirEntry, n), make([]uint64, n*a.sharerWords)
		}
		a.slabs = append(a.slabs, sl)
	}
	a.pages++
	a.pageOf[s] = uint64(j)<<32 | uint64((p-pageGranule*(1<<j-1))*a.ways+1)
	lines := a.page(s)
	for w := range lines {
		lines[w].way = uint32(s*a.ways + w)
		a.mark(s*a.ways+w, noTag)
	}
}

// at returns the slab holding way w of set s and the way's offset in it; sl
// is nil while the set has no page.
func (a *Array) at(s, w int) (sl *slab, k int) {
	v := a.pageOf[s]
	if v == 0 {
		return nil, 0
	}
	return &a.slabs[v>>32], int(uint32(v)) - 1 + w
}

// page returns the lines of set s, which has a page.
func (a *Array) page(s int) []Line {
	sl, k := a.at(s, 0)
	return sl.lines[k : k+a.ways : k+a.ways]
}

// slot returns way i's line, or nil while its set has no page.
func (a *Array) slot(i int) *Line {
	s := i / a.ways
	if sl, k := a.at(s, i-s*a.ways); sl != nil {
		return &sl.lines[k]
	}
	return nil
}

// dirWay returns the directory of l, a valid way of a directory array.
func (a *Array) dirWay(l *Line) DirWay { return a.dirAt(a.index(l)) }

// dirAt returns the directory of way i, whose set has a page.
func (a *Array) dirAt(i int) DirWay {
	s := i / a.ways
	sl, k := a.at(s, i-s*a.ways)
	return DirWay{&sl.dir[k], sl.sharers[k*a.sharerWords : (k+1)*a.sharerWords]}
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return len(a.pageOf) }

// Pages returns the number of sets that have a page and the number of ways
// the slabs they were carved from hold.
func (a *Array) Pages() (sets, ways int) {
	for _, sl := range a.slabs {
		ways += len(sl.lines)
	}
	return a.pages, ways
}

// find returns lineAddr's set and the way of it holding lineAddr, or -1.
func (a *Array) find(lineAddr uint64) (s, w int) {
	s = a.set(lineAddr)
	for w, t := range a.tags[s*a.ways : (s+1)*a.ways] {
		if t == lineAddr {
			return s, w
		}
	}
	return s, -1
}

// Lookup returns the line holding lineAddr, or nil.
func (a *Array) Lookup(lineAddr uint64) *Line {
	s, w := a.find(lineAddr)
	if w < 0 {
		return nil
	}
	a.mark(s*a.ways+w, noTag)
	sl, k := a.at(s, w)
	return &sl.lines[k]
}

// Peek is Lookup for the checker and tests: it hands nothing out, so it
// marks nothing, and a line it returns must not be written.
func (a *Array) Peek(lineAddr uint64) *Line {
	if s, w := a.find(lineAddr); w >= 0 {
		sl, k := a.at(s, w)
		return &sl.lines[k]
	}
	return nil
}

// mark records that way i was handed out and, unless freed is noTag, that
// it stopped holding the line freed. It is a no-op on an untracked array.
func (a *Array) mark(i int, freed uint64) {
	if m := a.marks; m != nil {
		m.ways[i>>6] |= 1 << (i & 63)
		if freed != noTag {
			m.freed = append(m.freed, freed)
		}
	}
}

// Track starts marking the ways the array hands out, with every way marked:
// the first sweep after it sees the whole array.
func (a *Array) Track() {
	a.marks = &marks{ways: make([]uint64, (len(a.tags)+63)/64)}
	for i := range a.tags {
		a.mark(i, noTag)
	}
}

// nextMarked returns the first way from i on that was handed out since the
// last ClearMarks, or -1; always -1 on an untracked array.
func (a *Array) nextMarked(i int) int {
	if a.marks == nil || i >= len(a.tags) {
		return -1
	}
	w := i >> 6
	for word := a.marks.ways[w] &^ (1<<(i&63) - 1); ; word = a.marks.ways[w] {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
		if w++; w == len(a.marks.ways) {
			return -1
		}
	}
}

// nextWay returns i while it is a way, or -1: nextMarked with every way
// marked.
func (a *Array) nextWay(i int) int {
	if i < len(a.tags) {
		return i
	}
	return -1
}

// ForEachMarked visits each way handed out since the last ClearMarks that
// holds a line, in way order, with the line's address.
func (a *Array) ForEachMarked(f func(addr uint64, l *Line)) {
	for i := a.nextMarked(0); i >= 0; i = a.nextMarked(i + 1) {
		if t := a.tags[i]; t != noTag {
			f(t, a.slot(i))
		}
	}
}

// Freed returns the addresses the array's ways stopped holding since the
// last ClearMarks, oldest first (repeats included).
func (a *Array) Freed() []uint64 {
	if a.marks == nil {
		return nil
	}
	return a.marks.freed
}

// ClearMarks forgets what the array handed out: the checker's sweep is done
// with it.
func (a *Array) ClearMarks() {
	if m := a.marks; m != nil {
		clear(m.ways)
		m.freed = m.freed[:0]
	}
}

// Len returns the number of ways.
func (a *Array) Len() int { return len(a.tags) }

// Way returns way i's address (^0 while free), its line (nil while its set
// has no page), and whether it was handed out since the last ClearMarks
// (tests).
func (a *Array) Way(i int) (addr uint64, l *Line, marked bool) {
	return a.tags[i], a.slot(i), a.marks != nil && a.marks.ways[i>>6]&(1<<(i&63)) != 0
}

// Victim returns the replacement candidate for lineAddr under the policy:
// a free way first, then the least-recently-used line for which allowed
// returns true. It returns nil when no way qualifies. Handing out a way of a
// set that has no page gives the set its page.
func (a *Array) Victim(lineAddr uint64, allowed func(*Line) bool) *Line {
	s := a.set(lineAddr)
	base := s * a.ways
	for w, t := range a.tags[base : base+a.ways] {
		if t == noTag {
			if a.pageOf[s] == 0 {
				a.carve(s)
			}
			a.mark(base+w, noTag)
			return &a.page(s)[w]
		}
	}
	lines, best := a.page(s), -1
	for w := range lines {
		if l := &lines[w]; allowed(l) && (best < 0 || l.LastUse < lines[best].LastUse) {
			best = w
		}
	}
	if best < 0 {
		return nil
	}
	a.mark(base+best, noTag)
	return &lines[best]
}

// ForEach visits every valid line with its address, in way order.
func (a *Array) ForEach(f func(addr uint64, l *Line)) {
	for s, p := range a.pageOf {
		if p == 0 {
			continue
		}
		lines := a.page(s)
		for w, t := range a.tags[s*a.ways : (s+1)*a.ways] {
			if t != noTag {
				f(t, &lines[w])
			}
		}
	}
}

// index returns the number of l, a way of this array: the number the line
// carries, checked against that way's slot, so a line of another array or
// none panics.
func (a *Array) index(l *Line) int {
	if i := int(l.way); i < len(a.tags) && a.slot(i) == l {
		return i
	}
	panic("cache: line is not a way of this array")
}

// Tag returns the address of the line l, a way of this array, holds (noTag
// while the way is free).
func (a *Array) Tag(l *Line) uint64 { return a.tags[a.index(l)] }

// Install claims the given line struct, a way of lineAddr's set, for
// lineAddr, resetting metadata (and, in a directory array, the way's
// directory entry).
func (a *Array) Install(l *Line, lineAddr uint64, st State, now sim.Cycle) {
	w := a.index(l)
	if st == StateI || lineAddr == noTag || a.base(lineAddr) != w-w%a.ways {
		panic(fmt.Sprintf("cache: installing %#x in state %v in way %d", lineAddr, st, w))
	}
	a.mark(w, a.tags[w])
	a.tags[w] = lineAddr
	*l = Line{State: st, LastUse: now, way: l.way}
	if a.sharerWords > 0 {
		d := a.dirAt(w)
		*d.DirEntry = DirEntry{}
		clear(d.words)
	}
}

// Invalidate frees the way holding the valid line l. The rest of the line
// is left as it was: a free way's metadata is never read.
func (a *Array) Invalidate(l *Line) {
	w := a.index(l)
	a.mark(w, a.tags[w])
	a.tags[w] = noTag
	l.State = StateI
}

// audit checks the tag index against the lines' states: a way is tagged
// while its line is valid and only then, and every tag is a line address
// of the way's set that no other way of the set holds. A way of a set with
// no page is free. The snapshot decoder runs it on every array it fills.
func (a *Array) audit() error { return a.auditWays(a.nextWay) }

// auditMarked is audit on the ways handed out since the last ClearMarks:
// every other way was audited unchanged before, so a break of the index
// involves one of these.
func (a *Array) auditMarked() error { return a.auditWays(a.nextMarked) }

// auditWays audits every way next yields (next(i): the first from i on, or
// -1) against its set.
func (a *Array) auditWays(next func(int) int) error {
	for i := next(0); i >= 0; i = next(i + 1) {
		set := i - i%a.ways
		t, st := a.tags[i], StateI
		if l := a.slot(i); l != nil {
			st = l.State
		}
		switch {
		case st == StateI && t != noTag:
			return fmt.Errorf("way %d is free but tagged %#x", i, t)
		case st == StateI:
			continue
		case t == noTag:
			return fmt.Errorf("way %d holds a line in %v but no tag", i, st)
		case t%noc.LineBytes != 0:
			return fmt.Errorf("way %d is tagged %#x, not a line address", i, t)
		case a.base(t) != set:
			return fmt.Errorf("way %d is tagged %#x, a line of another set", i, t)
		}
		for j := set; j < set+a.ways; j++ {
			if j != i && a.tags[j] == t {
				return fmt.Errorf("line %#x is valid in ways %d and %d of one set", t, min(i, j), max(i, j))
			}
		}
	}
	return nil
}
