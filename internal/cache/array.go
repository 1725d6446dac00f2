// Package cache implements the simulated cache hierarchy: private L1 and L2
// caches, the shared sliced LLC with its embedded directory, the MSI
// coherence controllers with the paper's PushAck and OrdPush extensions, the
// LLC push-trigger machinery, and the dynamic pause/resume knobs.
package cache

import (
	"fmt"
	"math/bits"

	"pushmulticast/internal/config"
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
// cache holds besides its address, which only the tags of its page keep
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
	way uint32 `snap:"-,layout: fixed when the way's page is carved"`
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

// Array is a set-associative cache structure, one of the arrays of a cache
// level, which all carve their pages from the level's Pool. Ways are numbered
// set after set. A set's state is its pages, each a run of pageWays of its
// ways in way order: each way's tag — its line address while the way is
// valid, noTag while its State is I — its Line and, in a directory array,
// its directory entry and sharer words. A way's tag is the only copy of its
// address, and a set's tags are the compact index a lookup reads instead of
// the lines themselves (ways*8 bytes against ways*24). Install and
// Invalidate are the only writers of a way's validity and keep the two in
// step; audit checks them.
//
// A page is carved the first time Victim hands out one of its ways, and a
// set's pages are carved in order: Victim hands out a free way of a carved
// page first, so it carves the set's next page only when every carved way
// holds a line. A set's carved pages are therefore a prefix of its pages,
// every way past them is free, and the lowest free way is the one Victim
// would hand out if the whole set had been carved at once. Until then a page
// is one zero word of pageOf, which is all an array allocates, so its memory
// follows the lines a run holds, not its capacity. A lookup stops at the
// set's first page not carved.
//
// An array the invariant checker tracks also marks every way it hands out —
// a Lookup hit, the way Victim returns, Install, Invalidate — and every way
// of a page it carves, until the checker's next sweep. Nothing keeps a *Line
// across ticks, so every write to a way's line or directory, and to its LLC
// transaction record, goes through a way marked in the same tick, and a
// sweep needs to look at no other.
type Array struct {
	// pageOf[p] locates page p — ways p*pageWays to (p+1)*pageWays-1 — in the
	// pool: one more than the pool's number for it, 0 while it is not carved.
	// It is the array's share of the pool's table.
	pageOf      []uint32 `snap:"-,layout: decoding carves each set's pages through its last valid way"`
	pool        *Pool
	sharerWords int    `snap:"-,config"`
	setMask     uint64 `snap:"-,config"`
	setShift    uint   `snap:"-,config"`
	ways        int    `snap:"-,config"`
	// pageWays is the number of ways a page holds, and setPages = ways /
	// pageWays the number of pages a set has.
	pageWays int `snap:"-,config"`
	setPages int `snap:"-,config"`
	// marks is nil unless the checker tracks the array.
	marks *marks `snap:"-,derived: the checker's sweep record; a built or restored array starts with every way marked"`
}

// Pool is the page store of one cache level of a machine: the L1s, the L2s
// or the LLC slices. Every array of the level carves its pages from the
// pool's slabs, slabPages pages each (the last cut to the level's pages
// left), which never move or grow, so a *Line stays valid while any array of
// the level carves, and at most one slab is not full. Page n is the
// n%slabPages-th of slab n/slabPages. The pool also holds the level's pageOf
// table, which its arrays share out, and its slab table is sized at build.
type Pool struct {
	slabs []slab
	// pages is the number of pages carved.
	pages int `snap:"-,layout: the count of nonzero pageOf entries"`
	// pageOf is the level's page table: array j's share is its j-th stretch
	// of pages, and arrays is the number of arrays built.
	pageOf []uint32 `snap:"-,layout: each array's share is described by the array"`
	arrays int      `snap:"-,layout: the arrays of the level"`
	// geometry is what each array of the level copies besides its share.
	geometry Array `snap:"-,config"`
}

// slab holds consecutive pages: tags[k] and lines[k] are its k-th way's and,
// in a directory array, dir[k] and sharers[k*sharerWords:(k+1)*sharerWords]
// that way's directory. The sharer words share the tags' allocation.
type slab struct {
	tags    []uint64
	lines   []Line
	dir     []DirEntry
	sharers []uint64
}

// slabPages is the number of pages in a slab: 12 KB of quarter LLC sets at up
// to 64 tiles, which bounds what a level's slabs hold beyond its pages.
const slabPages = 64

// marks is what a tracked array handed out since the checker's last sweep:
// one bit a way, and the addresses its ways stopped holding, oldest first.
type marks struct {
	ways  []uint64
	freed []uint64
}

// noTag is the tag of a free way. Line addresses are line-aligned, so no
// lookup ever asks for it.
const noTag = ^uint64(0)

// Pools are a machine's page pools, one a cache level.
type Pools struct{ L1, L2, LLC *Pool }

// NewPools builds the pools of cfg's machine: its caches' geometry, one array
// a tile at each level, and an LLC slice's directory (a tiles-bit sharer set
// beside every way) on an LLC interleaved over the tiles. A directory set is
// carved a quarter at a time, where four divides its ways: an LLC slice holds
// few lines a set, and a way carved costs it 48 bytes or more. A private set
// is one page: its sets fill.
func NewPools(cfg *config.System) Pools {
	t, llcPage := cfg.Tiles(), cfg.LLCWays
	if llcPage%4 == 0 {
		llcPage /= 4
	}
	return Pools{newPool(cfg.L1Size, cfg.L1Ways, cfg.L1Ways, 1, 0, t), newPool(cfg.L2Size, cfg.L2Ways, cfg.L2Ways, 1, 0, t),
		newPool(cfg.LLCSliceSize, cfg.LLCWays, llcPage, t, (t+63)/64, t)}
}

// newPool builds the pool of arrays arrays of sizeBytes capacity, the given
// associativity and noc.LineBytes lines, in pages of pageWays ways (which
// must divide ways), with sharerWords sharer words a way (0: not a directory
// array). The set count must come out a power of two. An array of an
// address-interleaved cache (interleave slices) skips the log2(interleave)
// address bits that select the slice when it computes the set index, so a
// slice uses all of its sets rather than the 1/interleave subset its stripe
// of addresses would otherwise map to.
func newPool(sizeBytes, ways, pageWays, interleave, sharerWords, arrays int) *Pool {
	sets := sizeBytes / noc.LineBytes / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two (size=%d ways=%d)", sets, sizeBytes, ways))
	}
	if interleave <= 0 || interleave&(interleave-1) != 0 {
		panic(fmt.Sprintf("cache: interleave %d not a power of two", interleave))
	}
	if pageWays <= 0 || ways%pageWays != 0 {
		panic(fmt.Sprintf("cache: pages of %d ways do not divide a %d-way set", pageWays, ways))
	}
	pages := arrays * sets * (ways / pageWays)
	p := &Pool{pageOf: make([]uint32, pages), slabs: make([]slab, 0, (pages+slabPages-1)/slabPages)}
	p.geometry = Array{pool: p, sharerWords: sharerWords, setMask: uint64(sets - 1),
		setShift: uint(bits.TrailingZeros(noc.LineBytes) + bits.TrailingZeros(uint(interleave))), ways: ways,
		pageWays: pageWays, setPages: ways / pageWays}
	return p
}

// newArray builds the next of the arrays the pool was built for. The caches
// hold their arrays by value, one allocation fewer each.
func (p *Pool) newArray() Array {
	a, pages := p.geometry, int(p.geometry.setMask+1)*p.geometry.setPages
	a.pageOf, p.arrays = p.pageOf[p.arrays*pages:(p.arrays+1)*pages], p.arrays+1
	return a
}

// Pages returns the number of pages carved and the number of ways the pool's
// slabs hold.
func (p *Pool) Pages() (pages, ways int) {
	if n := len(p.slabs); n > 0 {
		ways = (n-1)*slabPages*p.geometry.pageWays + len(p.slabs[n-1].lines)
	}
	return p.pages, ways
}

// set returns the set lineAddr maps to.
func (a *Array) set(lineAddr uint64) int { return int((lineAddr >> a.setShift) & a.setMask) }

// base returns the index of the first way of lineAddr's set.
func (a *Array) base(lineAddr uint64) int { return a.set(lineAddr) * a.ways }

// carve gives page p, which is not carved, the pool's next page: the next of
// its last slab's, or the first of a new slab. The page's ways come into
// being free, so a tracked array marks them all.
func (a *Array) carve(p int) {
	pl := a.pool
	k := pl.pages % slabPages * a.pageWays
	if k == 0 {
		n := min(slabPages, len(pl.pageOf)-pl.pages) * a.pageWays
		words := make([]uint64, n*(1+a.sharerWords))
		sl := slab{tags: words[:n:n], lines: make([]Line, n)}
		if a.sharerWords > 0 {
			sl.dir, sl.sharers = make([]DirEntry, n), words[n:]
		}
		pl.slabs = append(pl.slabs, sl)
	}
	sl := &pl.slabs[len(pl.slabs)-1]
	pl.pages, a.pageOf[p] = pl.pages+1, uint32(pl.pages+1)
	for w := range a.pageWays {
		i := p*a.pageWays + w
		sl.tags[k+w], sl.lines[k+w].way = noTag, uint32(i)
		a.mark(i, noTag)
	}
}

// page returns the slab holding page p and the offset there of its first
// way; sl is nil while the page is not carved.
func (a *Array) page(p int) (sl *slab, k int) {
	if v := a.pageOf[p]; v != 0 {
		return &a.pool.slabs[(v-1)/slabPages], int((v-1)%slabPages) * a.pageWays
	}
	return nil, 0
}

// locate returns the slab holding way i and the way's offset there; sl is nil
// while its page is not carved.
func (a *Array) locate(i int) (sl *slab, k int) {
	sl, k = a.page(i / a.pageWays)
	return sl, k + i%a.pageWays
}

// slot returns way i's line, or nil while its page is not carved.
func (a *Array) slot(i int) *Line {
	if sl, k := a.locate(i); sl != nil {
		return &sl.lines[k]
	}
	return nil
}

// dirWay returns the directory of l, a valid way of a directory array.
func (a *Array) dirWay(l *Line) DirWay { return a.dirOf(a.index(l)) }

// dirOf returns the directory of the way at offset k of slab sl.
func (a *Array) dirOf(sl *slab, k int) DirWay {
	return DirWay{&sl.dir[k], sl.sharers[k*a.sharerWords : (k+1)*a.sharerWords]}
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return len(a.pageOf) / a.setPages }

// find returns the line holding lineAddr and its way's number, or nil. It
// reads the set's carved pages, in order, and no further: the rest of the
// set is free.
func (a *Array) find(lineAddr uint64) (l *Line, i int) {
	first := a.set(lineAddr) * a.setPages
	for p := first; p < first+a.setPages; p++ {
		sl, k := a.page(p)
		if sl == nil {
			break
		}
		for w, t := range sl.tags[k : k+a.pageWays] {
			if t == lineAddr {
				return &sl.lines[k+w], p*a.pageWays + w
			}
		}
	}
	return nil, 0
}

// Lookup returns the line holding lineAddr, or nil.
func (a *Array) Lookup(lineAddr uint64) *Line {
	l, i := a.find(lineAddr)
	if l != nil {
		a.mark(i, noTag)
	}
	return l
}

// Peek is Lookup for the checker and tests: it hands nothing out, so it
// marks nothing, and a line it returns must not be written.
func (a *Array) Peek(lineAddr uint64) *Line {
	l, _ := a.find(lineAddr)
	return l
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
	a.marks = &marks{ways: make([]uint64, (a.Len()+63)/64)}
	for i := range a.Len() {
		a.mark(i, noTag)
	}
}

// nextMarked returns the first way from i on that was handed out since the
// last ClearMarks, or -1; always -1 on an untracked array.
func (a *Array) nextMarked(i int) int {
	if a.marks == nil || i >= a.Len() {
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
	if i < a.Len() {
		return i
	}
	return -1
}

// ForEachMarked visits each way handed out since the last ClearMarks that
// holds a line, in way order, with the line's address.
func (a *Array) ForEachMarked(f func(addr uint64, l *Line)) {
	for i := a.nextMarked(0); i >= 0; i = a.nextMarked(i + 1) {
		if sl, k := a.locate(i); sl != nil && sl.tags[k] != noTag {
			f(sl.tags[k], &sl.lines[k])
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
func (a *Array) Len() int { return len(a.pageOf) * a.pageWays }

// Way returns way i's address (^0 while free), its line (nil while its page
// is not carved), and whether it was handed out since the last ClearMarks
// (tests).
func (a *Array) Way(i int) (addr uint64, l *Line, marked bool) {
	addr, marked = noTag, a.marks != nil && a.marks.ways[i>>6]&(1<<(i&63)) != 0
	if sl, k := a.locate(i); sl != nil {
		addr, l = sl.tags[k], &sl.lines[k]
	}
	return addr, l, marked
}

// Victim returns the replacement candidate for lineAddr under the policy:
// the lowest free way first, then the least-recently-used line for which
// allowed returns true (the lowest way of those last used earliest). It
// returns nil when no way qualifies. A free way of a carved page comes
// first; with none, the set's next page is carved and its first way handed
// out; only a set whose pages are all carved and full has no free way.
func (a *Array) Victim(lineAddr uint64, allowed func(*Line) bool) *Line {
	first := a.set(lineAddr) * a.setPages
	for p := first; p < first+a.setPages; p++ {
		sl, k := a.page(p)
		if sl == nil {
			a.carve(p) // marks the page's ways, the one handed out among them
			sl, k = a.page(p)
			return &sl.lines[k]
		}
		for w, t := range sl.tags[k : k+a.pageWays] {
			if t == noTag {
				a.mark(p*a.pageWays+w, noTag)
				return &sl.lines[k+w]
			}
		}
	}
	var best *Line
	for p := first; p < first+a.setPages; p++ {
		sl, k := a.page(p)
		for w := range a.pageWays {
			if l := &sl.lines[k+w]; allowed(l) && (best == nil || l.LastUse < best.LastUse) {
				best = l
			}
		}
	}
	if best != nil {
		a.mark(int(best.way), noTag)
	}
	return best
}

// ForEach visits every valid line with its address, in way order.
func (a *Array) ForEach(f func(addr uint64, l *Line)) {
	for p := range a.pageOf {
		if sl, k := a.page(p); sl != nil {
			for w, t := range sl.tags[k : k+a.pageWays] {
				if t != noTag {
					f(t, &sl.lines[k+w])
				}
			}
		}
	}
}

// index returns the slab holding l, a way of this array, and its offset
// there: the way's number is the one the line carries, checked against that
// way's slot, so a line of another array or none panics.
func (a *Array) index(l *Line) (sl *slab, k int) {
	if i := int(l.way); i < a.Len() {
		if sl, k = a.locate(i); sl != nil && &sl.lines[k] == l {
			return sl, k
		}
	}
	panic("cache: line is not a way of this array")
}

// Tag returns the address of the line l, a way of this array, holds (noTag
// while the way is free).
func (a *Array) Tag(l *Line) uint64 {
	sl, k := a.index(l)
	return sl.tags[k]
}

// Install claims the given line struct, a way of lineAddr's set, for
// lineAddr, resetting metadata (and, in a directory array, the way's
// directory entry).
func (a *Array) Install(l *Line, lineAddr uint64, st State, now sim.Cycle) {
	sl, k := a.index(l)
	w := int(l.way)
	if st == StateI || lineAddr == noTag || a.base(lineAddr) != w-w%a.ways {
		panic(fmt.Sprintf("cache: installing %#x in state %v in way %d", lineAddr, st, w))
	}
	a.mark(w, sl.tags[k])
	sl.tags[k] = lineAddr
	*l = Line{State: st, LastUse: now, way: l.way}
	if a.sharerWords > 0 {
		d := a.dirOf(sl, k)
		*d.DirEntry = DirEntry{}
		clear(d.words)
	}
}

// Invalidate frees the way holding the valid line l. The rest of the line
// is left as it was: a free way's metadata is never read.
func (a *Array) Invalidate(l *Line) {
	sl, k := a.index(l)
	a.mark(int(l.way), sl.tags[k])
	sl.tags[k] = noTag
	l.State = StateI
}

// audit checks the tag index against the lines' states: a way is tagged
// while its line is valid and only then, and every tag is a line address
// of the way's set that no other way of the set holds. A way of a page that
// is not carved is free, and a carved page follows its set's earlier pages,
// all carved: a lookup reads no further than the first that is not. The
// snapshot decoder runs it on every array it fills.
func (a *Array) audit() error { return a.auditWays(a.nextWay) }

// auditMarked is audit on the ways handed out since the last ClearMarks:
// every other way was audited unchanged before, so a break of the index
// involves one of these.
func (a *Array) auditMarked() error { return a.auditWays(a.nextMarked) }

// auditWays audits every way next yields (next(i): the first from i on, or
// -1) against its set.
func (a *Array) auditWays(next func(int) int) error {
	for i := next(0); i >= 0; i = next(i + 1) {
		sl, k := a.locate(i)
		if sl == nil { // a page not carved: free ways
			continue
		}
		p, first := i/a.pageWays, i/a.ways*a.setPages
		if p != first && a.pageOf[p-1] == 0 {
			return fmt.Errorf("way %d is on page %d of its set, carved while page %d is not", i, p-first, p-first-1)
		}
		t, st := sl.tags[k], sl.lines[k].State
		switch {
		case st == StateI && t != noTag:
			return fmt.Errorf("way %d is free but tagged %#x", i, t)
		case st == StateI:
			continue
		case t == noTag:
			return fmt.Errorf("way %d holds a line in %v but no tag", i, st)
		case t%noc.LineBytes != 0:
			return fmt.Errorf("way %d is tagged %#x, not a line address", i, t)
		case a.base(t) != i-i%a.ways:
			return fmt.Errorf("way %d is tagged %#x, a line of another set", i, t)
		}
		for q := first; q < first+a.setPages; q++ {
			qsl, qk := a.page(q)
			if qsl == nil {
				break
			}
			for w, u := range qsl.tags[qk : qk+a.pageWays] {
				if j := q*a.pageWays + w; j != i && u == t {
					return fmt.Errorf("line %#x is valid in ways %d and %d of one set", t, min(i, j), max(i, j))
				}
			}
		}
	}
	return nil
}
