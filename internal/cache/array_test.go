package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
)

// TestLineLayout pins what Line's field order is for: a way of any cache is
// two words, four bytes and its way number (its tag lives once, beside it in
// its page), and the directory words are the LLC's alone. A way costs nothing
// until its page is carved, and then 32 bytes (its tag and Line) in a private
// array, 16 more in a directory array at up to 64 tiles (an 8-byte entry and
// one sharer word) and 40 more at 256 (four words).
func TestLineLayout(t *testing.T) {
	if size := unsafe.Sizeof(Line{}); size != 24 {
		t.Errorf("Line is %d bytes, want 24", size)
	}
	if off := unsafe.Offsetof(Line{}.way); off != 20 {
		t.Errorf("Line's way number is at byte %d, want 20: the padding after its four flag bytes", off)
	}
	if size := unsafe.Sizeof(DirEntry{}); size != 8 {
		t.Errorf("DirEntry is %d bytes, want 8", size)
	}
	pageBytes := func(a *Array) uintptr {
		sl := a.pool.slabs[0]
		return (uintptr(len(sl.tags))*8 + uintptr(len(sl.lines))*unsafe.Sizeof(Line{}) +
			uintptr(len(sl.dir))*unsafe.Sizeof(DirEntry{}) + uintptr(len(sl.sharers))*8) / uintptr(len(sl.lines))
	}
	private := testArray(256<<10, 16, 1, 0)
	if len(private.pool.slabs) != 0 {
		t.Errorf("a new private array's pool holds %d slabs", len(private.pool.slabs))
	}
	private.Victim(0, nil)
	if sl := private.pool.slabs[0]; pageBytes(private) != 32 || sl.dir != nil || sl.sharers != nil {
		t.Errorf("a private array's page costs %d bytes a way with %d directory entries, want 32 and none", pageBytes(private), len(sl.dir))
	}
	for _, tc := range []struct {
		cfg   config.System
		words int
		bytes uintptr
	}{{config.Default16(), 1, 48}, {config.Default64(), 1, 48}, {config.Default256(), 4, 72}} {
		cfg := tc.cfg.Scaled(16)
		a := NewPools(&cfg).LLC.newArray()
		a.Victim(0, nil)
		if got := pageBytes(&a); got != tc.bytes || a.sharerWords != tc.words {
			t.Errorf("%d tiles: a directory array's page costs %d bytes a way with %d sharer words, want %d and %d",
				cfg.Tiles(), got, a.sharerWords, tc.bytes, tc.words)
		}
	}
}

// TestDirWaySharers round-trips sharer sets through a way's words at each
// mesh size and requires a member past them to panic.
func TestDirWaySharers(t *testing.T) {
	for _, tiles := range []int{16, 64, 256} {
		a := testArray(64<<10, 16, tiles, (tiles+63)/64)
		l := a.Victim(0, nil)
		a.Install(l, 0, StateLV, 0)
		d := a.dirWay(l)
		want := noc.OneDest(0).Add(noc.NodeID(tiles - 1))
		if d.SetSharers(want); d.Sharers() != want || a.dirOf(a.locate(1)).Sharers() != (noc.DestSet{}) {
			t.Errorf("%d tiles: stored %v, loaded %v", tiles, want, d.Sharers())
		}
		if tiles == noc.MaxNodes {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sharer 64 past") {
					t.Errorf("%d tiles: storing sharer 64 says %v, want a panic naming it", tiles, r)
				}
			}()
			d.SetSharers(want.Add(64))
		}()
	}
}

func TestArrayGeometry(t *testing.T) {
	a := testArray(256<<10, 16, 1, 0)
	if a.Sets() != 256 || a.ways != 16 {
		t.Fatalf("geometry = %d sets x %d ways, want 256x16", a.Sets(), a.ways)
	}
}

func TestArrayBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two set count")
		}
	}()
	newPool(3*64*4, 4, 4, 1, 0, 1) // 3 sets
}

func TestArrayLookupInstall(t *testing.T) {
	a := testArray(4096, 4, 1, 0) // 16 sets x 4 ways
	if a.Lookup(0x1000) != nil {
		t.Fatal("lookup on empty array should miss")
	}
	v := a.Victim(0x1000, func(*Line) bool { return true })
	if v == nil {
		t.Fatal("empty set must offer a victim")
	}
	a.Install(v, 0x1000, StateS, 5)
	got := a.Lookup(0x1000)
	if got == nil || got.State != StateS || a.Tag(got) != 0x1000 || got.LastUse != 5 {
		t.Fatalf("installed line wrong: %+v", got)
	}
}

// TestArrayIndexRefusesForeignLine: a line's tag is found by its offset in
// the array, so a line that is not one of the array's ways panics rather than
// read another way's tag, and so does installing a line in a way of another
// set.
func TestArrayIndexRefusesForeignLine(t *testing.T) {
	a, b := testArray(4*64, 4, 1, 0), testArray(4*64, 4, 1, 0)
	foreign := b.Victim(0, nil) // way 0 of b, the number a's way 0 has
	for _, carved := range []bool{false, true} {
		if carved {
			a.Victim(0, nil)
		}
		for name, l := range map[string]*Line{"another array's way": foreign, "a loose line": new(Line)} {
			func() {
				defer func() {
					if r := recover(); fmt.Sprint(r) != "cache: line is not a way of this array" {
						t.Errorf("Tag of %s (a's set carved: %v) says %v, want a panic", name, carved, r)
					}
				}()
				a.Tag(l)
			}()
		}
	}
	if a.Tag(a.Victim(0, nil)) != noTag {
		t.Error("a free way is tagged")
	}
	two := testArray(2*4*64, 4, 1, 0) // line 0x40 maps to set 1, ways 4-7
	defer func() {
		if r := recover(); fmt.Sprint(r) != "cache: installing 0x40 in state S in way 0" {
			t.Errorf("installing a line in another set's way says %v, want a panic", r)
		}
	}()
	two.Install(two.Victim(0, nil), 0x40, StateS, 0)
}

func TestArrayLRUVictim(t *testing.T) {
	a := testArray(4*64, 4, 1, 0) // 1 set x 4 ways
	for i := 0; i < 4; i++ {
		v := a.Victim(uint64(i*64), func(*Line) bool { return true })
		a.Install(v, uint64(i*64), StateS, sim.Cycle(10+5*i))
	}
	v := a.Victim(0x4000, func(*Line) bool { return true })
	if a.Tag(v) != 0 {
		t.Fatalf("LRU victim should be line 0 (oldest), got %#x", a.Tag(v))
	}
}

func TestArrayVictimRespectsPredicate(t *testing.T) {
	a := testArray(2*64, 2, 1, 0) // 1 set x 2 ways
	for i := 0; i < 2; i++ {
		v := a.Victim(uint64(i*64), func(*Line) bool { return true })
		a.Install(v, uint64(i*64), StateISD, 0)
	}
	if v := a.Victim(0x4000, func(l *Line) bool { return !l.State.Transient() }); v != nil {
		t.Fatalf("all ways transient yet victim %+v offered", v)
	}
}

func TestInterleavedArraySpreadsSets(t *testing.T) {
	// A 16-way slice of a 16-slice cache: addresses striped by 16 lines
	// must cover all sets, not just set 0.
	a := testArray(64<<10, 16, 16, 0)
	seen := map[int]bool{}
	for i := 0; i < 1024; i++ {
		addr := uint64(i) * 16 * 64 // slice-0 stripe
		seen[a.base(addr)] = true
	}
	if len(seen) != a.Sets() {
		t.Fatalf("stripe covers %d/%d sets", len(seen), a.Sets())
	}
}

// Property: for any address sequence, Lookup never returns a line with a
// different tag, and Install/Lookup round-trips.
func TestArrayLookupConsistency(t *testing.T) {
	a := testArray(64*64, 4, 1, 0)
	f := func(addrs []uint16) bool {
		for _, raw := range addrs {
			addr := uint64(raw) * 64
			if l := a.Lookup(addr); l != nil {
				if a.Tag(l) != addr {
					return false
				}
				continue
			}
			v := a.Victim(addr, func(*Line) bool { return true })
			if v == nil {
				return false
			}
			a.Install(v, addr, StateS, 0)
			if got := a.Lookup(addr); got == nil || a.Tag(got) != addr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStateStringsAndTransience(t *testing.T) {
	stable := []State{StateI, StateS, StateM, StateLV, StateLM}
	for _, s := range stable {
		if s.Transient() {
			t.Errorf("%v should be stable", s)
		}
	}
	transient := []State{StateISD, StateISDI, StateIMD, StateSMD, StateLSInv, StateLMInv, StateLFetch, StateLP}
	for _, s := range transient {
		if !s.Transient() {
			t.Errorf("%v should be transient", s)
		}
		if s.String() == "" {
			t.Errorf("%v has no name", s)
		}
	}
}

func TestArrayForEach(t *testing.T) {
	a := testArray(8*64, 2, 1, 0)
	for i := 0; i < 3; i++ {
		v := a.Victim(uint64(i*64), func(*Line) bool { return true })
		a.Install(v, uint64(i*64), StateS, 0)
	}
	var addrs []uint64
	a.ForEach(func(addr uint64, _ *Line) { addrs = append(addrs, addr) })
	if !reflect.DeepEqual(addrs, []uint64{0x00, 0x40, 0x80}) {
		t.Fatalf("ForEach visited %#x, want 0x0, 0x40, 0x80", addrs)
	}
}

// TestArrayTagIndexAgainstLinearScan drives small arrays with random
// Install / Invalidate / state-change / Lookup / Peek / Victim / ForEach
// sequences and compares every answer with a reference that does what the
// array did before it had a tag index: scan the lines of the set, each tagged
// in a shadow map the reference keeps itself. The index must be invisible —
// same way for every lookup, same victim, same visiting order and addresses —
// and audit must stay clean after every operation. So must pages: a set's
// first page is carved from its first Victim on and not before, whatever else
// was asked of the array, and an array decoded from a snapshot of it carves a
// set's pages exactly through the last holding a valid way. The array shares
// its pool with others, which carve three slabs' worth of pages midway while
// every line of the array is held: each held line keeps its way, tag and
// version. The pool's slabs hold at most one slab more than the ways carved,
// and a machine of the pool's arrays decoded onto a fresh pool carves exactly
// what each decoded array does. Geometries with pages smaller than a set
// carve a set a page at a time.
func TestArrayTagIndexAgainstLinearScan(t *testing.T) {
	states := []State{StateS, StateM, StateISD, StateSMD, StateLV, StateLM}
	for _, geom := range []struct{ sets, ways, pageWays, interleave int }{
		{1, 2, 2, 1}, {4, 4, 4, 1}, {8, 16, 16, 4}, {2, 3, 3, 2}, {64, 2, 2, 1},
		{1, 4, 1, 1}, {4, 16, 4, 2}, {8, 6, 2, 1}, {64, 4, 2, 1},
	} {
		rng := rand.New(rand.NewSource(int64(geom.sets*100 + geom.ways + 1000*(geom.ways/geom.pageWays-1))))
		others := (3*slabPages + geom.sets - 1) / geom.sets
		newLevel := func() *Pool {
			return newPool(geom.sets*geom.ways*64, geom.ways, geom.pageWays, geom.interleave, 0, 1+others)
		}
		pool := newLevel()
		a := pool.newArray()
		var rest []Array // the pool's other arrays, once built
		// set returns the lines of the carved ways of addr's set, in way order.
		set := func(addr uint64) (lines []*Line) {
			for w := range a.ways {
				if _, l, _ := a.Way(a.base(addr) + w); l != nil {
					lines = append(lines, l)
				}
			}
			return lines
		}
		shadow := map[*Line]uint64{}
		refLookup := func(addr uint64) *Line {
			for _, l := range set(addr) {
				if l.State != StateI && shadow[l] == addr {
					return l
				}
			}
			return nil
		}
		// refVictim runs after Victim, which carves the set's next page when
		// every carved way is valid.
		refVictim := func(addr uint64, allowed func(*Line) bool) *Line {
			var best *Line
			for _, l := range set(addr) {
				if l.State == StateI {
					return l
				}
				if allowed(l) && (best == nil || l.LastUse < best.LastUse) {
					best = l
				}
			}
			return best
		}
		// through returns the number of pages of set s of b a decode carves:
		// those through the last holding a valid way.
		through := func(b *Array, s int) int {
			for w := b.ways - 1; w >= 0; w-- {
				if addr, _, _ := b.Way(s*b.ways + w); addr != noTag {
					return w/b.pageWays + 1
				}
			}
			return 0
		}
		victimised := map[int]bool{} // sets Victim was asked about
		// pagesAgree: the carved pages of each set of b are a prefix, and
		// whether it is empty, or its length, is what want says.
		pagesAgree := func(op int, what string, b *Array, want func(s int) int) {
			t.Helper()
			for s := range b.Sets() {
				n := 0
				for n < b.setPages && b.pageOf[s*b.setPages+n] != 0 {
					n++
				}
				for p := n; p < b.setPages; p++ {
					if b.pageOf[s*b.setPages+p] != 0 {
						t.Fatalf("%+v op %d: %s: set %d has page %d carved past its uncarved page %d", geom, op, what, s, p, n)
					}
				}
				if w := want(s); (w < 0 && n == 0) || (w >= 0 && n != w) {
					t.Fatalf("%+v op %d: %s: set %d has %d pages carved, want %d (-1: some)", geom, op, what, s, n, w)
				}
			}
		}
		wasVictimised := func(s int) int {
			if victimised[s] {
				return -1
			}
			return 0
		}
		// slabsTight: the pool carved a page for each page of its arrays that
		// is carved, and its slabs hold those pages and at most one slab more.
		slabsTight := func(op int, p *Pool, arrays []Array) {
			t.Helper()
			n := 0
			for _, b := range arrays {
				for _, v := range b.pageOf {
					if v != 0 {
						n++
					}
				}
			}
			if pages, ways := p.Pages(); pages != n || ways < pages*geom.pageWays || ways > (pages+slabPages)*geom.pageWays {
				t.Fatalf("%+v op %d: the pool carved %d pages in slabs of %d ways; %d pages are carved, of %d ways a page and %d pages a slab",
					geom, op, pages, ways, n, geom.pageWays, slabPages)
			}
		}
		encodeArray(&a)
		a.Track() // and marks what the ops hand out, carving included
		if pool.pages != 0 {
			t.Fatalf("%+v: encoding and tracking a fresh array carved %d pages", geom, pool.pages)
		}
		// A few more addresses than lines, so sets fill up and evict.
		addrs := make([]uint64, 3*geom.sets*geom.ways)
		for i := range addrs {
			addrs[i] = uint64(i) * 64 * uint64(geom.interleave)
		}
		stable := func(l *Line) bool { return !l.State.Transient() }
		for op := 0; op < 20000; op++ {
			addr := addrs[rng.Intn(len(addrs))]
			now := sim.Cycle(op)
			if peek := addrs[rng.Intn(len(addrs))]; a.Peek(peek) != refLookup(peek) {
				t.Fatalf("%+v op %d: Peek(%#x) = %p, linear scan finds %p", geom, op, peek, a.Peek(peek), refLookup(peek))
			}
			switch got, want := a.Lookup(addr), refLookup(addr); {
			case got != want:
				t.Fatalf("%+v op %d: Lookup(%#x) = %p, linear scan finds %p", geom, op, addr, got, want)
			case got == nil:
				// Miss: fill through the replacement policy, as the caches do.
				pagesAgree(op, "after a Lookup miss", &a, wasVictimised)
				allowed := stable
				if rng.Intn(4) == 0 {
					allowed = func(*Line) bool { return true }
				}
				victimised[a.set(addr)] = true
				v, wantV := a.Victim(addr, allowed), refVictim(addr, allowed)
				if v != wantV {
					t.Fatalf("%+v op %d: Victim(%#x) = %p, linear scan picks %p", geom, op, addr, v, wantV)
				}
				if v != nil {
					a.Install(v, addr, states[rng.Intn(len(states))], now)
					v.Version = uint64(op)
					shadow[v] = addr
				}
			case rng.Intn(3) == 0:
				a.Invalidate(got)
				if a.Lookup(addr) != nil {
					t.Fatalf("%+v op %d: %#x still found after Invalidate", geom, op, addr)
				}
			default:
				// A hit: the controllers touch LRU and move between valid states.
				got.LastUse, got.State = now, states[rng.Intn(len(states))]
			}
			if err := a.audit(); err != nil {
				t.Fatalf("%+v op %d: %v", geom, op, err)
			}
			if op == 10000 {
				// Hold every line of a while the other arrays carve every set.
				type held struct {
					l            *Line
					way          uint32
					tag, version uint64
				}
				var hold []held
				a.ForEach(func(addr uint64, l *Line) { hold = append(hold, held{l, l.way, addr, l.Version}) })
				slabs := len(pool.slabs)
				for range others {
					b := pool.newArray()
					for s := range b.Sets() {
						addr := uint64(s) << b.setShift
						b.Install(b.Victim(addr, nil), addr, StateS, now)
					}
					rest = append(rest, b)
				}
				if len(pool.slabs) < slabs+3 {
					t.Fatalf("%+v: the other arrays carved %d slabs, want at least 3", geom, len(pool.slabs)-slabs)
				}
				for _, h := range hold {
					if h.l.way != h.way || a.Tag(h.l) != h.tag || h.l.Version != h.version || a.Peek(h.tag) != h.l {
						t.Fatalf("%+v: a line held across other arrays' carving moved or changed: way %d, tag %#x, version %d; held way %d, tag %#x, version %d",
							geom, h.l.way, a.Tag(h.l), h.l.Version, h.way, h.tag, h.version)
					}
				}
			}
			if op%64 == 0 {
				var visited []*Line
				a.ForEach(func(addr uint64, l *Line) {
					if addr != shadow[l] || addr != a.Tag(l) {
						t.Fatalf("%+v op %d: ForEach names %#x a line installed as %#x", geom, op, addr, shadow[l])
					}
					visited = append(visited, l)
				})
				k := 0
				for i := range a.Len() {
					if l := a.slot(i); l == nil || l.State == StateI {
						continue
					} else if k >= len(visited) || visited[k] != l {
						t.Fatalf("%+v op %d: ForEach skipped or reordered way %d", geom, op, i)
					}
					k++
				}
				if k != len(visited) {
					t.Fatalf("%+v op %d: ForEach visited %d lines, %d are valid", geom, op, len(visited), k)
				}
				pagesAgree(op, "after Peek, audit and ForEach", &a, wasVictimised)
				slabsTight(op, pool, append([]Array{a}, rest...))
			}
			if op%1000 == 0 {
				c, err := snapshot.NewDecoder(encodeArray(&a))
				if err != nil {
					t.Fatal(err)
				}
				back := newLevel().newArray()
				if back.state(c); c.Err() != nil {
					t.Fatalf("%+v op %d: %v", geom, op, c.Err())
				}
				pagesAgree(op, "decoded", &back, func(s int) int { return through(&a, s) })
				slabsTight(op, back.pool, []Array{back})
				pagesAgree(op, "after encoding", &a, wasVictimised)
			}
		}
		// The machine of the pool's arrays, decoded array by array onto a
		// fresh pool.
		fresh, arrays := newLevel(), append([]Array{a}, rest...)
		backs := make([]Array, len(arrays))
		for i := range arrays {
			c, err := snapshot.NewDecoder(encodeArray(&arrays[i]))
			if err != nil {
				t.Fatal(err)
			}
			backs[i] = fresh.newArray()
			if backs[i].state(c); c.Err() != nil {
				t.Fatalf("%+v: array %d: %v", geom, i, c.Err())
			}
			pagesAgree(-1, fmt.Sprintf("array %d decoded onto a fresh pool", i), &backs[i], func(s int) int { return through(&arrays[i], s) })
		}
		slabsTight(-1, fresh, backs)
	}
}

// testArray builds the one array of a pool of the given geometry, a set a
// page.
func testArray(sizeBytes, ways, interleave, sharerWords int) *Array {
	a := newPool(sizeBytes, ways, ways, interleave, sharerWords, 1).newArray()
	return &a
}

// tagOf returns the tag of l, a way of a, to be written behind the array's
// back.
func tagOf(a *Array, l *Line) *uint64 {
	tag, _ := way(a, int(l.way))
	return tag
}

// way returns way i's tag and line, whose page is carved, to be written
// behind the array's back.
func way(a *Array, i int) (*uint64, *Line) {
	sl, k := a.locate(i)
	return &sl.tags[k], &sl.lines[k]
}

// encodeArray returns a's snapshot bytes.
func encodeArray(a *Array) []byte {
	c := snapshot.NewEncoder("", "", 0)
	a.state(c)
	return c.Finish()
}

// TestArrayAuditDetectsIndexDrift writes a line's validity or its tag behind
// Install's and Invalidate's back, each way it can go wrong, and requires
// audit to say so.
func TestArrayAuditDetectsIndexDrift(t *testing.T) {
	fill := func() (*Array, *Line) {
		a := testArray(4*4*64, 4, 1, 0)
		for _, addr := range []uint64{0x000, 0x100, 0x040} {
			a.Install(a.Victim(addr, nil), addr, StateS, 0)
		}
		return a, a.Lookup(0x100)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(a *Array, l *Line)
		want    string
	}{
		{"state freed directly", func(a *Array, l *Line) { l.State = StateI }, "free but tagged"},
		{"state set directly", func(a *Array, l *Line) { a.Invalidate(l); l.State = StateS }, "no tag"},
		{"tag not a line address", func(a *Array, l *Line) { *tagOf(a, l) = 0x101 }, "not a line address"},
		{"tag of another set", func(a *Array, l *Line) { *tagOf(a, l) = 0x140 }, "another set"},
		{"installed in the wrong set", func(a *Array, l *Line) {
			tag, other := way(a, a.base(0x040)+1)
			*tag, other.State = 0x100, l.State
		}, "another set"},
		{"duplicate in a set", func(a *Array, l *Line) {
			tag, other := way(a, a.base(0x100)+2)
			*tag, other.State = 0x100, l.State
		}, "valid in ways"},
	} {
		a, l := fill()
		if err := a.audit(); err != nil {
			t.Fatalf("%s: audit dirty before the corruption: %v", tc.name, err)
		}
		tc.corrupt(a, l)
		if err := a.audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit says %v, want a %q violation", tc.name, err, tc.want)
		}
	}
}

// TestArrayStateIsCanonical: a way that held a line and lost it serializes
// like a way that never held one — its stale version and directory bits are
// never read again, so they are not state — and so does a set that got a page
// and holds nothing. Decoding gives a page only to the set with a valid way,
// whose other ways are the zero Line, untagged.
func TestArrayStateIsCanonical(t *testing.T) {
	pool := newPool(4*4*64, 4, 4, 1, 1, 2)
	used, fresh := pool.newArray(), pool.newArray()
	pages := func(a *Array) (n int) {
		for _, v := range a.pageOf {
			if v != 0 {
				n++
			}
		}
		return n
	}
	for _, a := range []*Array{&used, &fresh} {
		a.Install(a.Victim(0x040, nil), 0x040, StateS, 3)
	}
	l := used.Victim(0x100, nil)
	used.Install(l, 0x100, StateM, 7)
	l.Version, l.Dirty = 9, true
	used.dirWay(l).SetSharers(noc.OneDest(5))
	used.dirWay(l).Epoch = 4
	used.Invalidate(l)
	data := encodeArray(&used)
	if !bytes.Equal(data, encodeArray(&fresh)) || pages(&used) != 2 || pages(&fresh) != 1 {
		t.Fatal("an installed-then-invalidated way serializes differently from one never used")
	}
	c, err := snapshot.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	back := testArray(4*4*64, 4, 1, 1)
	if back.state(c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	if err := back.audit(); err != nil {
		t.Fatalf("decoded array fails its audit: %v", err)
	}
	valid := back.Lookup(0x040)
	if back.pool.pages != 1 || back.pageOf[back.set(0x040)*back.setPages] == 0 || valid == nil || back.Lookup(0x100) != nil ||
		!bytes.Equal(encodeArray(back), data) {
		t.Fatalf("decoded array has %d pages and differs from the one that never held the freed line", back.pool.pages)
	}
	for i := range back.Len() {
		if addr, l, _ := back.Way(i); l != nil && l != valid && (addr != noTag || *l != Line{way: uint32(i)} ||
			*back.dirOf(back.locate(i)).DirEntry != DirEntry{} || back.dirOf(back.locate(i)).Sharers() != noc.DestSet{}) {
			t.Errorf("decoded free way %d is tagged %#x and holds %+v", i, addr, *l)
		}
	}
}

// TestArrayDecodeRefusesBadTags: the decoder audits every array it fills, so
// a valid way whose tag is missing, is not a line address, belongs to another
// set or repeats in its own is corrupt.
func TestArrayDecodeRefusesBadTags(t *testing.T) {
	for _, tc := range []struct {
		name string
		tag  uint64
		want string
	}{
		{"missing", noTag, "no tag"},
		{"not a line address", 0x101, "not a line address"},
		{"of another set", 0x140, "another set"},
		{"repeated in its set", 0x000, "valid in ways"},
	} {
		a := testArray(4*4*64, 4, 1, 0)
		for _, addr := range []uint64{0x000, 0x100} {
			a.Install(a.Victim(addr, nil), addr, StateS, 0)
		}
		*tagOf(a, a.Lookup(0x100)) = tc.tag
		enc := snapshot.NewEncoder("", "", 0)
		a.state(enc)
		c, err := snapshot.NewDecoder(enc.Finish())
		if err != nil {
			t.Fatal(err)
		}
		testArray(4*4*64, 4, 1, 0).state(c)
		if err := c.Err(); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s tag: decoder says %v, want a corrupt %q", tc.name, err, tc.want)
		}
	}
}

// TestArrayQuarterPagesMatchWholeSets drives a directory array carved a
// quarter set at a time and one carved a whole set at a time, of the same
// geometry, through one seeded sequence of Victim, Install, Invalidate,
// Lookup, LRU touches and ForEach, and requires the same answer from both at
// every step: the same way number for every victim and hit, and the same
// ways and tags from ForEach. The quarter-page array must carve no page
// before it hands out one of its ways.
func TestArrayQuarterPagesMatchWholeSets(t *testing.T) {
	const sets, ways = 8, 16
	quarter := newPool(sets*ways*64, ways, ways/4, 1, 1, 1).newArray()
	whole := newPool(sets*ways*64, ways, ways, 1, 1, 1).newArray()
	rng := rand.New(rand.NewSource(44))
	// Fewer addresses a set than ways on even sets, so pages fill one by one
	// and stay part free; more on odd sets, so they fill and evict.
	addr := func() uint64 {
		s := rng.Intn(sets)
		n := 6
		if s%2 == 1 {
			n = 3 * ways
		}
		return uint64(rng.Intn(n)*sets+s) * 64
	}
	wayOf := func(a *Array, l *Line) int {
		if l == nil {
			return -1
		}
		return int(l.way)
	}
	visit := func(a *Array) (seen []string) {
		a.ForEach(func(addr uint64, l *Line) { seen = append(seen, fmt.Sprintf("%d:%#x", l.way, addr)) })
		return seen
	}
	for op := range 20000 {
		now := sim.Cycle(op)
		x := addr()
		q, w := quarter.Lookup(x), whole.Lookup(x)
		if wayOf(&quarter, q) != wayOf(&whole, w) {
			t.Fatalf("op %d: Lookup(%#x) finds way %d in quarter pages, %d in whole sets", op, x, wayOf(&quarter, q), wayOf(&whole, w))
		}
		switch {
		case q == nil:
			allowed := func(l *Line) bool { return l.State != StateLSInv }
			q, w = quarter.Victim(x, allowed), whole.Victim(x, allowed)
			if wayOf(&quarter, q) != wayOf(&whole, w) {
				t.Fatalf("op %d: Victim(%#x) hands out way %d from quarter pages, %d from whole sets", op, x, wayOf(&quarter, q), wayOf(&whole, w))
			}
			if q == nil {
				continue
			}
			st := []State{StateLV, StateLM, StateLSInv}[rng.Intn(3)]
			quarter.Install(q, x, st, now)
			whole.Install(w, x, st, now)
		case rng.Intn(4) == 0:
			quarter.Invalidate(q)
			whole.Invalidate(w)
		default:
			q.LastUse, w.LastUse = now, now
		}
		if op%97 == 0 {
			if qs, ws := visit(&quarter), visit(&whole); !reflect.DeepEqual(qs, ws) {
				t.Fatalf("op %d: ForEach visits %v in quarter pages, %v in whole sets", op, qs, ws)
			}
			if err := quarter.audit(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	qPages, _ := quarter.pool.Pages()
	wPages, _ := whole.pool.Pages()
	if qPages*quarter.pageWays >= wPages*ways {
		t.Fatalf("quarter pages carved %d ways, whole sets %d: want fewer", qPages*quarter.pageWays, wPages*ways)
	}
	t.Logf("ways carved: %d in quarter pages, %d in whole sets", qPages*quarter.pageWays, wPages*ways)
}

// TestArrayDecodeCarvesEarlierPages restores a set whose first page is all
// free while its second holds a line: the decoder must carve the first page
// too, or a lookup, which stops at a set's first uncarved page, would miss
// the line and audit would refuse the array.
func TestArrayDecodeCarvesEarlierPages(t *testing.T) {
	newArray := func() Array { return newPool(16*64, 16, 4, 1, 1, 1).newArray() } // one set, four pages
	a := newArray()
	for i := range 5 {
		x := uint64(i) * 64
		a.Install(a.Victim(x, nil), x, StateLV, sim.Cycle(i))
	}
	for i := range 4 {
		a.Invalidate(a.Lookup(uint64(i) * 64))
	}
	if pages, _ := a.pool.Pages(); pages != 2 || a.Lookup(4*64) == nil || a.Tag(a.Lookup(4*64)) != 4*64 {
		t.Fatalf("the set holds %#x in way 4 with %d pages carved", uint64(4*64), pages)
	}
	c, err := snapshot.NewDecoder(encodeArray(&a))
	if err != nil {
		t.Fatal(err)
	}
	back := newArray()
	if back.state(c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	l := back.Lookup(4 * 64)
	if pages, _ := back.pool.Pages(); pages != 2 || back.pageOf[0] == 0 || back.pageOf[1] == 0 || l == nil || l.way != 4 {
		t.Fatalf("decoded: %d pages carved (%v), lookup of %#x finds %v", pages, back.pageOf, uint64(4*64), l)
	}
	if v := back.Victim(0, nil); v == nil || v.way != 0 {
		t.Fatalf("decoded: Victim hands out %v, want way 0", v)
	}
}
