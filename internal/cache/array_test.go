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

	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
)

// TestLineLayout pins what Line's field order is for: a way of any cache is
// two words and four bytes (its tag lives once, in the array's index), and
// the directory words are the LLC's alone —
// a directory array keeps an 8-byte entry and one sharer word per 64 tiles
// beside each way, a private array neither.
func TestLineLayout(t *testing.T) {
	if size := unsafe.Sizeof(Line{}); size != 24 {
		t.Errorf("Line is %d bytes, want 24", size)
	}
	if size := unsafe.Sizeof(DirEntry{}); size != 8 {
		t.Errorf("DirEntry is %d bytes, want 8", size)
	}
	if a := NewArray(256<<10, 16); a.dir != nil || a.sharers != nil {
		t.Errorf("a private array allocated %d directory entries and %d sharer words", len(a.dir), len(a.sharers))
	}
	for _, tc := range []struct{ tiles, words int }{{16, 1}, {64, 1}, {256, 4}} {
		a := newDirectoryArray(64<<10, 16, tc.tiles)
		if len(a.dir) != len(a.lines) || len(a.sharers) != tc.words*len(a.lines) {
			t.Errorf("%d tiles: a directory array holds %d entries and %d sharer words for %d ways, want %d words a way",
				tc.tiles, len(a.dir), len(a.sharers), len(a.lines), tc.words)
		}
	}
}

// TestDirWaySharers round-trips sharer sets through a way's words at each
// mesh size and requires a member past them to panic.
func TestDirWaySharers(t *testing.T) {
	for _, tiles := range []int{16, 64, 256} {
		a := newDirectoryArray(64<<10, 16, tiles)
		l := a.Victim(0, nil)
		a.Install(l, 0, StateLV, 0)
		d := a.dirWay(l)
		want := noc.OneDest(0).Add(noc.NodeID(tiles - 1))
		if d.SetSharers(want); d.Sharers() != want || a.dirAt(1).Sharers() != (noc.DestSet{}) {
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
	a := NewArray(256<<10, 16)
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
	NewArray(3*64*4, 4) // 3 sets
}

func TestArrayLookupInstall(t *testing.T) {
	a := NewArray(4096, 4) // 16 sets x 4 ways
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
	a, b := NewArray(4*64, 4), NewArray(4*64, 4)
	for name, l := range map[string]*Line{"another array's way": &b.lines[0], "a loose line": new(Line)} {
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != "cache: line is not a way of this array" {
					t.Errorf("Tag of %s says %v, want a panic", name, r)
				}
			}()
			a.Tag(l)
		}()
	}
	if a.Tag(&a.lines[3]) != noTag {
		t.Error("a free way is tagged")
	}
	two := NewArray(2*4*64, 4) // line 0x40 maps to set 1, ways 4-7
	defer func() {
		if r := recover(); fmt.Sprint(r) != "cache: installing 0x40 in state S in way 0" {
			t.Errorf("installing a line in another set's way says %v, want a panic", r)
		}
	}()
	two.Install(&two.lines[0], 0x40, StateS, 0)
}

func TestArrayLRUVictim(t *testing.T) {
	a := NewArray(4*64, 4) // 1 set x 4 ways
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
	a := NewArray(2*64, 2) // 1 set x 2 ways
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
	a := NewInterleavedArray(64<<10, 16, 16)
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
	a := NewArray(64*64, 4)
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
	a := NewArray(8*64, 2)
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
// Install / Invalidate / state-change / Lookup / Victim / ForEach sequences
// and compares every answer with a reference that does what the array did
// before it had a tag index: scan the lines of the set, each tagged in a
// shadow map the reference keeps itself. The index must be invisible — same
// way for every lookup, same victim, same visiting order and addresses — and
// audit must stay clean after every operation.
func TestArrayTagIndexAgainstLinearScan(t *testing.T) {
	states := []State{StateS, StateM, StateISD, StateSMD, StateLV, StateLM}
	for _, geom := range []struct{ sets, ways, interleave int }{{1, 2, 1}, {4, 4, 1}, {8, 16, 4}, {2, 3, 2}} {
		rng := rand.New(rand.NewSource(int64(geom.sets*100 + geom.ways)))
		a := NewInterleavedArray(geom.sets*geom.ways*64, geom.ways, geom.interleave)
		set := func(addr uint64) []Line {
			b := a.base(addr)
			return a.lines[b : b+a.ways]
		}
		shadow := map[*Line]uint64{}
		refLookup := func(addr uint64) *Line {
			for i, s := 0, set(addr); i < len(s); i++ {
				if s[i].State != StateI && shadow[&s[i]] == addr {
					return &s[i]
				}
			}
			return nil
		}
		refVictim := func(addr uint64, allowed func(*Line) bool) *Line {
			var best *Line
			for i, s := 0, set(addr); i < len(s); i++ {
				l := &s[i]
				if l.State == StateI {
					return l
				}
				if allowed(l) && (best == nil || l.LastUse < best.LastUse) {
					best = l
				}
			}
			return best
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
			switch got, want := a.Lookup(addr), refLookup(addr); {
			case got != want:
				t.Fatalf("%+v op %d: Lookup(%#x) = %p, linear scan finds %p", geom, op, addr, got, want)
			case got == nil:
				// Miss: fill through the replacement policy, as the caches do.
				allowed := stable
				if rng.Intn(4) == 0 {
					allowed = func(*Line) bool { return true }
				}
				v, wantV := a.Victim(addr, allowed), refVictim(addr, allowed)
				if v != wantV {
					t.Fatalf("%+v op %d: Victim(%#x) = %p, linear scan picks %p", geom, op, addr, v, wantV)
				}
				if v != nil {
					a.Install(v, addr, states[rng.Intn(len(states))], now)
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
			if op%64 == 0 {
				var visited []*Line
				a.ForEach(func(addr uint64, l *Line) {
					if addr != shadow[l] || addr != a.Tag(l) {
						t.Fatalf("%+v op %d: ForEach names %#x a line installed as %#x", geom, op, addr, shadow[l])
					}
					visited = append(visited, l)
				})
				k := 0
				for i := range a.lines {
					if a.lines[i].State == StateI {
						continue
					}
					if k >= len(visited) || visited[k] != &a.lines[i] {
						t.Fatalf("%+v op %d: ForEach skipped or reordered way %d", geom, op, i)
					}
					k++
				}
				if k != len(visited) {
					t.Fatalf("%+v op %d: ForEach visited %d lines, %d are valid", geom, op, len(visited), k)
				}
			}
		}
	}
}

// TestArrayAuditDetectsIndexDrift writes a line's validity or its tag behind
// Install's and Invalidate's back, each way it can go wrong, and requires
// audit to say so.
func TestArrayAuditDetectsIndexDrift(t *testing.T) {
	fill := func() (*Array, *Line) {
		a := NewArray(4*4*64, 4)
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
		{"tag not a line address", func(a *Array, l *Line) { a.tags[a.index(l)] = 0x101 }, "not a line address"},
		{"tag of another set", func(a *Array, l *Line) { a.tags[a.index(l)] = 0x140 }, "another set"},
		{"installed in the wrong set", func(a *Array, l *Line) {
			a.tags[a.base(0x040)+1], a.lines[a.base(0x040)+1] = 0x100, *l
		}, "another set"},
		{"duplicate in a set", func(a *Array, l *Line) {
			a.tags[a.base(0x100)+2], a.lines[a.base(0x100)+2] = 0x100, *l
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
// never read again, so they are not state — and decodes to the zero Line,
// untagged.
func TestArrayStateIsCanonical(t *testing.T) {
	encode := func(a *Array) []byte {
		c := snapshot.NewEncoder("", "", 0)
		a.state(c)
		return c.Finish()
	}
	used, fresh := newDirectoryArray(4*4*64, 4, 1), newDirectoryArray(4*4*64, 4, 1)
	for _, a := range []*Array{used, fresh} {
		a.Install(a.Victim(0x040, nil), 0x040, StateS, 3)
	}
	l := used.Victim(0x100, nil)
	used.Install(l, 0x100, StateM, 7)
	l.Version, l.Dirty = 9, true
	used.dirWay(l).SetSharers(noc.OneDest(5))
	used.dirWay(l).Epoch = 4
	used.Invalidate(l)
	data := encode(used)
	if !bytes.Equal(data, encode(fresh)) {
		t.Fatal("an installed-then-invalidated way serializes differently from one never used")
	}
	c, err := snapshot.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	back := newDirectoryArray(4*4*64, 4, 1)
	if back.state(c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	if err := back.audit(); err != nil {
		t.Fatalf("decoded array fails its audit: %v", err)
	}
	if !reflect.DeepEqual(back.lines, fresh.lines) || !reflect.DeepEqual(back.dir, fresh.dir) ||
		!reflect.DeepEqual(back.sharers, fresh.sharers) ||
		back.Lookup(0x040) == nil || back.Lookup(0x100) != nil {
		t.Fatal("decoded array differs from the one that never held the freed line")
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
		a := NewArray(4*4*64, 4)
		for _, addr := range []uint64{0x000, 0x100} {
			a.Install(a.Victim(addr, nil), addr, StateS, 0)
		}
		a.tags[a.index(a.Lookup(0x100))] = tc.tag
		enc := snapshot.NewEncoder("", "", 0)
		a.state(enc)
		c, err := snapshot.NewDecoder(enc.Finish())
		if err != nil {
			t.Fatal(err)
		}
		NewArray(4*4*64, 4).state(c)
		if err := c.Err(); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s tag: decoder says %v, want a corrupt %q", tc.name, err, tc.want)
		}
	}
}
