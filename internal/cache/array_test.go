package cache

import (
	"bytes"
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
// three words and four bytes, and the directory words are the LLC's alone —
// a directory array keeps a 40-byte entry beside each way, a private array
// none.
func TestLineLayout(t *testing.T) {
	if size := unsafe.Sizeof(Line{}); size != 32 {
		t.Errorf("Line is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof(DirEntry{}); size != 40 {
		t.Errorf("DirEntry is %d bytes, want 40", size)
	}
	if a := NewArray(256<<10, 16); a.dir != nil {
		t.Errorf("a private array allocated %d directory entries", len(a.dir))
	}
	if a := newDirectoryArray(64<<10, 16, 16); len(a.dir) != len(a.lines) {
		t.Errorf("a directory array holds %d entries for %d ways", len(a.dir), len(a.lines))
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
	if got == nil || got.State != StateS || got.Tag != 0x1000 || got.LastUse != 5 {
		t.Fatalf("installed line wrong: %+v", got)
	}
}

func TestArrayLRUVictim(t *testing.T) {
	a := NewArray(4*64, 4) // 1 set x 4 ways
	for i := 0; i < 4; i++ {
		v := a.Victim(uint64(i*64), func(*Line) bool { return true })
		a.Install(v, uint64(i*64), StateS, sim.Cycle(10+5*i))
	}
	v := a.Victim(0x4000, func(*Line) bool { return true })
	if v.Tag != 0 {
		t.Fatalf("LRU victim should be line 0 (oldest), got %#x", v.Tag)
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
				if l.Tag != addr {
					return false
				}
				continue
			}
			v := a.Victim(addr, func(*Line) bool { return true })
			if v == nil {
				return false
			}
			a.Install(v, addr, StateS, 0)
			if got := a.Lookup(addr); got == nil || got.Tag != addr {
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
	n := 0
	a.ForEach(func(*Line) { n++ })
	if n != 3 {
		t.Fatalf("ForEach visited %d lines, want 3", n)
	}
}

// TestArrayTagIndexAgainstLinearScan drives small arrays with random
// Install / Invalidate / state-change / Lookup / Victim / ForEach sequences
// and compares every answer with a reference that does what the array did
// before it had a tag index: scan the lines of the set. The index must be
// invisible — same way for every lookup, same victim, same visiting order —
// and audit must stay clean after every operation.
func TestArrayTagIndexAgainstLinearScan(t *testing.T) {
	states := []State{StateS, StateM, StateISD, StateSMD, StateLV, StateLM}
	for _, geom := range []struct{ sets, ways, interleave int }{{1, 2, 1}, {4, 4, 1}, {8, 16, 4}, {2, 3, 2}} {
		rng := rand.New(rand.NewSource(int64(geom.sets*100 + geom.ways)))
		a := NewInterleavedArray(geom.sets*geom.ways*64, geom.ways, geom.interleave)
		set := func(addr uint64) []Line {
			b := a.base(addr)
			return a.lines[b : b+a.ways]
		}
		refLookup := func(addr uint64) *Line {
			for i, s := 0, set(addr); i < len(s); i++ {
				if s[i].State != StateI && s[i].Tag == addr {
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
				a.ForEach(func(l *Line) { visited = append(visited, l) })
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

// TestArrayAuditDetectsIndexDrift writes a line's validity behind the
// index's back, each way it can go wrong, and requires audit to say so.
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
		{"state freed directly", func(a *Array, l *Line) { l.State = StateI }, "free but indexed"},
		{"state set directly", func(a *Array, l *Line) { a.Invalidate(l); l.State = StateS }, "indexed as"},
		{"tag rewritten", func(a *Array, l *Line) { l.Tag = 0x200 }, "indexed as"},
		{"installed in the wrong set", func(a *Array, l *Line) {
			a.tags[a.base(0x040)+1], a.lines[a.base(0x040)+1] = 0x100, *l
		}, "indexed as"},
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
// like a way that never held one — its stale tag, version and directory bits
// are never read again, so they are not state — and decodes to the zero Line
// with the index rebuilt.
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
	used.dirEntry(l).Sharers, used.dirEntry(l).Epoch = noc.OneDest(5), 4
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
		back.Lookup(0x040) == nil || back.Lookup(0x100) != nil {
		t.Fatal("decoded array differs from the one that never held the freed line")
	}
}
