package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/workload"
)

// quiescedCachebw runs cachebw/OrdPush on the 16-core machine to completion
// and drains it: hundreds of lines are then shared by several tiles with the
// directory in LV, which is the raw material for every injected violation.
func quiescedCachebw(t *testing.T) *System {
	t.Helper()
	sys, err := Build(tinyConfig(config.OrdPush()), workload.CacheBW(), workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckCoherence(); err != nil {
		t.Fatalf("the quiesced machine is not coherent to begin with: %v", err)
	}
	return sys
}

// TestCheckCoherenceDetectsEachViolation pins the strength of the coherence
// sweep: on a quiesced machine it plants each of the conditions the sweep
// exists to catch, one at a time, in a line two tiles share, and requires
// ErrCoherence naming that line and that condition. Every edit is undone
// before the next, and the sweep must be clean again in between, so no case
// can pass on the residue of another.
func TestCheckCoherenceDetectsEachViolation(t *testing.T) {
	sys := quiescedCachebw(t)
	// The victim: the lowest line held in S by at least two tiles, directory
	// in LV.
	type holder struct {
		l    *cache.Line
		tile noc.NodeID
	}
	shared := map[uint64][]holder{}
	for _, l2 := range sys.L2s {
		l2.ForEachLine(func(addr uint64, l *cache.Line) {
			if l.State == cache.StateS {
				shared[addr] = append(shared[addr], holder{l, l2.ID()})
			}
		})
	}
	addr := ^uint64(0)
	for tag, hs := range shared {
		if len(hs) >= 2 && tag < addr {
			addr = tag
		}
	}
	if addr == ^uint64(0) {
		t.Fatal("no line is shared by two tiles after cachebw")
	}
	a, tileA := shared[addr][0].l, shared[addr][0].tile
	b, tileB := shared[addr][1].l, shared[addr][1].tile
	llc := sys.LLCs[sys.Cfg.HomeSlice(addr)]
	dir := llc.Line(addr)
	if dir == nil || dir.State != cache.StateLV {
		t.Fatalf("line %#x: directory entry %+v, want LV", addr, dir)
	}
	de := llc.Dir(dir)
	// Any third copy would blur the one-owner cases; park such copies in a
	// transient state the sweep does not count (they are restored with a/b).
	var others []*cache.Line
	for _, l2 := range sys.L2s {
		l2.ForEachLine(func(tag uint64, l *cache.Line) {
			if tag == addr && l != a && l != b {
				others = append(others, l)
			}
		})
	}
	hide := func(l *cache.Line) { l.State = cache.StateISD }

	line := fmt.Sprintf("line %#x ", addr)
	for _, tc := range []struct {
		name   string
		inject func()
		want   string // "" = legal, the sweep must stay clean
	}{
		{"two M owners", func() { a.State, b.State = cache.StateM, cache.StateM }, line + "has 2 M owners"},
		{"M owner beside an S copy", func() { a.State = cache.StateM }, line + "has an M owner and 1 S copies"},
		{"M copy behind the directory", func() {
			hide(b)
			a.State, dir.State, de.Owner = cache.StateM, cache.StateLM, tileA
			dir.Version = a.Version + 1
		}, fmt.Sprintf("%sM copy at tile %d behind directory", line, tileA)},
		{"S copy under an owned directory", func() {
			hide(b)
			dir.State, de.Owner = cache.StateLM, tileB
		}, fmt.Sprintf("%shas S copy at tile %d (S) while directory in LM", line, tileA)},
		{"S copy under a recalled directory", func() {
			hide(a)
			dir.State, de.Owner = cache.StateLMInv, tileA
		}, fmt.Sprintf("%shas S copy at tile %d (S) while directory in LM_Inv", line, tileB)},
		{"SM_D at a tile that is not the owner", func() {
			hide(b)
			a.State, dir.State, de.Owner = cache.StateSMD, cache.StateLM, tileB
		}, fmt.Sprintf("%shas S copy at tile %d (SM_D) while directory in LM", line, tileA)},
		{"SM_D at the new owner is legal", func() {
			hide(b)
			a.State, dir.State, de.Owner = cache.StateSMD, cache.StateLM, tileA
		}, ""},
		{"S copy the directory lost track of", func() { de.SetSharers(de.Sharers().Remove(tileB)) },
			fmt.Sprintf("directory not a sharer superset: %scached S at tile %d", line, tileB)},
		{"stale S version", func() { b.Version++ },
			fmt.Sprintf("%sstale S copy at tile %d (version %d, directory %d)", line, tileB, b.Version+1, dir.Version)},
	} {
		saved, savedDir, savedSharers := []cache.Line{*a, *b, *dir}, *de.DirEntry, de.Sharers()
		for _, l := range others {
			saved = append(saved, *l)
			hide(l)
		}
		tc.inject()
		err := sys.CheckCoherence()
		switch {
		case tc.want == "":
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		case !errors.Is(err, ErrCoherence):
			t.Errorf("%s: sweep says %v, want ErrCoherence", tc.name, err)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: sweep says %q, want %q", tc.name, err, tc.want)
		}
		*a, *b, *dir, *de.DirEntry = saved[0], saved[1], saved[2], savedDir
		de.SetSharers(savedSharers)
		for i, l := range others {
			*l = saved[3+i]
		}
		if err := sys.CheckCoherence(); err != nil {
			t.Fatalf("%s: the machine is still dirty after the edit was undone: %v", tc.name, err)
		}
	}
}

// TestCheckCoherenceDetectsUntrackedCopy plants the violation an edit of a
// line in place cannot, since a way's address lives only in its array's tag
// index: a private copy of a line its home slice does not hold. It moves one
// of tile 0's S copies to another line of the same set in a snapshot of the
// quiesced machine, restores it, and requires the sweep to name that line.
func TestCheckCoherenceDetectsUntrackedCopy(t *testing.T) {
	sys := quiescedCachebw(t)
	addr, found := uint64(0), false
	sys.L2s[0].ForEachLine(func(tag uint64, l *cache.Line) {
		if !found && l.State == cache.StateS {
			addr, found = tag, true
		}
	})
	if !found {
		t.Fatal("tile 0 holds no S line after cachebw")
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Tile 0's L2 array follows its section name: sets and ways (8 bytes
	// each), then a state byte a way, which a valid way follows with its tag,
	// version, three flags and last use.
	moved := addr + 1<<40
	at := bytes.Index(data, []byte("cache.l2")) + len("cache.l2") + 16
	for data[at] == 0 || binary.LittleEndian.Uint64(data[at+1:]) != addr {
		if at++; data[at-1] != 0 {
			at += 27
		}
	}
	binary.LittleEndian.PutUint64(data[at+1:], moved)
	binary.LittleEndian.PutUint64(data[len(data)-8:], snapshot.Hash(data[:len(data)-8]))
	back, err := Restore(data, tinyConfig(config.OrdPush()), workload.CacheBW(), workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("line %#x cached privately but absent from the LLC", moved)
	if err := back.CheckCoherence(); !errors.Is(err, ErrCoherence) || !strings.Contains(err.Error(), want) {
		t.Errorf("sweep says %v, want %q", err, want)
	}
}

// TestCheckCoherenceWarmSweepDoesNotAllocate holds the sweep to its scratch
// table: the checker runs it every 64 cycles, and when it built two maps per
// sweep it was nine tenths of a checked run's allocation.
func TestCheckCoherenceWarmSweepDoesNotAllocate(t *testing.T) {
	sys := quiescedCachebw(t)
	allocs := testing.AllocsPerRun(20, func() {
		if err := sys.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("a warm coherence sweep allocates %.0f times, want at most 2", allocs)
	}
	t.Logf("a warm sweep allocates %.0f times", allocs)
}
