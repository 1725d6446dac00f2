package pushmulticast

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// A snapshot crosses a trust boundary (simd's POST /snapshots), and its
// FNV-1a trailer is an integrity check, not authentication: anyone can reseal
// altered bytes. The tests below alter golden snapshots, reseal them, and
// require RestoreMachine to answer with a machine or a one-line
// ErrSnapshotMismatch/ErrSnapshotCorrupt — never a panic, never more work
// than the snapshot's own size allows.

var golden struct {
	once  sync.Once
	snaps [][]byte
}

// goldenBytes takes the golden snapshots once per test binary.
func goldenBytes(t testing.TB) [][]byte {
	golden.once.Do(func() {
		for _, g := range goldenSnapshots {
			golden.snaps = append(golden.snaps, g.take(t))
		}
	})
	return golden.snaps
}

// patched returns a copy of snap with patch written at off and the trailer
// resealed over the result.
func patched(snap []byte, off int, patch []byte) []byte {
	out := bytes.Clone(snap)
	body := out[:len(out)-8]
	if off < len(body) {
		copy(body[off:], patch)
	}
	binary.LittleEndian.PutUint64(out[len(body):], SnapshotHash(body))
	return out
}

// sections returns, for every marker of the named section, the offset of the
// first byte after the name.
func sections(t testing.TB, snap []byte, name string) []int {
	t.Helper()
	var at []int
	for i := 0; ; {
		j := bytes.Index(snap[i:], []byte(name))
		if j < 0 {
			break
		}
		i += j + len(name)
		at = append(at, i)
	}
	if len(at) == 0 {
		t.Fatalf("snapshot has no %q section", name)
	}
	return at
}

// crafted are the alterations that once took restore down, or that the
// decoder's audits exist to refuse — each is a u64 written at a fixed offset
// past a section marker of the named golden snapshot. They are regression
// cases for TestSnapshotCrafted and seeds for FuzzRestore.
var crafted = []struct {
	name    string
	golden  string
	section string
	// idle picks the first marker followed by this many zero bytes (a router
	// with no occupied VC and no switch stream); 0 picks the first marker, and
	// -1 the first one followed by a non-zero byte (a router with occupied VCs).
	idle  int
	skip  int
	value uint64
}{
	// makeslice: len out of range.
	{"link-counter count", "bfs-baseline", "stats.all", 0, 0, 1 << 62},
	// Appended pooled packets without end.
	{"NI queue count", "bfs-baseline", "noc.ni", 0, 0, 1 << 62},
	// Replayed Next() on an ended stream 1<<62 times: 62 bytes of retirement
	// state precede the op count.
	{"core op count past its stream's end", "bfs-baseline", "cpu.core", 0, 62, 1 << 62},
	// Pushed a 17th entry into a 16-slot link ring: an idle router's first
	// arrivals-ring count follows its occ count (8) and 5 stream flags.
	{"link ring past capacity", "bfs-baseline", "noc.router", 13, 13, 17},
	// Primary router state no run could have written, which the rebuild of the
	// derived fields would otherwise index or dereference: an occupied-list
	// entry for a VC that holds nothing, a switch stream (its flag follows the
	// occ count) draining one, and — on a busy router, 19 bytes of coordinates,
	// arrival cycle and flags into the first entry — a pending mask naming all
	// five ports over a buffered packet. The checker's primary-state audit
	// refuses all three.
	{"occupied VC that is free", "bfs-baseline", "noc.router", 13, 0, 1},
	{"stream over an empty VC", "bfs-baseline", "noc.router", 13, 8, 1},
	{"pending port off the packet's route", "bfs-baseline", "noc.router", -1, 27, 0x011f},
	// A packet is its message, so the line address travels twice: in the header
	// and, 100 bytes into the packet (98 of header, the presence byte, the
	// type), in the message. The busy router's first buffered packet starts 29
	// bytes into its first entry; give its message another line.
	{"message for another line than its packet's", "bfs-baseline", "noc.router", -1, 129, 0xdead0040},
	// A sharer the 16-tile directory has no word for: the first slice's first
	// way holds a valid line, whose four sharer words follow 16 bytes of
	// geometry, the state byte, tag, version, three flags and last use. Bit 8
	// of the fourth word is tile 200.
	{"directory sharer past the mesh", "bfs-baseline", "cache.llc", 0, 68, 1 << 8},
	// A line filed in a set its address does not map to: the same way's tag
	// follows the geometry and its state byte. Bits 6-9 pick the slice and
	// the set index starts at bit 10, so line 0x400 belongs to set 1.
	{"line in another set", "bfs-baseline", "cache.llc", 0, 17, 0x400},
	// Tile 0's transport: the count of its 20 live rx streams, each 20 bytes
	// (key, 8-byte top, mask), then per vnet the 8-byte next sequence number
	// and the window; the vnet 0 and 1 windows are empty and the vnet 2
	// window holds 19 entries, the first live. The first stream's key (and
	// top) become the first key of tile 16 on a 16-tile mesh; the second
	// stream's key (and top) become key 0, at or below the first's.
	{"rx stream key past the mesh", "cachebw-ordpush-lossy-checked", "noc.transport", 0, 8, 16 * 3},
	{"rx stream key below the previous", "cachebw-ordpush-lossy-checked", "noc.transport", 0, 28, 0},
	// The vnet 0 window's length (8 + 20*20 bytes of streams, 8 of its next
	// sequence number) one past RetryWindow (32). The window was empty, so its
	// entries parse out of the bytes that follow, and a field of one of them
	// refuses first.
	{"window past RetryWindow", "cachebw-ordpush-lossy-checked", "noc.transport", 0, 416, 33},
	// The first vnet 2 entry's packet number: the window starts 456 bytes in,
	// and 49 bytes of destinations, send cycle, retries and done flag plus 79
	// of packet header precede its sequence number.
	{"window entry out of sequence", "cachebw-ordpush-lossy-checked", "noc.transport", 0, 584, 0xdead},
	// The checker's loss obligations: 215 bytes into its section (the sweep
	// cycle, the tracking flag, 16 injection serials, the one in-flight
	// record of 61 bytes, the loss flag) the list's count, then 9
	// obligations of 20 bytes (tile, key, cycle) in (tile, key) order. The
	// first two are at tile 4 with keys 0x5020000023e and 0x90200000281.
	// Move the first to tile 16, then to tile 5 (keeping its key's low
	// half), and give the second the first's key.
	{"loss obligation past the mesh", "cachebw-ordpush-lossy-checked", "check.monitor", 0, 223, 16},
	{"loss obligations out of order", "cachebw-ordpush-lossy-checked", "check.monitor", 0, 223, 0x23e_0000_0005},
	{"loss obligation listed twice", "cachebw-ordpush-lossy-checked", "check.monitor", 0, 247, 0x5020000023e},
}

// goldenIndex returns the position of the named golden snapshot.
func goldenIndex(t testing.TB, name string) int {
	t.Helper()
	for i, g := range goldenSnapshots {
		if g.name == name {
			return i
		}
	}
	t.Fatalf("no golden snapshot %q", name)
	return 0
}

// craft applies one crafted alteration to the golden snapshot it was written
// for, which it returns by index.
func craft(t testing.TB, i int) (which, off int, patch []byte) {
	t.Helper()
	k := crafted[i]
	which = goldenIndex(t, k.golden)
	snap := goldenBytes(t)[which]
	for _, at := range sections(t, snap, k.section) {
		if k.idle < 0 && snap[at] != 0 || k.idle >= 0 && bytes.Equal(snap[at:at+k.idle], make([]byte, k.idle)) {
			return which, at + k.skip, binary.LittleEndian.AppendUint64(nil, k.value)
		}
	}
	t.Fatalf("%s: no %q section starts with %d zero bytes (-1: a non-zero byte)", k.name, k.section, k.idle)
	return 0, 0, nil
}

// restoreAltered restores an altered golden snapshot under its own config
// and enforces the contract on whatever comes back.
func restoreAltered(t *testing.T, which int, data []byte) error {
	t.Helper()
	cfg, wl := goldenSnapshots[which].build(t)
	m, err := RestoreMachine(data, cfg, wl, ScaleTiny)
	if err != nil {
		if !errors.Is(err, ErrSnapshotMismatch) && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("restore failed outside the snapshot error contract: %v", err)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Fatalf("diagnostic is not one line: %q", err)
		}
		return err
	}
	// Whatever decoded must also encode: a restored machine is a machine.
	if _, err := m.Snapshot(); err != nil {
		t.Fatalf("restored machine cannot re-snapshot: %v", err)
	}
	return nil
}

// TestSnapshotCrafted pins the crafted snapshots: each is refused as corrupt
// on one line, promptly. Every decoded count goes through the codec's one
// length primitive, which refuses a count the remaining bytes cannot hold;
// the two bounds a byte count cannot express (a stream's length, a ring's
// capacity) are checked where they apply.
func TestSnapshotCrafted(t *testing.T) {
	snaps := goldenBytes(t)
	for i, k := range crafted {
		t.Run(k.name, func(t *testing.T) {
			which, off, patch := craft(t, i)
			start := time.Now()
			err := restoreAltered(t, which, patched(snaps[which], off, patch))
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("want ErrSnapshotCorrupt, got %v", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("refusal took %v: restore did unbounded work first", d)
			}
		})
	}
	for i, snap := range snaps {
		if err := restoreAltered(t, i, snap); err != nil {
			t.Fatalf("the unaltered %s snapshot must restore: %v", goldenSnapshots[i].name, err)
		}
	}
}

// FuzzRestore alters one golden snapshot per input — which one, where, and
// with what bytes — reseals the trailer so the alteration reaches the
// component descriptions, and restores it. The seed corpus is the golden
// snapshots themselves, a nudge at the head of each section, and the crafted
// alterations above; a finding lands in testdata/fuzz/FuzzRestore as a few
// bytes, not as a 1.5 MB file.
//
// The contract covers restore, not the run that follows: a resealed snapshot
// that decodes is by construction a machine state, and a state no run could
// have reached may still trip the protocol's own assertions later.
func FuzzRestore(f *testing.F) {
	for i, snap := range goldenBytes(f) {
		f.Add(uint8(i), uint32(0), []byte{})
		for _, section := range []string{"sim.engine", "noc.router", "noc.transport", "cache.l2", "cache.llc", "cpu.barrier", "memctrl.ctrl", "trace.tracer", "check.monitor"} {
			if at := bytes.Index(snap, []byte(section)); at >= 0 {
				f.Add(uint8(i), uint32(at+len(section)), []byte{0xff, 0xff})
			}
		}
	}
	for i := range crafted {
		which, off, patch := craft(f, i)
		f.Add(uint8(which), uint32(off), patch)
	}
	f.Fuzz(func(t *testing.T, which uint8, off uint32, patch []byte) {
		snaps := goldenBytes(t)
		i := int(which) % len(snaps)
		restoreAltered(t, i, patched(snaps[i], int(off)%len(snaps[i]), patch))
	})
}
