package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sample is one value of every primitive; describe is its single description,
// run in both directions by the tests below.
type sample struct {
	u8   uint8
	t, f bool
	u32  uint32
	u64  uint64
	i64  int64
	n    int
	s    string
	i16  int16
	kind int8
	list []uint32
	m    map[uint64]int
	last uint64
}

var want = sample{7, true, false, 0xDEADBEEF, 1<<63 | 42, -99, 123456, "payload", -2, -3,
	[]uint32{5, 6}, map[uint64]int{9: 1, 3: 2}, 1}

func (v *sample) describe(c *Codec) {
	c.Section("alpha")
	c.U8(&v.u8)
	c.Bool(&v.t)
	c.Bool(&v.f)
	c.U32(&v.u32)
	c.U64(&v.u64)
	c.I64(&v.i64)
	c.Int(&v.n)
	c.String(&v.s)
	c.I16(&v.i16)
	AsU8(c, &v.kind)
	Slice(c, &v.list, c.U32)
	Map(c, &v.m, func(k *uint64, n *int) { c.U64(k); c.Int(n) })
	c.Section("omega")
	c.U64(&v.last)
}

// roundTrip builds a small snapshot exercising every primitive.
func roundTrip(t *testing.T) []byte {
	t.Helper()
	c := NewEncoder("strict-fp", "fork-fp", 12345)
	v := want
	v.describe(c)
	return c.Finish()
}

func TestReaderRoundTrip(t *testing.T) {
	data := roundTrip(t)
	c, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	hdr := c.Header()
	if hdr.Version != Version || hdr.StrictFP != "strict-fp" || hdr.ForkFP != "fork-fp" || hdr.Cycle != 12345 {
		t.Fatalf("header mismatch: %+v", hdr)
	}
	got := sample{m: map[uint64]int{}}
	got.describe(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestRefusals is the loud-failure table: every way a snapshot can be
// unusable must fail with the right sentinel and a single-line diagnostic,
// never a silent mis-restore.
func TestRefusals(t *testing.T) {
	good := roundTrip(t)
	mutate := func(f func([]byte) []byte) []byte {
		c := append([]byte(nil), good...)
		return f(c)
	}
	cases := []struct {
		name string
		data []byte
		want error
		msg  string
	}{
		{"empty", nil, ErrMismatch, "bad magic"},
		{"not a snapshot", []byte("PNG\x0d\x0a\x1a\x0a plus padding to pass the length check"), ErrMismatch, "bad magic"},
		{"future format version", mutate(func(b []byte) []byte {
			b[len(Magic)] = 99 // little-endian low byte of the version u32
			return b
		}), ErrMismatch, "format v99"},
		// The format this one replaced has no reader: its stamp is refused
		// like any other foreign version, before the hash is even looked at.
		{"previous format version", mutate(func(b []byte) []byte {
			b[len(Magic)] = byte(Version - 1)
			b[len(b)-1] ^= 1
			return b
		}), ErrMismatch, fmt.Sprintf("snapshot format v%d, this build reads v%d", Version-1, Version)},
		{"truncated", good[:len(good)-3], ErrCorrupt, "hash mismatch"},
		{"bit flip in payload", mutate(func(b []byte) []byte {
			b[len(b)-20] ^= 0x40
			return b
		}), ErrCorrupt, "hash mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDecoder(tc.data)
			if err == nil {
				t.Fatal("NewDecoder accepted an unusable snapshot")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v is not wrapped in %v", err, tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("diagnostic is not a single line: %q", err)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("diagnostic %q does not mention %q", err, tc.msg)
			}
		})
	}
}

// TestSectionDesync pins the marker mechanism: a reader that drifts off the
// encoder's layout fails at the next section with both names in the error,
// instead of silently decoding garbage into component state.
func TestSectionDesync(t *testing.T) {
	data := roundTrip(t)
	c, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	var b uint8
	c.Section("alpha")
	c.U8(&b) // leave the decoder mid-section, misaligned for the next marker
	c.Section("omega")
	err = c.Err()
	if err == nil {
		t.Fatal("desynced Section call reported no error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("desync error %v is not ErrCorrupt", err)
	}
	c2, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	c2.Section("beta") // wrong name at a real marker
	if err := c2.Err(); err == nil || !strings.Contains(err.Error(), "alpha") || !strings.Contains(err.Error(), "beta") {
		t.Fatalf("wrong-name error should carry both names, got %v", err)
	}
}

// TestDeterministicBytes pins the container's purity: the same write
// sequence yields byte-identical snapshots (and so equal content hashes) —
// the property run-memo keys rely on.
func TestDeterministicBytes(t *testing.T) {
	a, b := roundTrip(t), roundTrip(t)
	if string(a) != string(b) {
		t.Fatal("identical write sequences produced different bytes")
	}
	if Hash(a) != Hash(b) {
		t.Fatal("identical bytes hash differently")
	}
	c := NewEncoder("strict-fp", "fork-fp", 12346) // one cycle later
	c.Section("alpha")
	if Hash(c.Finish()) == Hash(a) {
		t.Fatal("different snapshots share a content hash")
	}
}

// TestReaderStopsAtTrailer verifies reads can never consume the trailer as
// payload: a read past the last section fails instead of interpreting the
// content hash as data.
func TestReaderStopsAtTrailer(t *testing.T) {
	one := uint8(1)
	w := NewEncoder("s", "f", 0)
	w.U8(&one)
	c, err := NewDecoder(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	var v uint8
	if c.U8(&v); v != 1 || c.Err() != nil {
		t.Fatalf("payload read failed: %d, %v", v, c.Err())
	}
	var over uint64
	c.U64(&over) // would overlap the trailer
	if err := c.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailer overlap not refused: %v", err)
	}
}

// TestLenBounds pins the one length primitive: a decoded count that is
// negative or exceeds the bytes left before the trailer is refused as
// corrupt on one line and decodes as zero, so Slice and Map never allocate
// or iterate past the snapshot's own size; Count and Same refuse a build
// that differs with ErrMismatch.
func TestLenBounds(t *testing.T) {
	encode := func(n uint64) []byte {
		w := NewEncoder("s", "f", 0)
		w.U64(&n)
		w.U64(&n) // eight payload bytes after the count
		return w.Finish()
	}
	for _, tc := range []struct {
		name string
		n    uint64
		ok   bool
	}{
		{"fits", 8, true},
		{"one past the payload", 9, false},
		{"huge", 1 << 62, false},
		{"negative", ^uint64(0), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewDecoder(encode(tc.n))
			if err != nil {
				t.Fatal(err)
			}
			got := c.Len(0)
			err = c.Err()
			if tc.ok {
				if err != nil || got != int(tc.n) {
					t.Fatalf("Len = %d, %v; want %d", got, err, tc.n)
				}
				return
			}
			if got != 0 || !errors.Is(err, ErrCorrupt) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("Len = %d, %v; want 0 and a one-line ErrCorrupt", got, err)
			}
			var list []uint64
			Slice(c, &list, c.U64)
			if len(list) != 0 {
				t.Fatalf("Slice decoded %d elements after a failure", len(list))
			}
		})
	}
	c, err := NewDecoder(encode(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.Count(4, "widgets"); !errors.Is(c.Err(), ErrMismatch) || !strings.Contains(c.Err().Error(), "3 widgets") {
		t.Fatalf("Count accepted a different geometry: %v", c.Err())
	}
	data := encode(0)
	data[len(data)-16] = 1 // the byte Same will read; reseal the trailer over it
	binary.LittleEndian.PutUint64(data[len(data)-8:], Hash(data[:len(data)-8]))
	if c, err = NewDecoder(data); err != nil {
		t.Fatal(err)
	}
	var skip uint64
	c.U64(&skip)
	if c.Same(false, "gadget presence"); !errors.Is(c.Err(), ErrMismatch) || !strings.Contains(c.Err().Error(), "gadget presence") {
		t.Fatalf("Same accepted a differing flag: %v", c.Err())
	}
}
