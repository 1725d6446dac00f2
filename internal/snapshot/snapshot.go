// Package snapshot implements the versioned binary container that the
// deterministic checkpoint/restore subsystem serializes simulator state
// into. The format is deliberately primitive — fixed-width little-endian
// integers, length-prefixed byte strings, and named section markers — so a
// snapshot is a pure function of the machine state it encodes: two runs in
// identical states produce byte-identical snapshots, which makes the
// snapshot's FNV-1a content hash a valid identity for run-memo keys.
//
// Layout:
//
//	magic "PMSNAP1\n"
//	u32   format version
//	str   strict config fingerprint  (exact-resume identity)
//	str   fork config fingerprint    (warm-start identity: tuning knobs wiped)
//	u64   snapshot cycle
//	...   sections (marker + payload), written by the component descriptions
//	u64   FNV-1a hash of everything before the trailer
//
// A Codec is either encoding or decoding, and every primitive takes a
// pointer: it writes the pointee when encoding and overwrites it when
// decoding. A component therefore describes its state once, as one function
// over a Codec, and that function is both its serializer and its
// deserializer — the field list and the field order cannot drift apart.
// Section markers catch a description that disagrees with the bytes: a
// decoder that drifts off by even one byte fails at the next section with
// both section names in the error instead of silently mis-restoring state.
package snapshot

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Magic identifies a snapshot file. The trailing newline makes an
// accidentally text-opened snapshot obviously binary.
const Magic = "PMSNAP1\n"

// Version is the current snapshot format version. Bump it on any change to
// a section's encoding; restore refuses other versions loudly. Version 8
// carries primary state only, as a dense run holds it at the barrier: what a
// component can rebuild from its other fields, and the engine's scheduling,
// are not in the bytes, a cache way carries directory words only in an LLC,
// an LLC slice carries one transaction record per blocked line, an NI's
// transport carries each window entry's sequence number once, as 64 bits
// like a stream's top and a window's next number, and one loss record (key,
// line, push bit) per discarded key, and the checker carries one in-flight
// table and one list of loss obligations (DESIGN.md §4g lists what changed
// with versions 1 to 7).
const Version uint32 = 8

// sectionMark precedes every section name.
const sectionMark uint32 = 0x5EC7_10A5

// ErrMismatch wraps every refusal to restore: wrong magic, wrong format
// version, or a config fingerprint that differs from the restoring machine.
// Callers test with errors.Is and exit nonzero; a mismatch is never worked
// around silently.
var ErrMismatch = errors.New("snapshot mismatch")

// ErrCorrupt wraps decode failures on a snapshot whose header was accepted:
// truncation, section desync, an impossible length or index, or a trailer
// hash that does not match the payload.
var ErrCorrupt = errors.New("snapshot corrupt")

// FNV-1a 64-bit, matching the trace package's history hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns the FNV-1a hash of the full snapshot byte string — the
// snapshot's content identity (run-memo keys, warm-start provenance).
func Hash(data []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// Header is the decoded snapshot prelude.
type Header struct {
	Version  uint32
	StrictFP string
	ForkFP   string
	Cycle    uint64
}

// Codec walks a state description in one direction. Encoding is infallible.
// Decoding errors are sticky: after the first failure every primitive leaves
// its pointee alone, every length decodes as zero, and Err reports the
// original cause, so descriptions run straight-line and the caller checks
// once. A description that indexes with a decoded value must validate it
// (Corrupt) and stop on failure.
type Codec struct {
	buf  []byte // encoding: the bytes so far; decoding: the whole snapshot
	pos  int    // decoding: offset of the next unread byte
	dec  bool
	hdr  Header
	err  error
	mark func(p any)
	// sizing makes an encoding codec count the bytes it would write in size
	// and write none (Encode's first walk).
	sizing bool
	size   int
}

// NewEncoder returns an encoding codec with the header already emitted. Its
// buffer grows as a description writes; Encode allocates it once instead.
func NewEncoder(strictFP, forkFP string, cycle uint64) *Codec {
	return newEncoder(Header{Version, strictFP, forkFP, cycle}, 1<<16)
}

// newEncoder returns an encoding codec for hdr whose buffer starts at
// capacity bytes, with the header already emitted.
func newEncoder(hdr Header, capacity int) *Codec {
	c := &Codec{buf: make([]byte, 0, capacity), hdr: hdr}
	c.buf = append(c.buf, Magic...)
	c.header()
	return c
}

// Encode returns the complete snapshot of what describe writes after the
// header. It walks the description twice: the first walk only counts the
// bytes, so the second writes them into a buffer allocated once, at the
// snapshot's exact size, where a growing buffer allocated about four times
// the bytes it returned. A description writes the same bytes on both walks,
// since encoding reads the state and changes none of it.
func Encode(strictFP, forkFP string, cycle uint64, describe func(*Codec)) []byte {
	hdr := Header{Version, strictFP, forkFP, cycle}
	sizer := &Codec{hdr: hdr, sizing: true}
	sizer.header()
	describe(sizer)
	c := newEncoder(hdr, len(Magic)+sizer.size+8)
	describe(c)
	return c.Finish()
}

// NewDecoder validates the magic, the format version (before the hash, so
// another format says which one it is, not "corrupt"), and the trailer hash,
// decodes the header, and positions the codec at the first section. It is
// the only header parser: whatever it accepts is structurally a snapshot of
// this format version, and nothing it rejects reaches a component.
func NewDecoder(data []byte) (*Codec, error) {
	if len(data) < len(Magic)+4 || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: not a snapshot (bad magic)", ErrMismatch)
	}
	if len(data) < len(Magic)+4+8 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, fmt.Errorf("%w: snapshot format v%d, this build reads v%d", ErrMismatch, v, Version)
	}
	body := data[:len(data)-8]
	if Hash(body) != binary.LittleEndian.Uint64(data[len(body):]) {
		return nil, fmt.Errorf("%w: trailer hash mismatch (truncated or altered)", ErrCorrupt)
	}
	c := &Codec{buf: data, pos: len(Magic), dec: true}
	c.header()
	if c.err != nil {
		return nil, c.err
	}
	return c, nil
}

func (c *Codec) header() {
	c.U32(&c.hdr.Version)
	c.String(&c.hdr.StrictFP)
	c.String(&c.hdr.ForkFP)
	c.U64(&c.hdr.Cycle)
}

// Header returns the snapshot prelude.
func (c *Codec) Header() Header { return c.hdr }

// Decoding reports the codec's direction. Descriptions branch on it only
// where the two directions genuinely differ: allocating what a decoded
// pointer points to, or rebuilding derived state.
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first decode failure, or nil.
func (c *Codec) Err() error { return c.err }

// Finish appends the FNV-1a trailer and returns the complete snapshot.
func (c *Codec) Finish() []byte {
	h := Hash(c.buf)
	c.word(h, 8)
	return c.buf
}

// Record makes the codec report every state location its description
// accounts for — the pointer handed to each primitive or to Mark — to fn.
// The completeness tests use it to find fields a description forgot.
func (c *Codec) Record(fn func(p any)) { c.mark = fn }

// Mark tells a recording codec that the description accounts for the state
// at p by other means than handing p to a primitive (a pointer it follows, a
// container it iterates, a value it codes through a local).
func (c *Codec) Mark(p any) {
	if c.mark != nil {
		c.mark(p)
	}
}

// Corrupt fails the decode with ErrCorrupt and the current offset.
func (c *Codec) Corrupt(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), c.pos)
	}
}

// Mismatch fails the decode with ErrMismatch: the snapshot is intact but was
// taken on a machine this build is not.
func (c *Codec) Mismatch(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrMismatch, fmt.Sprintf(format, args...))
	}
}

// remaining is the number of payload bytes left before the trailer.
func (c *Codec) remaining() int { return len(c.buf) - 8 - c.pos }

// take returns the next n payload bytes; reads never reach the trailer.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > c.remaining() {
		c.Corrupt("truncated read of %d bytes", n)
		return nil
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b
}

// word moves the low n bytes of v, little-endian, and returns the value now
// on the wire: v when encoding, the decoded bytes (0 on failure) otherwise.
func (c *Codec) word(v uint64, n int) uint64 {
	var tmp [8]byte
	if c.sizing {
		c.size += n
		return v
	}
	if !c.dec {
		binary.LittleEndian.PutUint64(tmp[:], v)
		c.buf = append(c.buf, tmp[:n]...)
		return v
	}
	copy(tmp[:], c.take(n))
	return binary.LittleEndian.Uint64(tmp[:])
}

// Integer is any integer type a field may have.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// AsU8, AsU32 and AsU64 code an integer field of any type through the named
// wire width, converting exactly as a Go conversion to and from that
// unsigned type does. They serve named types (sim.Cycle, noc.NodeID, enum
// kinds) and fields whose wire width is narrower than their Go type.
func AsU8[T Integer](c *Codec, p *T) {
	c.Mark(p)
	if v := c.word(uint64(uint8(*p)), 1); c.dec && c.err == nil {
		*p = T(uint8(v))
	}
}

func AsU32[T Integer](c *Codec, p *T) {
	c.Mark(p)
	if v := c.word(uint64(uint32(*p)), 4); c.dec && c.err == nil {
		*p = T(uint32(v))
	}
}

func AsU64[T Integer](c *Codec, p *T) {
	c.Mark(p)
	if v := c.word(uint64(*p), 8); c.dec && c.err == nil {
		*p = T(v)
	}
}

// Word codes an integer that lives in no field (a table key, a coordinate)
// through its low width bytes, 1, 4 or 8, converting as AsU8, AsU32 and
// AsU64 do: it returns v when encoding and the decoded value — 0 after a
// failure — when decoding. Like Flag and Len it takes no cell, so a value
// coded through it costs no heap object, where a local handed to a
// primitive by address escapes.
func Word[T Integer](c *Codec, v T, width int) T {
	w := c.word(uint64(v), width)
	if c.err != nil {
		return 0
	}
	return T(w)
}

// U8 codes one byte.
func (c *Codec) U8(p *uint8) { AsU8(c, p) }

// U32 codes a little-endian uint32.
func (c *Codec) U32(p *uint32) { AsU32(c, p) }

// U64 codes a little-endian uint64.
func (c *Codec) U64(p *uint64) { AsU64(c, p) }

// I64 codes an int64 (two's complement).
func (c *Codec) I64(p *int64) { AsU64(c, p) }

// Int codes an int as an int64.
func (c *Codec) Int(p *int) { AsU64(c, p) }

// I16 codes an int16 as the u32 holding its 16-bit pattern.
func (c *Codec) I16(p *int16) {
	c.Mark(p)
	if v := c.word(uint64(uint16(*p)), 4); c.dec && c.err == nil {
		*p = int16(uint16(v))
	}
}

// Bool codes a boolean as one byte.
func (c *Codec) Bool(p *bool) {
	c.Mark(p)
	if v := c.Flag(*p); c.dec && c.err == nil {
		*p = v
	}
}

// Flag codes a boolean that lives in no field (a presence byte, a derived
// condition): it returns v when encoding and the decoded value — false after
// a failure — when decoding.
func (c *Codec) Flag(v bool) bool {
	var b uint64
	if v {
		b = 1
	}
	return c.word(b, 1) != 0 && c.err == nil
}

// U64s codes every element of a fixed-length run (an array field's [:], or
// a slice whose length the description already settled).
func (c *Codec) U64s(p []uint64) {
	for i := range p {
		c.U64(&p[i])
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(p *string) {
	c.Mark(p)
	if s := c.Text(*p); c.dec && c.err == nil {
		*p = s
	}
}

// Text codes a string that lives in no field, as String does: it returns s
// when encoding and the decoded string — "" after a failure — when decoding.
func (c *Codec) Text(s string) string {
	n := int(c.word(uint64(len(s)), 4))
	switch {
	case c.sizing:
		c.size += len(s)
	case !c.dec:
		c.buf = append(c.buf, s...)
	default:
		return string(c.take(n))
	}
	return s
}

// Section codes a named section marker. The decoder verifies the name, so
// any drift between a description and the bytes surfaces at the next
// boundary with both names in the error.
func (c *Codec) Section(name string) {
	if m := uint32(c.word(uint64(sectionMark), 4)); c.err == nil && m != sectionMark {
		c.Corrupt("expected section marker for %q, found %#x", name, m)
	}
	if got := c.Text(name); c.err == nil && got != name {
		c.Corrupt("section desync: expected %q, found %q", name, got)
	}
}

// Len codes an element count and returns the count to iterate: n when
// encoding, the decoded count otherwise. It is the only way a description
// reads a length: a decoded count that is negative, or larger than the bytes
// left before the trailer (every element occupies at least one), fails with
// ErrCorrupt and decodes as zero, so no snapshot can make restore allocate
// or loop beyond its own size.
func (c *Codec) Len(n int) int {
	got := int(int64(c.word(uint64(n), 8)))
	if c.err != nil {
		return 0
	}
	if c.dec && (got < 0 || got > c.remaining()) {
		c.Corrupt("impossible length %d with %d bytes left", got, c.remaining())
		return 0
	}
	return got
}

// Count codes a count the build fixes (geometry, registered handles, table
// slots); decoding any other possible value is a mismatch.
func (c *Codec) Count(n int, what string) {
	if got := c.Len(n); c.err == nil && got != n {
		c.Mismatch("snapshot has %d %s, this build %d", got, what, n)
	}
}

// Index codes i, a position in a table of n entries that the build sizes,
// as an int64 that lives in no field, and returns the position to use: i
// when encoding, the decoded one otherwise. A decoded position outside the
// table is corrupt and decodes as 0, so the description may index with the
// result unconditionally.
func (c *Codec) Index(i, n int, what string) int {
	if i = Word(c, i, 8); c.dec && (c.err != nil || i < 0 || i >= n) {
		c.Corrupt("%s %d outside [0,%d)", what, i, n)
		return 0
	}
	return i
}

// Same codes a flag the build fixes (an optional component's presence, a
// tracking mode) and returns it; a snapshot that disagrees cannot resume
// faithfully and fails with ErrMismatch.
func (c *Codec) Same(have bool, what string) bool {
	if saved := c.Flag(have); c.err == nil && saved != have {
		c.Mismatch("%s differs (snapshot %v, this build %v)", what, saved, have)
	}
	return have && c.err == nil
}

// Present is Same for an optional component held by pointer: whether the
// build has it decides whether its state follows.
func Present[T any](c *Codec, pp **T, what string) bool {
	c.Mark(pp)
	return c.Same(*pp != nil, what+" presence")
}

// Has codes the presence byte of an optional pointer and reports whether the
// pointee follows. When decoding reports true the caller allocates *pp.
func Has[T any](c *Codec, pp **T) bool {
	c.Mark(pp)
	return c.Flag(*pp != nil)
}

// Slice codes a variable-length slice: its length, then each element through
// elem. Decoding refills *s from empty, keeping its capacity.
func Slice[T any](c *Codec, s *[]T, elem func(*T)) {
	c.Mark(s)
	n := c.Len(len(*s))
	if c.dec {
		*s = (*s)[:0]
	}
	for i := 0; i < n && c.err == nil; i++ {
		if c.dec {
			var zero T
			*s = append(*s, zero)
		}
		elem(&(*s)[i])
	}
}

// Map codes a map in ascending key order — map order must never reach the
// byte stream. entry codes one key and its value, in that order; when
// decoding it receives zero values to fill and the pair is then stored.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, entry func(k *K, v *V)) {
	c.Mark(m)
	// One key and one value cell serve every entry: entry is opaque to escape
	// analysis, so per-entry cells would cost two heap objects per map entry.
	var k, zeroK K
	var v, zeroV V
	if !c.dec {
		keys := make([]K, 0, len(*m))
		for key := range *m {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		c.Len(len(keys))
		for _, key := range keys {
			k, v = key, (*m)[key]
			entry(&k, &v)
		}
		return
	}
	for n := c.Len(0); n > 0 && c.err == nil; n-- {
		k, v = zeroK, zeroV
		if entry(&k, &v); c.err == nil {
			(*m)[k] = v
		}
	}
}
