package trace

import (
	"slices"
	"testing"

	"pushmulticast/internal/sim"
)

// mixBytewise is FNV-1a over x's eight bytes, least significant first, one
// multiplication a byte: the definition mix must keep computing.
func mixBytewise(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// mixInputs is the table mix is held to: zero, all ones, one nonzero byte at
// each position, and alternating zero and nonzero bytes.
func mixInputs() []uint64 {
	in := []uint64{0, ^uint64(0), 0x00ff00ff00ff00ff, 0xff00ff00ff00ff00, 0x0001000200030004, 0x0500060007000800}
	for pos := 0; pos < 8; pos++ {
		in = append(in, 1<<(8*pos), 0x80<<(8*pos), 0xff<<(8*pos))
	}
	return in
}

func TestMixMatchesBytewiseFNV(t *testing.T) {
	for _, start := range []uint64{fnvOffset, 0, 0x0123456789abcdef} {
		for _, x := range mixInputs() {
			tr := &Tracer{hash: start}
			tr.mix(x)
			if want := mixBytewise(start, x); tr.hash != want {
				t.Errorf("mix(%#x) from %#x = %#x, bytewise FNV-1a gives %#x", x, start, tr.hash, want)
			}
		}
	}
}

func FuzzMix(f *testing.F) {
	for _, x := range mixInputs() {
		f.Add(uint64(fnvOffset), x)
	}
	f.Fuzz(func(t *testing.T, h, x uint64) {
		tr := &Tracer{hash: h}
		tr.mix(x)
		if want := mixBytewise(h, x); tr.hash != want {
			t.Errorf("mix(%#x) from %#x = %#x, bytewise FNV-1a gives %#x", x, h, tr.hash, want)
		}
	})
}

// drained collects the events a drain hands the checker, in order.
func drained(tr *Tracer) []Event {
	var got []Event
	tr.Drain(func(e Event) { got = append(got, e) })
	return got
}

// attached returns a tracer with a checker attached.
func attached() *Tracer {
	tr := New(16)
	tr.Attach(sim.NewEngine(0, 0).Register(sim.TickFunc(func(sim.Cycle) {})))
	return tr
}

// TestDrainOrderIsEmissionOrder emits from many nodes, out of node order,
// and requires the history (ring and hash) and the checker's drain to hold
// the events as they were emitted.
func TestDrainOrderIsEmissionOrder(t *testing.T) {
	tr := attached()
	var want []Event
	ref := &Tracer{hash: fnvOffset}
	for _, n := range []int32{69, 64, 63, 5, 0} {
		for a := int32(1); a <= 2; a++ {
			e := Event{Node: n, A: a}
			tr.Emit(e)
			ref.record(e)
			want = append(want, e)
		}
	}
	if got := drained(tr); !slices.Equal(got, want) {
		t.Errorf("drain handed %v, want %v", got, want)
	}
	if got := tr.Tail(); !slices.Equal(got, want) {
		t.Errorf("ring holds %v, want %v", got, want)
	}
	if tr.Hash() != ref.Hash() || tr.Events() != uint64(len(want)) {
		t.Errorf("history (hash %#x, %d events), want (hash %#x, %d events)", tr.Hash(), tr.Events(), ref.Hash(), len(want))
	}
}

// TestDrainHandsEachEventOnce requires a drain to hand over each event once:
// a second drain hands over nothing, and a third only what was emitted after
// the second. The history counts each event once, at its emission.
func TestDrainHandsEachEventOnce(t *testing.T) {
	tr := attached()
	tr.Emit(Event{Node: 0})
	tr.Emit(Event{Node: 1})
	if got := drained(tr); len(got) != 2 {
		t.Fatalf("first drain handed over %d events, want 2", len(got))
	}
	if got := drained(tr); len(got) != 0 {
		t.Fatalf("a drain with nothing emitted handed over %d events", len(got))
	}
	tr.Emit(Event{Node: 1, A: 7})
	if got := drained(tr); len(got) != 1 || got[0].A != 7 {
		t.Fatalf("third drain handed over %v, want the one event emitted since", got)
	}
	if tr.Events() != 3 {
		t.Fatalf("history counts %d events, want 3", tr.Events())
	}
}

// TestEmitWithoutCheckerKeepsNoList requires a tracer with no checker
// attached to fold events into its history and queue none, and a nil tracer
// to ignore them.
func TestEmitWithoutCheckerKeepsNoList(t *testing.T) {
	tr := New(4)
	tr.Emit(Event{Node: 3})
	if tr.Events() != 1 || len(tr.Tail()) != 1 || len(tr.cycle) != 0 {
		t.Fatalf("unattached tracer: %d events, tail %v, %d queued", tr.Events(), tr.Tail(), len(tr.cycle))
	}
	var off *Tracer
	off.Emit(Event{Node: 3})
}
