package trace

import (
	"testing"
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

// drained collects the events a drain folds in, in order.
func drained(tr *Tracer) []Event {
	var got []Event
	tr.Drain(func(e Event) { got = append(got, e) })
	return got
}

// TestDrainOrderIsCreationOrder emits from shards in reverse creation order,
// across more than one word of the emitted bitmap, and requires the drain to
// fold them in creation order with each shard's events in program order.
func TestDrainOrderIsCreationOrder(t *testing.T) {
	tr := New(16)
	shards := make([]*Shard, 70)
	for i := range shards {
		shards[i] = tr.NewShard()
	}
	emitters := []int{69, 64, 63, 5, 0}
	for _, i := range emitters {
		shards[i].Emit(Event{Node: int32(i), A: 1})
		shards[i].Emit(Event{Node: int32(i), A: 2})
	}
	got := drained(tr)
	if len(got) != 2*len(emitters) {
		t.Fatalf("drained %d events, want %d", len(got), 2*len(emitters))
	}
	for k, e := range got {
		want := Event{Node: int32(emitters[len(emitters)-1-k/2]), A: int32(k%2 + 1)}
		if e != want {
			t.Errorf("event %d is %v, want %v", k, e, want)
		}
	}
}

// TestDrainSkipsDrainedShards requires a shard emptied by one drain to be
// left alone by the next: a second drain folds nothing in, and a third sees
// only what was emitted after the second.
func TestDrainSkipsDrainedShards(t *testing.T) {
	tr := New(16)
	a, b := tr.NewShard(), tr.NewShard()
	a.Emit(Event{Node: 0})
	b.Emit(Event{Node: 1})
	if got := drained(tr); len(got) != 2 {
		t.Fatalf("first drain folded %d events, want 2", len(got))
	}
	for w, word := range tr.emitted {
		if word != 0 {
			t.Fatalf("emitted word %d is %#x after a drain, want 0", w, word)
		}
	}
	hash, count := tr.Hash(), tr.Events()
	if got := drained(tr); len(got) != 0 || tr.Hash() != hash || tr.Events() != count {
		t.Fatalf("a drain with nothing emitted folded %d events (hash %#x -> %#x)", len(got), hash, tr.Hash())
	}
	b.Emit(Event{Node: 1, A: 7})
	if got := drained(tr); len(got) != 1 || got[0].A != 7 {
		t.Fatalf("third drain folded %v, want the one event emitted since", got)
	}
}
