package check

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pushmulticast/internal/config"
	"pushmulticast/internal/fault"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/trace"
)

// lossyMonitor is a monitor with OrdPush tracking and loss obligations on
// and nothing to sweep, registered on an engine of its own.
func lossyMonitor() *Monitor {
	cfg := config.Default16().WithScheme(config.OrdPush())
	cfg.Check = true
	plan := fault.GenerateLossyPlan(cfg.Tiles(), 1, 20)
	cfg.Faults = &plan
	m := New(&cfg, nil, nil, nil, trace.New(0))
	m.Register(sim.NewEngine(0, 0))
	return m
}

// Events on orderedLine from source tile 0; key is a transport stream key.
func inject(id uint64, flag int32, dests ...noc.NodeID) trace.Event {
	var to noc.DestSet
	for _, d := range dests {
		to = to.Add(d)
	}
	return trace.Event{Kind: trace.KInject, Node: 0, ID: id, Addr: orderedLine, B: flag, Aux: trace.Aux(to)}
}

func deliver(id uint64, flag int32, at int32) trace.Event {
	return trace.Event{Kind: trace.KDeliver, Node: at, ID: id, Addr: orderedLine, B: flag}
}

func lost(kind trace.Kind, id uint64, at int32, key, cycle uint64) trace.Event {
	return trace.Event{Kind: kind, Cycle: cycle, Node: at, ID: id, Addr: orderedLine, Aux: trace.Aux{key}}
}

func retransmit(id, key uint64) trace.Event {
	return trace.Event{Kind: trace.KRetransmit, Node: 0, ID: id, Addr: orderedLine, Aux: trace.Aux{key}}
}

// TestCloneInheritsOriginalSerial loses a push p at tile 2 and then the
// timeout clone p1 that was injected, with a later serial, before the loss.
// The clone p2 retransmitted after both must still be judged by p's serial:
// the invalidation i, injected after p, overtakes it when delivered first.
func TestCloneInheritsOriginalSerial(t *testing.T) {
	const push, inv = trace.FlagPush, trace.FlagInv
	const p, i, p1, p2, key = 0x10, 0x11, 0x12, 0x13, 0x77
	m := lossyMonitor()
	for _, e := range []trace.Event{
		inject(p, push, 1, 2), inject(i, inv, 2), inject(p1, push, 1, 2),
		deliver(p, push, 1), lost(trace.KMsgDup, p1, 1, key, 0),
		lost(trace.KMsgDrop, p, 2, key, 0), lost(trace.KMsgDrop, p1, 2, key, 0),
		inject(p2, push, 2), retransmit(p2, key),
		deliver(i, inv, 2),
	} {
		m.checkEvent(e)
	}
	if err := m.h.Err(); err == nil || !strings.Contains(err.Error(), "OrdPush ordering violated") || !strings.Contains(err.Error(), "push id 0x13 (seq 1)") {
		t.Fatalf("got %v, want the violation naming the clone 0x13 at the original's serial 1", err)
	}
}

// TestLossObligations drives the loss bookkeeping event by event: which
// drops open an obligation, what a repeat loss or a recovery does to it, how
// long a key's serial lives, and which obligation the age sweep names. Every
// row's monitor then round-trips through State.
func TestLossObligations(t *testing.T) {
	const push, inv = trace.FlagPush, trace.FlagInv
	const k1, k2, k3 = 0x41, 0x42, 0x43
	bound := lossyMonitor().lossBound
	orphan := lost(trace.KMsgDrop, 0x10, 2, k1, 100)
	orphan.B = 1
	for _, tc := range []struct {
		name   string
		events []trace.Event
		sweep  uint64 // the cycle of an age sweep after the events; 0: none
		open   []obligation
		seqs   map[uint64]uint64
		err    string
	}{
		{"a non-orphan drop opens an obligation",
			[]trace.Event{lost(trace.KMsgDrop, 0x10, 2, k1, 100)},
			0, []obligation{{2, k1, 100}}, map[uint64]uint64{}, ""},
		{"an orphan drop opens nothing",
			[]trace.Event{orphan}, 0, nil, map[uint64]uint64{}, ""},
		{"a repeat loss refreshes the obligation's age",
			[]trace.Event{lost(trace.KMsgDrop, 0x10, 2, k1, 100), lost(trace.KMsgCorrupt, 0x11, 2, k1, 300)},
			0, []obligation{{2, k1, 300}}, map[uint64]uint64{}, ""},
		{"a key open at two tiles keeps its serial until the second recovers",
			[]trace.Event{
				inject(0x10, push, 1, 2),
				lost(trace.KMsgDrop, 0x10, 2, k1, 100), lost(trace.KMsgDrop, 0x10, 1, k1, 110),
				lost(trace.KMsgRecover, 0x12, 1, k1, 200),
			},
			0, []obligation{{2, k1, 100}}, map[uint64]uint64{k1: 1}, ""},
		{"the second recovery forgets the serial",
			[]trace.Event{
				inject(0x10, push, 1, 2),
				lost(trace.KMsgDrop, 0x10, 2, k1, 100), lost(trace.KMsgDrop, 0x10, 1, k1, 110),
				lost(trace.KMsgRecover, 0x12, 1, k1, 200), lost(trace.KMsgRecover, 0x12, 2, k1, 210),
			},
			0, nil, map[uint64]uint64{}, ""},
		{"a recovery closes only its own tile's obligation",
			[]trace.Event{
				lost(trace.KMsgDrop, 0x10, 1, k1, 100), lost(trace.KMsgDrop, 0x10, 2, k1, 100),
				lost(trace.KMsgRecover, 0x12, 3, k1, 200), lost(trace.KMsgRecover, 0x12, 1, k1, 210),
			},
			0, []obligation{{2, k1, 100}}, map[uint64]uint64{}, ""},
		{"open obligations beside in-flight records",
			[]trace.Event{
				inject(0x10, push, 1, 2), inject(0x11, inv, 1, 2), inject(0x13, push, 2),
				lost(trace.KMsgDrop, 0x10, 2, k2, 100), lost(trace.KMsgDrop, 0x11, 1, k1, 120),
			},
			bound + 100, []obligation{{1, k1, 120}, {2, k2, 100}}, map[uint64]uint64{k1: 2, k2: 1}, ""},
		{"past the bound the sweep names the oldest, then the first by (node, key)",
			[]trace.Event{
				lost(trace.KMsgDrop, 0x10, 3, k1, 100), lost(trace.KMsgDrop, 0x11, 1, k3, 100),
				lost(trace.KMsgDrop, 0x12, 1, k2, 100), lost(trace.KMsgDrop, 0x13, 0, k1, 150),
				lost(trace.KMsgDrop, 0x14, 2, k1, 90), lost(trace.KMsgRecover, 0x15, 2, k1, 160),
			},
			bound + 101, []obligation{{0, k1, 150}, {1, k2, 100}, {1, k3, 100}, {3, k1, 100}}, map[uint64]uint64{},
			"stream key 0x42 dropped at tile 1 on cycle 100, still outstanding after"},
	} {
		m := lossyMonitor()
		for _, e := range tc.events {
			m.checkEvent(e)
		}
		if tc.sweep != 0 {
			m.scanLossAge(tc.sweep)
		}
		if !slices.Equal(m.open, tc.open) || !maps.Equal(m.lossSeq, tc.seqs) {
			t.Errorf("%s: open %v, serials %v; want %v, %v", tc.name, m.open, m.lossSeq, tc.open, tc.seqs)
		}
		if err := m.h.Err(); tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.err)
		}
		if m.h.Err() != nil {
			continue // a monitor on a failed run refuses to snapshot
		}
		enc := snapshot.NewEncoder("", "", 0)
		m.State(enc)
		dec, err := snapshot.NewDecoder(enc.Finish())
		if err != nil {
			t.Fatal(err)
		}
		back := lossyMonitor()
		if back.State(dec); dec.Err() != nil {
			t.Fatalf("%s: %v", tc.name, dec.Err())
		}
		if !reflect.DeepEqual(back.tracks, m.tracks) || !reflect.DeepEqual(back.pushLines, m.pushLines) ||
			!slices.Equal(back.open, m.open) || !maps.Equal(back.lossSeq, m.lossSeq) || !slices.Equal(back.seq, m.seq) {
			t.Errorf("%s: the monitor changed across State", tc.name)
		}
	}
}
