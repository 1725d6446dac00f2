package check

import (
	"strings"
	"testing"

	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/trace"
)

// orderedMonitor is a monitor with OrdPush tracking on and nothing to sweep.
func orderedMonitor() *Monitor {
	cfg := config.Default16().WithScheme(config.OrdPush())
	cfg.Check = true
	return New(&cfg, nil, nil, nil, trace.New(0))
}

const (
	orderedLine = 0x4000
	orderedTile = 3
)

// packet feeds one injection or delivery of packet id, a push or an
// invalidation from tile 0 to orderedTile on orderedLine.
func packet(m *Monitor, kind trace.Kind, id uint64, flag int32) {
	node := int32(0)
	if kind == trace.KDeliver {
		node = orderedTile
	}
	m.checkEvent(trace.Event{Kind: kind, Node: node, ID: id, Addr: orderedLine, B: flag,
		Aux: trace.Aux(noc.OneDest(orderedTile))})
}

// TestOrdPushReportsEarliestOvertakenPush delivers an invalidation ahead of
// several pushes it overtook and requires the violation to name the
// earliest of them on every run, whatever order the tracking tables hold
// them in; a push injected after the invalidation, or already delivered, is
// never the one named.
func TestOrdPushReportsEarliestOvertakenPush(t *testing.T) {
	const push, inv = trace.FlagPush, trace.FlagInv
	type step struct {
		kind trace.Kind
		id   uint64
		flag int32
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  string // "" = no violation
	}{
		{"two overtaken pushes", []step{
			{trace.KInject, 0x10, push}, {trace.KInject, 0x11, push}, {trace.KInject, 0x12, inv},
			{trace.KInject, 0x13, push}, {trace.KDeliver, 0x12, inv},
		}, "push id 0x10 (seq 1)"},
		{"the earliest already delivered", []step{
			{trace.KInject, 0x10, push}, {trace.KInject, 0x11, push}, {trace.KInject, 0x14, push},
			{trace.KInject, 0x12, inv}, {trace.KDeliver, 0x10, push}, {trace.KDeliver, 0x12, inv},
		}, "push id 0x11 (seq 2)"},
		{"the middle one delivered", []step{
			{trace.KInject, 0x10, push}, {trace.KInject, 0x11, push}, {trace.KInject, 0x14, push},
			{trace.KInject, 0x12, inv}, {trace.KDeliver, 0x11, push}, {trace.KDeliver, 0x10, push},
			{trace.KDeliver, 0x12, inv},
		}, "push id 0x14 (seq 3)"},
		{"only a later push in flight", []step{
			{trace.KInject, 0x10, push}, {trace.KDeliver, 0x10, push}, {trace.KInject, 0x12, inv},
			{trace.KInject, 0x13, push}, {trace.KDeliver, 0x12, inv},
		}, ""},
	} {
		for run := 0; run < 50; run++ {
			m := orderedMonitor()
			for _, s := range tc.steps {
				packet(m, s.kind, s.id, s.flag)
			}
			err := m.Err()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("%s, run %d: %v", tc.name, run, err)
			case tc.want == "":
				if _, tracked := m.tracks[0x12]; tracked {
					t.Fatalf("%s: the delivered invalidation is still tracked", tc.name)
				}
			case err == nil || !strings.Contains(err.Error(), "OrdPush ordering violated") || !strings.Contains(err.Error(), tc.want):
				t.Fatalf("%s, run %d: %v, want a violation naming %s", tc.name, run, err, tc.want)
			}
		}
	}
}

// TestOrdPushLineIndexFollowsDeliveries retires pushes from the head, the
// middle and the tail of a line's list and requires the list to hold exactly
// the pushes still in flight.
func TestOrdPushLineIndexFollowsDeliveries(t *testing.T) {
	m := orderedMonitor()
	for id := uint64(0x10); id < 0x15; id++ {
		packet(m, trace.KInject, id, trace.FlagPush)
	}
	for _, id := range []uint64{0x14, 0x12, 0x10} { // head, middle, tail
		packet(m, trace.KDeliver, id, trace.FlagPush)
	}
	var listed []uint64
	for id, ok := m.pushLines[orderedLine]; ok && id != noPush; id = m.tracks[id].next {
		listed = append(listed, id)
	}
	if len(listed) != 2 || listed[0] != 0x13 || listed[1] != 0x11 {
		t.Fatalf("line list %#x, want [0x13 0x11]", listed)
	}
	packet(m, trace.KDeliver, 0x11, trace.FlagPush)
	packet(m, trace.KDeliver, 0x13, trace.FlagPush)
	if len(m.tracks) != 0 || len(m.pushLines) != 0 {
		t.Fatalf("after every delivery: %d pushes, %d line lists", len(m.tracks), len(m.pushLines))
	}
}
