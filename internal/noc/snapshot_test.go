package noc

import (
	"bytes"
	"testing"

	"pushmulticast/internal/snapshot"
)

// TestFilterSlackIsNotState: aliveUntil is an upper bound the datapath never
// lowers, so two banks holding the same entries can disagree on it and still
// answer every lookup alike. They serialize alike too, and a restore gives
// both the exact bound, which the audit accepts.
func TestFilterSlackIsNotState(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.FilterEnabled = true
	encode := func(n *Network) []byte {
		c := snapshot.NewEncoder("", "", 0)
		n.State(c)
		return c.Finish()
	}
	_, slack, _ := testNet(t, cfg)
	_, tight, _ := testNet(t, cfg)
	for _, n := range []*Network{slack, tight} {
		fb := n.routers[3].filters
		fb.register(PortEast, PortWest, 0, 0x1000, OneDest(2))
		if n == slack {
			fb.scheduleClear(PortEast, PortWest, 0, 90)
		}
		fb.scheduleClear(PortEast, PortWest, 0, 30)
	}
	if a, b := slack.routers[3].filters.aliveUntil[PortEast], tight.routers[3].filters.aliveUntil[PortEast]; a != 90 || b != 30 {
		t.Fatalf("aliveUntil %d and %d, want 90 and 30: the banks do not differ in slack", a, b)
	}
	data := encode(slack)
	if !bytes.Equal(data, encode(tight)) {
		t.Fatal("banks with equal entries serialize differently")
	}
	c, err := snapshot.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	_, back, _ := testNet(t, cfg)
	if back.State(c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	fb := back.routers[3].filters
	if fb.activeCnt[PortEast] != 0 || fb.aliveUntil[PortEast] != 30 {
		t.Fatalf("restored accounting is activeCnt %d, aliveUntil %d; the entries imply 0 and 30", fb.activeCnt[PortEast], fb.aliveUntil[PortEast])
	}
	if err := back.CheckConservation(0); err != nil {
		t.Fatalf("restored network fails its audit: %v", err)
	}
}
