package cache

import (
	"testing"
	"testing/quick"
)

func TestPauseKnobMonitoringPeriod(t *testing.T) {
	k := pauseKnob{tpcThreshold: 16, ratioShift: 1, enabled: true}
	// During the monitoring period pushing stays requested even with zero
	// useful pushes.
	for i := 0; i < 15; i++ {
		k.onPush()
		if !k.needPush() {
			t.Fatalf("paused during monitoring period at push %d", i)
		}
	}
	k.onPush() // TPC hits the threshold with UPC=0
	if k.needPush() {
		t.Fatal("should pause: 0/16 useful")
	}
}

func TestPauseKnobFiftyPercentRatio(t *testing.T) {
	k := pauseKnob{tpcThreshold: 4, ratioShift: 1, enabled: true}
	for i := 0; i < 8; i++ {
		k.onPush()
	}
	for i := 0; i < 3; i++ {
		k.onUseful()
	}
	if k.needPush() {
		t.Fatal("3/8 useful is below 50%: should pause")
	}
	k.onUseful()
	if !k.needPush() {
		t.Fatal("4/8 useful meets the 50% shift-compare: should push")
	}
}

func TestPauseKnobQuarterRatio(t *testing.T) {
	k := pauseKnob{tpcThreshold: 4, ratioShift: 2, enabled: true}
	for i := 0; i < 8; i++ {
		k.onPush()
	}
	k.onUseful()
	if k.needPush() {
		t.Fatal("1/8 useful below 25%: should pause")
	}
	k.onUseful()
	if !k.needPush() {
		t.Fatal("2/8 useful meets 25%: should push")
	}
}

func TestPauseKnobOverflowHalving(t *testing.T) {
	k := pauseKnob{tpcThreshold: 16, ratioShift: 1, enabled: true}
	for i := 0; i < counterMax+10; i++ {
		k.onPush()
		k.onUseful()
	}
	if k.tpc >= counterMax {
		t.Fatalf("TPC %d not halved at 10-bit capacity", k.tpc)
	}
	if !k.needPush() {
		t.Fatal("100% useful must keep pushing after halving")
	}
}

func TestPauseKnobReset(t *testing.T) {
	k := pauseKnob{tpcThreshold: 4, ratioShift: 1, enabled: true}
	for i := 0; i < 8; i++ {
		k.onPush()
	}
	if k.needPush() {
		t.Fatal("precondition: paused")
	}
	k.reset()
	if !k.needPush() {
		t.Fatal("reset must restart the monitoring period")
	}
}

func TestPauseKnobDisabled(t *testing.T) {
	k := pauseKnob{tpcThreshold: 1, ratioShift: 1, enabled: false}
	for i := 0; i < 100; i++ {
		k.onPush()
	}
	if !k.needPush() {
		t.Fatal("disabled knob must always request pushes")
	}
	if k.tpc != 0 {
		t.Fatal("disabled knob must not count")
	}
}

// Property: needPush is monotone in usefulness — adding useful pushes never
// turns pushing off.
func TestPauseKnobMonotone(t *testing.T) {
	f := func(pushes, useful uint8) bool {
		k := pauseKnob{tpcThreshold: 8, ratioShift: 1, enabled: true}
		for i := 0; i < int(pushes); i++ {
			k.onPush()
		}
		for i := 0; i < int(useful); i++ {
			k.onUseful()
		}
		before := k.needPush()
		k.onUseful()
		return !before || k.needPush()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResumeKnobPhases(t *testing.T) {
	k := newResumeKnob(10, true)
	if k.resume {
		t.Fatal("must start in the disable-accepting phase")
	}
	k.onRequest(3, false)
	if !k.pushDisabled(3) {
		t.Fatal("need_push=false must add the requester to the PDRMap")
	}
	k.onRequest(3, true)
	if k.pushDisabled(3) {
		t.Fatal("need_push=true must remove the requester")
	}
	k.onRequest(3, false)
	for i := 0; i < 10; i++ {
		k.tickN(1)
	}
	if !k.resume {
		t.Fatal("time window expiry must enter the resume phase")
	}
	// Additions are blocked during resume; requests remove instead.
	k.onRequest(5, false)
	if k.pushDisabled(5) {
		t.Fatal("additions must be blocked during resume")
	}
	if !k.pushDisabled(3) {
		t.Fatal("prior entry should persist until touched")
	}
	if !k.resetFlagFor(3) {
		t.Fatal("resume-phase reply to a disabled requester must carry reset")
	}
	if k.pushDisabled(3) {
		t.Fatal("reset reply must clear the PDRMap entry")
	}
	if k.resetFlagFor(3) {
		t.Fatal("second reply must not carry reset again")
	}
	for i := 0; i < 10; i++ {
		k.tickN(1)
	}
	if k.resume {
		t.Fatal("window expiry must leave the resume phase")
	}
}

func TestResumeKnobDisabled(t *testing.T) {
	k := newResumeKnob(10, false)
	k.onRequest(1, false)
	if k.pushDisabled(1) {
		t.Fatal("disabled resume knob must not track requesters")
	}
	if k.resetFlagFor(1) {
		t.Fatal("disabled resume knob must not emit resets")
	}
}
