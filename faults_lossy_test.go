package pushmulticast

import (
	"errors"
	"testing"
)

// lossyPlans returns one whole-run plan per lossy kind plus a combined
// generated plan, at rates within the forward-progress ceiling.
func lossyPlans() map[string]FaultPlan {
	const forever = uint64(1) << 62
	all := func(kind FaultKind, rate int) FaultPlan {
		p := FaultPlan{Seed: 7}
		for n := 0; n < 16; n++ {
			p.Faults = append(p.Faults, Fault{Kind: kind, Node: n, To: forever, Factor: rate})
		}
		return p
	}
	return map[string]FaultPlan{
		"drop":     all(FaultMsgDrop, 50),
		"dup":      all(FaultMsgDup, 50),
		"corrupt":  all(FaultMsgCorrupt, 50),
		"combined": GenerateLossyPlan(16, 7, 60),
	}
}

// TestLossyReplayIdentical is the recovery layer's determinism contract: a
// lossy plan must replay byte-identically — cycles, stats, and the complete
// event history including every drop, duplicate, retransmission, and
// recovery — across the wake-driven and dense kernels, with the invariant
// checker armed throughout.
func TestLossyReplayIdentical(t *testing.T) {
	for name, plan := range lossyPlans() {
		name, plan := name, plan
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mkCfg := func() Config {
				cfg := withCheck(ScaledConfig(Default16()).WithScheme(OrdPush()))
				cfg.Faults = &plan
				return cfg
			}
			serial, err := Run(mkCfg(), "cachebw", ScaleTiny)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			dense, err := Run(withDense(mkCfg()), "cachebw", ScaleTiny)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			checkIdentical(t, "serial", "dense", serial, dense)
			loss := serial.Stats.Net.MsgDropped + serial.Stats.Net.DupSuppressed +
				serial.Stats.Net.CorruptDetected
			if loss == 0 {
				t.Error("no lossy event ever fired; the plan never bit")
			}
		})
	}
}

// TestLossyStats asserts the whole counter chain is plumbed end-to-end: a
// combined lossy run at a meaningful rate must report every recovery-layer
// counter non-zero — drops, detected corruptions, suppressed duplicates,
// retransmissions, and the L2's MSHR retry timers.
func TestLossyStats(t *testing.T) {
	plan := GenerateLossyPlan(16, 11, 80)
	cfg := withCheck(ScaledConfig(Default16()).WithScheme(OrdPush()))
	cfg.Faults = &plan
	res, err := Run(cfg, "cachebw", ScaleTiny)
	if err != nil {
		t.Fatalf("lossy run failed: %v", err)
	}
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"MsgDropped", res.Stats.Net.MsgDropped},
		{"Retransmits", res.Stats.Net.Retransmits},
		{"DupSuppressed", res.Stats.Net.DupSuppressed},
		{"CorruptDetected", res.Stats.Net.CorruptDetected},
		{"MSHRTimeouts", res.Stats.Cache.MSHRTimeouts},
	} {
		if c.v == 0 {
			t.Errorf("%s is zero under 80 per-mille loss; the counter is not plumbed", c.name)
		}
	}
}

// TestLossyUnrecoverable drives the loss rate to 1000 per mille — every
// delivery at every NI discarded, including retransmissions — and demands
// the loud-failure contract: the run must abort promptly with a wrapped
// noc.ErrUnrecoverable (reachable via errors.Is), never hang until the
// watchdog or deadlock.
func TestLossyUnrecoverable(t *testing.T) {
	plan := GenerateLossyPlan(16, 3, 1000)
	for _, dense := range []bool{false, true} {
		name := "serial"
		if dense {
			name = "dense"
		}
		t.Run(name, func(t *testing.T) {
			cfg := withCheck(ScaledConfig(Default16()).WithScheme(OrdPush()))
			cfg.Faults = &plan
			cfg.DenseKernel = dense
			_, err := Run(cfg, "cachebw", ScaleTiny)
			if err == nil {
				t.Fatal("total loss completed successfully; the retry budget never tripped")
			}
			if !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("total loss failed with %v, want ErrUnrecoverable", err)
			}
		})
	}
}

// TestFailedMachineRefusesSnapshot: a run that fails stops at the end of the
// cycle it failed in, stays failed, and refuses to snapshot, so no snapshot
// ever carries a failure. Total loss on 16 cores fails at cycle 95,701 (an L2
// out of reissues); a later RunTo steps no further, and Snapshot returns the
// failure and no bytes.
func TestFailedMachineRefusesSnapshot(t *testing.T) {
	cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
	plan := GenerateLossyPlan(cfg.Tiles(), 1, 1000)
	cfg.Faults = &plan
	m, err := NewMachine(cfg, goldenWorkload(t, "cachebw"), ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	const failedAt = 95701
	for range 2 {
		if err := m.RunTo(1 << 40); !errors.Is(err, ErrUnrecoverable) || m.Now() != failedAt {
			t.Fatalf("RunTo stopped at cycle %d with %v; want cycle %d and ErrUnrecoverable", m.Now(), err, failedAt)
		}
	}
	data, err := m.Snapshot()
	if !errors.Is(err, ErrUnrecoverable) || data != nil {
		t.Fatalf("failed machine's Snapshot returned %d bytes and %v; want no bytes and its failure", len(data), err)
	}
}
