package pushmulticast

import (
	"reflect"
	"testing"
)

// faultPlans returns one plan per fault kind plus a combined plan, tuned so
// tiny-scale runs (a few thousand cycles) hit every window repeatedly: early
// onset, ~500-cycle outages, short periods.
func faultPlans() map[string]FaultPlan {
	perKind := map[string]FaultPlan{
		"linkstall": {Seed: 7, Faults: []Fault{
			{Kind: FaultLinkStall, Node: 1, Port: -1, From: 100, To: 600, Period: 1600},
		}},
		"routerslow": {Seed: 7, Faults: []Fault{
			{Kind: FaultRouterSlow, Node: 2, From: 150, To: 650, Period: 1700, Factor: 3},
		}},
		"vcjitter": {Seed: 7, Faults: []Fault{
			{Kind: FaultVCJitter, Node: 0, Port: -1, From: 100, To: 700, Period: 1500, MaxJitter: 4, VNet: -1},
		}},
		"injspike": {Seed: 7, Faults: []Fault{
			{Kind: FaultInjSpike, Node: 3, From: 120, To: 620, Period: 1800, Factor: 1},
		}},
		"filterdrop": {Seed: 7, Faults: []Fault{
			{Kind: FaultFilterDrop, Node: 5, From: 100, To: 900, Period: 2000},
		}},
	}
	combined := FaultPlan{Seed: 7}
	for _, name := range []string{"linkstall", "routerslow", "vcjitter", "injspike", "filterdrop"} {
		combined.Faults = append(combined.Faults, perKind[name].Faults...)
	}
	perKind["combined"] = combined
	return perKind
}

// TestFaultReplayIdentical is the fault layer's determinism contract: for
// every fault kind, the wake-driven and dense kernels under the same plan
// must produce byte-identical results down to the full event history.
// The invariant checker stays on throughout — a plan that completes with a
// coherence violation fails here, not just one that diverges.
func TestFaultReplayIdentical(t *testing.T) {
	for name, plan := range faultPlans() {
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
			dcfg := mkCfg()
			dcfg.DenseKernel = true
			dense, err := Run(dcfg, "cachebw", ScaleTiny)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			checkIdentical(t, "serial", "dense", serial, dense)
			if serial.Stats.Net.FaultWindows == 0 {
				t.Error("no fault windows activated; the plan never fired")
			}
		})
	}
}

// TestFaultGracefulDegradation runs the combined plan (and a generated
// worst-case plan) under both schemes with the checker on: the degradation
// contract demands the run completes — no panic, no deadlock, no violation.
func TestFaultGracefulDegradation(t *testing.T) {
	combined := faultPlans()["combined"]
	generated := GenerateFaultPlan(16, 99, 1.0)
	if len(generated.Faults) == 0 {
		t.Fatal("generated plan at full intensity is empty")
	}
	for _, tc := range []struct {
		name string
		plan FaultPlan
	}{{"combined", combined}, {"generated", generated}} {
		for _, sch := range []Scheme{Baseline(), OrdPush()} {
			tc, sch := tc, sch
			t.Run(tc.name+"/"+sch.Name, func(t *testing.T) {
				t.Parallel()
				cfg := withCheck(ScaledConfig(Default16()).WithScheme(sch))
				cfg.Faults = &tc.plan
				res, err := Run(cfg, "cachebw", ScaleTiny)
				if err != nil {
					t.Fatalf("degradation contract breached: %v", err)
				}
				if res.Cycles == 0 {
					t.Fatal("run reported zero cycles")
				}
			})
		}
	}
}

// TestGenerateFaultPlan pins the generator's contract: same inputs yield the
// same plan, the plan validates against the machine, intensity 0 is empty,
// and different seeds diverge.
func TestGenerateFaultPlan(t *testing.T) {
	a := GenerateFaultPlan(16, 42, 0.5)
	b := GenerateFaultPlan(16, 42, 0.5)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed and intensity produced different plans")
	}
	if len(a.Faults) == 0 {
		t.Fatal("plan at intensity 0.5 is empty")
	}
	if err := a.Validate(16); err != nil {
		t.Errorf("generated plan does not validate: %v", err)
	}
	if c := GenerateFaultPlan(16, 43, 0.5); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans")
	}
	if z := GenerateFaultPlan(16, 42, 0); len(z.Faults) != 0 {
		t.Errorf("intensity 0 produced %d faults", len(z.Faults))
	}
}

// TestFaultPlanValidate exercises the plan validator's rejections through
// the public Config path: a bad plan must fail the run up front.
func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		f    Fault
	}{
		{"bad kind", Fault{Kind: FaultKind(200), Node: 0, From: 1, To: 2}},
		{"node out of range", Fault{Kind: FaultRouterSlow, Node: 99, From: 1, To: 2, Factor: 2}},
		{"empty window", Fault{Kind: FaultRouterSlow, Node: 0, From: 5, To: 5, Factor: 2}},
		{"period shorter than window", Fault{Kind: FaultRouterSlow, Node: 0, From: 0, To: 100, Period: 50, Factor: 2}},
		{"slow factor too small", Fault{Kind: FaultRouterSlow, Node: 0, From: 1, To: 2, Factor: 1}},
		{"jitter too large", Fault{Kind: FaultVCJitter, Node: 0, Port: -1, From: 1, To: 2, MaxJitter: 1000, VNet: -1}},
		{"outage too long", Fault{Kind: FaultLinkStall, Node: 0, Port: -1, From: 0, To: 1 << 30}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan := FaultPlan{Seed: 1, Faults: []Fault{tc.f}}
			cfg := ScaledConfig(Default16()).WithScheme(Baseline())
			cfg.Faults = &plan
			if _, err := Run(cfg, "cachebw", ScaleTiny); err == nil {
				t.Error("invalid fault plan accepted")
			}
		})
	}
}
