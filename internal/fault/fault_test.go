package fault

import (
	"encoding/json"
	"strings"
	"testing"

	"pushmulticast/internal/stats"
)

const testNodes = 16

// TestValidateRejectsBadWindows covers the malformed-schedule rejections:
// zero-length and inverted windows, periods shorter than their window, and
// out-of-range targets and intensities.
func TestValidateRejectsBadWindows(t *testing.T) {
	cases := []struct {
		name string
		f    Fault
		want string
	}{
		{"zero-length", Fault{Kind: LinkStall, From: 50, To: 50}, "empty window"},
		{"inverted", Fault{Kind: MsgDrop, From: 90, To: 10, Factor: 5}, "empty window"},
		{"period-shorter-than-window", Fault{Kind: VCJitter, From: 0, To: 100, Period: 50, MaxJitter: 4, VNet: -1}, "period 50 shorter than window"},
		{"unknown-kind", Fault{Kind: numKinds, From: 0, To: 10}, "unknown kind"},
		{"node-negative", Fault{Kind: MsgDup, Node: -1, From: 0, To: 10, Factor: 5}, "outside [0,"},
		{"node-too-big", Fault{Kind: MsgDup, Node: testNodes, From: 0, To: 10, Factor: 5}, "outside [0,"},
		{"outage-too-long", Fault{Kind: RouterSlow, From: 0, To: MaxOutageWindow + 1, Factor: 2}, "exceeds MaxOutageWindow"},
		{"duty-factor-low", Fault{Kind: RouterSlow, From: 0, To: 10, Factor: 1}, "duty factor"},
		{"jitter-zero", Fault{Kind: VCJitter, From: 0, To: 10, MaxJitter: 0, VNet: -1}, "max jitter"},
		{"loss-rate-zero", Fault{Kind: MsgDrop, From: 0, To: 10, Factor: 0}, "per-mille loss rate"},
		{"loss-rate-over-1000", Fault{Kind: MsgCorrupt, From: 0, To: 10, Factor: 1001}, "per-mille loss rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Plan{Faults: []Fault{tc.f}}
			err := p.Validate(testNodes)
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.f)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateRejectsOverlap covers the same-component overlap rejection for
// one-shot/one-shot, one-shot/periodic, and periodic/periodic pairs, and
// checks that disjoint or different-component pairs pass.
func TestValidateRejectsOverlap(t *testing.T) {
	drop := func(node int, from, to, period uint64) Fault {
		return Fault{Kind: MsgDrop, Node: node, From: from, To: to, Period: period, Factor: 10}
	}
	cases := []struct {
		name    string
		a, b    Fault
		overlap bool
	}{
		{"oneshot-oneshot-overlap", drop(3, 0, 100, 0), drop(3, 50, 150, 0), true},
		{"oneshot-oneshot-adjacent", drop(3, 0, 100, 0), drop(3, 100, 200, 0), false},
		{"oneshot-inside-periodic", drop(3, 1000, 1100, 0), drop(3, 0, 50, 500), true},
		{"oneshot-between-periodic-windows", drop(3, 160, 190, 0), drop(3, 0, 50, 200), false},
		{"periodic-periodic-aligned", drop(3, 0, 50, 300), drop(3, 25, 60, 300), true},
		{"periodic-periodic-disjoint-phase", drop(3, 0, 50, 300), drop(3, 100, 150, 300), false},
		{"periodic-periodic-coprime-durations-cover", drop(3, 0, 50, 300), drop(3, 0, 30, 70), true},
		{"different-node", drop(3, 0, 100, 0), drop(4, 0, 100, 0), false},
		{
			"different-kind",
			drop(3, 0, 100, 0),
			Fault{Kind: MsgDup, Node: 3, From: 0, To: 100, Factor: 10},
			false,
		},
		{
			"port-wildcard-collides",
			Fault{Kind: LinkStall, Node: 3, Port: -1, From: 0, To: 100},
			Fault{Kind: LinkStall, Node: 3, Port: 2, From: 50, To: 150},
			true,
		},
		{
			"distinct-ports-pass",
			Fault{Kind: LinkStall, Node: 3, Port: 1, From: 0, To: 100},
			Fault{Kind: LinkStall, Node: 3, Port: 2, From: 0, To: 100},
			false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Plan{Faults: []Fault{tc.a, tc.b}}
			err := p.Validate(testNodes)
			if tc.overlap && err == nil {
				t.Fatalf("Validate accepted overlapping pair %+v / %+v", tc.a, tc.b)
			}
			if !tc.overlap && err != nil {
				t.Fatalf("Validate rejected non-overlapping pair: %v", err)
			}
			if tc.overlap && !strings.Contains(err.Error(), "overlapping windows") {
				t.Fatalf("error %q does not mention overlapping windows", err)
			}
		})
	}
}

// TestGeneratePlanAlwaysValidates fuzzes the chaos-plan generators across 10k
// (seed, intensity/rate, machine size) combinations: every generated plan
// must pass its own validation — the generators are the campaign's trusted
// input source and must never hand the injector an illegal schedule.
func TestGeneratePlanAlwaysValidates(t *testing.T) {
	sizes := []int{4, 16, 64}
	x := uint64(0xC0FFEE)
	for i := 0; i < 10_000; i++ {
		x = splitmix64(x)
		seed := x
		nodes := sizes[i%len(sizes)]
		if i%2 == 0 {
			intensity := float64(x%1001) / 1000
			p := GeneratePlan(nodes, seed, intensity)
			if err := p.Validate(nodes); err != nil {
				t.Fatalf("case %d: GeneratePlan(%d, %#x, %v) invalid: %v", i, nodes, seed, intensity, err)
			}
			if intensity == 0 && len(p.Faults) != 0 {
				t.Fatalf("case %d: intensity 0 produced %d faults", i, len(p.Faults))
			}
		} else {
			rate := int(x % 1101) // exercises the >1000 clamp too
			p := GenerateLossyPlan(nodes, seed, rate)
			if err := p.Validate(nodes); err != nil {
				t.Fatalf("case %d: GenerateLossyPlan(%d, %#x, %d) invalid: %v", i, nodes, seed, rate, err)
			}
			if rate > 0 && !p.Lossy() {
				t.Fatalf("case %d: lossy plan at rate %d reports Lossy()=false", i, rate)
			}
			if rate <= 0 && len(p.Faults) != 0 {
				t.Fatalf("case %d: rate %d produced %d faults", i, rate, len(p.Faults))
			}
		}
	}
}

// TestGeneratePlanDeterministic pins the generator contract: equal inputs
// yield structurally identical plans.
func TestGeneratePlanDeterministic(t *testing.T) {
	a := GeneratePlan(16, 42, 0.7)
	b := GeneratePlan(16, 42, 0.7)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("GeneratePlan not deterministic:\n%s\n%s", ja, jb)
	}
	la := GenerateLossyPlan(16, 42, 80)
	lb := GenerateLossyPlan(16, 42, 80)
	ja, _ = json.Marshal(la)
	jb, _ = json.Marshal(lb)
	if string(ja) != string(jb) {
		t.Fatalf("GenerateLossyPlan not deterministic:\n%s\n%s", ja, jb)
	}
}

// TestKindJSONRoundtrip checks the readable plan-file encoding: kinds
// marshal by name, unmarshal case-insensitively or numerically, and reject
// garbage with a useful message.
func TestKindJSONRoundtrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Fatalf("roundtrip %v via %s: got %v, err %v", k, b, back, err)
		}
		var lower Kind
		if err := json.Unmarshal([]byte(`"`+strings.ToLower(k.String())+`"`), &lower); err != nil || lower != k {
			t.Fatalf("case-insensitive unmarshal of %v failed: got %v, err %v", k, lower, err)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"MsgTeleport"`), &k); err == nil {
		t.Fatal("unknown kind name accepted")
	}
	if err := json.Unmarshal([]byte(`250`), &k); err == nil {
		t.Fatal("out-of-range numeric kind accepted")
	}
	if err := json.Unmarshal([]byte(`2`), &k); err != nil || k != VCJitter {
		t.Fatalf("numeric kind 2: got %v, err %v", k, err)
	}
}

// FuzzFaultPlan feeds arbitrary bytes through the pushsim -faultplan trust
// boundary: JSON decode into a Plan, then Validate. Neither may panic, and a
// plan that validates must build an injector whose boundary schedule is
// strictly increasing until it is spent — however large its cycle numbers, a
// run's injector never stalls on a cycle or walks backwards. The step count is
// bounded: a periodic fault has boundaries forever.
func FuzzFaultPlan(f *testing.F) {
	for _, plan := range []Plan{GeneratePlan(testNodes, 7, 0.5), GenerateLossyPlan(testNodes, 7, 60)} {
		data, err := json.Marshal(plan)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		// The bad-input rows of cmd/pushsim's TestBuildFaultPlanBadInput.
		`not json at all{`,
		`{"Faults": "everywhere"}`,
		`{"Faults":[{"Kind":"MsgTeleport","From":0,"To":10}]}`,
		`{"Faults":[{"Kind":"MsgDrop","From":50,"To":50,"Factor":10}]}`,
		`{"Faults":[{"Kind":"MsgDrop","Node":99,"From":0,"To":10,"Factor":10}]}`,
		`{"Faults":[{"Kind":"MsgDrop","Node":3,"From":0,"To":100,"Factor":10},{"Kind":"MsgDrop","Node":3,"From":50,"To":150,"Factor":20}]}`,
		// CI's plan: one window to 2^62.
		`{"Seed":7,"Faults":[{"Kind":"MsgDrop","Node":3,"From":0,"To":4611686018427387904,"Factor":60}]}`,
		// Periodic windows whose next start lies past the end of the counter.
		`{"Faults":[{"Kind":"MsgDup","Node":1,"From":18446744073709551566,"To":18446744073709551576,"Period":20,"Factor":10}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var plan Plan
		if json.Unmarshal(data, &plan) != nil || plan.Validate(testNodes) != nil {
			return
		}
		in := NewInjector(plan, testNodes, stats.New())
		for c, steps := uint64(0), 0; steps < 256; steps++ {
			in.onBoundary(c)
			if in.next == ^uint64(0) {
				return // schedule spent
			}
			if in.next <= c {
				t.Fatalf("boundary after cycle %d is %d: the schedule must move forward", c, in.next)
			}
			c = in.next
		}
	})
}
