package pushmulticast

// RunSpecCase is one entry of the tables the front ends' test suites share:
// cmd/pushsim renders Spec as flags, internal/serve as a campaign body, and
// both must treat it exactly as Resolve does. Exported for those suites (and
// as FuzzRunSpec's seeds); nothing in the simulator reads it.
type RunSpecCase struct {
	Name string
	Spec RunSpec
	// Want is a substring of the one-line rejection; empty for a description
	// that must resolve.
	Want string
	// ExtraJSON and ExtraArgs spell what Spec's fields cannot — a key the
	// schema does not have: a raw member added to the description's JSON
	// object (run description and campaign body alike), or extra pushsim
	// arguments. Such a case is refused by that dialect's own parser, so only
	// the front ends speaking the dialect run it.
	ExtraJSON string
	ExtraArgs []string
}

// WithExtraJSON returns the marshalled JSON object obj with the case's
// ExtraJSON member added.
func (c RunSpecCase) WithExtraJSON(obj []byte) []byte {
	if c.ExtraJSON == "" {
		return obj
	}
	return []byte(string(obj[:len(obj)-1]) + "," + c.ExtraJSON + "}")
}

// runSpecCase edits the smallest real description — cachebw under OrdPush on
// the tiny 16-core machine — into one table entry.
func runSpecCase(name, want string, edit func(*RunSpec)) RunSpecCase {
	s := RunSpec{Scale: "tiny", Scheme: "OrdPush", Workload: WorkloadSpec{Name: "cachebw"}}
	edit(&s)
	return RunSpecCase{Name: name, Spec: s, Want: want}
}

// ExampleRunSpecs are descriptions every front end must resolve to the same
// run — equal Config, equal Identity — whichever dialect carried them.
func ExampleRunSpecs() []RunSpecCase {
	return []RunSpecCase{
		runSpecCase("cold", "", func(*RunSpec) {}),
		runSpecCase("baseline-alias-bfs", "", func(s *RunSpec) { s.Scheme, s.Workload.Name = "baseline", "bfs" }),
		runSpecCase("lossy", "", func(s *RunSpec) { s.Faults = &FaultSpec{LossyPerMille: 20} }),
		runSpecCase("chaos", "", func(s *RunSpec) { s.Faults = &FaultSpec{Intensity: 0.5, Seed: 7} }),
		runSpecCase("chaos+lossy", "", func(s *RunSpec) { s.Faults = &FaultSpec{Intensity: 0.5, LossyPerMille: 20, Seed: 9} }),
		runSpecCase("collective-params", "", func(s *RunSpec) {
			s.Scheme, s.Workload = "PushAck", WorkloadSpec{Name: "broadcast", Sharers: 8, Fanout: 4, Iters: 2}
		}),
		runSpecCase("recovery-knobs", "", func(s *RunSpec) {
			s.Knobs = &KnobSpec{LinkWidthBits: 256, RetryWindow: 16, RetryTimeout: 500, MaxRetries: 8, MSHRRetryTimeout: 250}
		}),
		runSpecCase("push-knobs", "", func(s *RunSpec) { s.Knobs = &KnobSpec{TPCThreshold: 32, TimeWindow: 1500} }),
		runSpecCase("64-cores-quick", "", func(s *RunSpec) { s.Cores, s.Scale = 64, "" }),
		runSpecCase("256-cores", "", func(s *RunSpec) { s.Cores = 256 }),
		runSpecCase("full-scale", "", func(s *RunSpec) { s.Scale = "FULL" }),
		runSpecCase("trace-and-check", "", func(s *RunSpec) { s.TraceN, s.Check = 64, true }),
	}
}

// MalformedRunSpecs are descriptions every front end must refuse with a
// one-line diagnostic — Resolve's, or its own parser's for a key it does not
// have — before simulating anything.
func MalformedRunSpecs() []RunSpecCase {
	// The knobs that selected the deleted intra-run executor are plain
	// unknowns now: the strict decoders and the flag package refuse them.
	retiredKey := runSpecCase("retired-sim-workers-key", `unknown field "sim_workers"`, func(*RunSpec) {})
	retiredKey.ExtraJSON = `"sim_workers":2`
	retiredFlag := runSpecCase("retired-parallel-flag", "flag provided but not defined: -parallel", func(*RunSpec) {})
	retiredFlag.ExtraArgs = []string{"-parallel", "4"}
	// So is the coalescing window, which no code ever read: the Coalesce
	// baseline merges what the LLC's input queue holds.
	retiredKnob := runSpecCase("retired-coalesce-window-knob", `unknown field "coalesce_window"`, func(*RunSpec) {})
	retiredKnob.ExtraJSON = `"knobs":{"coalesce_window":20}`
	return []RunSpecCase{
		runSpecCase("unknown-scheme", `unknown scheme "TurboPush"`, func(s *RunSpec) { s.Scheme = "TurboPush" }),
		runSpecCase("unknown-workload", `"nosuch"`, func(s *RunSpec) { s.Workload.Name = "nosuch" }),
		runSpecCase("bad-scale", `unknown scale "huge"`, func(s *RunSpec) { s.Scale = "huge" }),
		runSpecCase("bad-cores", "unsupported core count 48", func(s *RunSpec) { s.Cores = 48 }),
		retiredKey,
		retiredFlag,
		retiredKnob,
		runSpecCase("negative-trace", "trace_n -5 is negative", func(s *RunSpec) { s.TraceN = -5 }),
		runSpecCase("collective-params-on-registry-workload", "not a collective", func(s *RunSpec) { s.Workload.Sharers = 4 }),
		runSpecCase("inconsistent-collective-params", "must be at least 2, got 1", func(s *RunSpec) { s.Workload = WorkloadSpec{Name: "broadcast", Fanout: 1} }),
		runSpecCase("collective-sharers-exceed-cores", "32 sharers exceed the 16-core machine", func(s *RunSpec) {
			s.Workload = WorkloadSpec{Name: "allreduce", Sharers: 32}
		}),
		runSpecCase("unknown-warm-start", "warm_start snapshot not found", func(s *RunSpec) { s.WarmStart = "deadbeef" }),
		runSpecCase("fault-intensity-out-of-range", "fault intensity 2 outside [0,1]", func(s *RunSpec) { s.Faults = &FaultSpec{Intensity: 2} }),
		runSpecCase("fault-intensity-negative", "fault intensity -0.5 outside [0,1]", func(s *RunSpec) { s.Faults = &FaultSpec{Intensity: -0.5} }),
		runSpecCase("lossy-rate-out-of-range", "lossy rate 5000 per mille outside [0,1000]", func(s *RunSpec) { s.Faults = &FaultSpec{LossyPerMille: 5000} }),
		runSpecCase("lossy-rate-negative", "lossy rate -1 per mille outside [0,1000]", func(s *RunSpec) { s.Faults = &FaultSpec{LossyPerMille: -1} }),
		runSpecCase("negative-tpc-threshold", "knob tpc_threshold -5 is negative", func(s *RunSpec) { s.Knobs = &KnobSpec{TPCThreshold: -5} }),
		runSpecCase("negative-time-window", "knob time_window -1 is negative", func(s *RunSpec) { s.Knobs = &KnobSpec{TimeWindow: -1} }),
		runSpecCase("negative-link-width", "knob link_width_bits -64 is negative", func(s *RunSpec) { s.Knobs = &KnobSpec{LinkWidthBits: -64} }),
		runSpecCase("negative-retry-window", "knob retry_window -1 is negative", func(s *RunSpec) { s.Knobs = &KnobSpec{RetryWindow: -1} }),
		runSpecCase("negative-mshr-retry-timeout", "knob mshr_retry_timeout -1 is negative", func(s *RunSpec) { s.Knobs = &KnobSpec{MSHRRetryTimeout: -1} }),
		runSpecCase("link-width-not-a-flit-size", "unsupported link width 100", func(s *RunSpec) { s.Knobs = &KnobSpec{LinkWidthBits: 100} }),
	}
}
