package config

import (
	"strings"
	"testing"

	"pushmulticast/internal/noc"
)

func TestDefaultsValidate(t *testing.T) {
	for _, cfg := range []System{Default16(), Default64(), Default256()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("default config invalid: %v", err)
		}
	}
}

func TestSchemePresets(t *testing.T) {
	cases := []struct {
		s                             Scheme
		push, multicast, filter, knob bool
		proto                         Protocol
	}{
		{Baseline(), false, false, false, false, ProtoNone},
		{NoPrefetch(), false, false, false, false, ProtoNone},
		{Coalesce(), false, false, false, false, ProtoNone},
		{MSP(), true, false, false, false, ProtoPushAck},
		{PushAck(), true, true, true, true, ProtoPushAck},
		{OrdPush(), true, true, true, true, ProtoOrdPush},
		{AblationPush(), true, false, false, false, ProtoOrdPush},
		{AblationPushMulticast(), true, true, false, false, ProtoOrdPush},
		{AblationPushMulticastFilter(), true, true, true, false, ProtoOrdPush},
		{AblationFull(), true, true, true, true, ProtoOrdPush},
	}
	for _, c := range cases {
		if c.s.Push != c.push || c.s.Multicast != c.multicast ||
			c.s.Filter != c.filter || c.s.Knob != c.knob || c.s.Protocol != c.proto {
			t.Errorf("%s: feature flags wrong: %+v", c.s.Name, c.s)
		}
	}
	if !Baseline().L1Bingo || !Baseline().L2Stride {
		t.Error("baseline must enable both prefetchers")
	}
	if OrdPush().L1Bingo || PushAck().L2Stride {
		t.Error("push schemes run without hardware prefetching")
	}
}

func TestWithSchemeKnobSettings(t *testing.T) {
	// Table I: PushAck 16-core TPC=64/TW=500; 64-core TPC=8/TW=1500;
	// OrdPush TPC=16 with TW=500/1500.
	c16 := Default16().WithScheme(PushAck())
	if c16.TPCThreshold != 64 || c16.TimeWindow != 500 {
		t.Errorf("PushAck 16-core knobs = %d/%d", c16.TPCThreshold, c16.TimeWindow)
	}
	c64 := Default64().WithScheme(PushAck())
	if c64.TPCThreshold != 8 || c64.TimeWindow != 1500 {
		t.Errorf("PushAck 64-core knobs = %d/%d", c64.TPCThreshold, c64.TimeWindow)
	}
	o16 := Default16().WithScheme(OrdPush())
	if o16.TPCThreshold != 16 || o16.TimeWindow != 500 {
		t.Errorf("OrdPush 16-core knobs = %d/%d", o16.TPCThreshold, o16.TimeWindow)
	}
	o64 := Default64().WithScheme(OrdPush())
	if o64.TPCThreshold != 16 || o64.TimeWindow != 1500 {
		t.Errorf("OrdPush 64-core knobs = %d/%d", o64.TPCThreshold, o64.TimeWindow)
	}
}

func TestWithSchemeNoCFlags(t *testing.T) {
	cfg := Default16().WithScheme(OrdPush())
	if !cfg.NoC.FilterEnabled || !cfg.NoC.OrdPushInvStall {
		t.Error("OrdPush must enable the filter and inv stalling")
	}
	cfg = Default16().WithScheme(PushAck())
	if !cfg.NoC.FilterEnabled || cfg.NoC.OrdPushInvStall {
		t.Error("PushAck filters but does not stall invalidations")
	}
	cfg = Default16().WithScheme(AblationPushMulticast())
	if cfg.NoC.FilterEnabled || !cfg.NoC.OrdPushInvStall {
		t.Error("filter-less OrdPush ablation still needs inv stalling")
	}
	cfg = Default16().WithScheme(Baseline())
	if cfg.NoC.FilterEnabled || cfg.NoC.OrdPushInvStall {
		t.Error("baseline must not enable push NoC features")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	for _, c := range []struct {
		name, want string
		edit       func(*System)
	}{
		{"push without protocol", "push protocol", func(s *System) { s.Scheme = Scheme{Name: "x", Push: true} }},
		// Under plain MSI the predictor's fill pushes raced invalidations
		// unordered: the checker caught stale copies, and with it off the
		// numbers were silently wrong.
		{"predicted pushes without pushes", "predicts pushes without pushing", func(s *System) { s.Scheme = Scheme{Name: "x", PredictPush: true} }},
		{"unknown protocol", "unknown protocol", func(s *System) { s.Scheme.Protocol = ProtoOrdPush + 1 }},
		{"LLC slice of one byte", "LLC slice geometry", func(s *System) { s.LLCSliceSize = 1 }},
		{"mesh of one tile", "tile count", func(s *System) { s.NoC.Width, s.NoC.Height = 1, 1 }},
		{"L2 sets not a power of two", "L2 geometry", func(s *System) { s.L2Size = 3 * 64 * 16 }},
		// A zero window divided by zero in the LLC's resume knob, and the
		// panic escaped Run; a negative one ran silently.
		{"zero time window", "TimeWindow", func(s *System) { s.TimeWindow = 0 }},
		{"negative time window", "TimeWindow", func(s *System) { s.TimeWindow = -5 }},
		// No MSHRs stalled every miss until the watchdog called it a deadlock.
		{"no L2 MSHRs", "L2MSHRs", func(s *System) { s.L2MSHRs = 0 }},
		{"zero TPC threshold", "TPCThreshold", func(s *System) { s.TPCThreshold = 0 }},
		{"zero core width", "CoreWidth", func(s *System) { s.CoreWidth = 0 }},
		{"zero load window", "CoreWindow", func(s *System) { s.CoreWindow = 0 }},
		{"zero store buffer", "StoreBuffer", func(s *System) { s.StoreBuffer = 0 }},
		{"zero memory bandwidth slot", "MemCyclesPerLine", func(s *System) { s.MemCyclesPerLine = 0 }},
		{"zero PHT", "BingoPHTEntries", func(s *System) { s.BingoPHTEntries = 0 }},
		{"zero stride streams", "StrideStreams", func(s *System) { s.StrideStreams = 0 }},
		{"zero stride degree", "StrideDegree", func(s *System) { s.StrideDegree = 0 }},
		{"zero Bingo region", "BingoRegionBytes", func(s *System) { s.BingoRegionBytes = 0 }},
		{"Bingo region not a power of two", "BingoRegionBytes", func(s *System) { s.BingoRegionBytes = 3 << 10 }},
		{"Bingo region past one footprint word", "BingoRegionBytes", func(s *System) { s.BingoRegionBytes = 8 << 10 }},
		{"zero MSHR retry timeout", "MSHRRetryTimeout", func(s *System) { s.MSHRRetryTimeout = 0 }},
		{"negative L2 latency", "latency", func(s *System) { s.L2Latency = -1 }},
		{"negative LLC latency", "latency", func(s *System) { s.LLCLatency = -1 }},
		{"negative memory latency", "latency", func(s *System) { s.MemLatency = -1 }},
		{"zero retry window", "RetryWindow", func(s *System) { s.NoC.RetryWindow = 0 }},
		{"zero retry timeout", "RetryTimeout", func(s *System) { s.NoC.RetryTimeout = 0 }},
		{"zero max retries", "MaxRetries", func(s *System) { s.NoC.MaxRetries = 0 }},
	} {
		bad := Default16().WithScheme(OrdPush())
		c.edit(&bad)
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: Validate = %v; want one line mentioning %q", c.name, err, c.want)
		}
	}
}

// TestValidateRejectsSchemeDesync pins the one legal way to set a scheme:
// assigning Scheme directly leaves the NoC's filter and ordering flags as the
// previous scheme had them, which ran a run labelled OrdPush with neither
// (27,584 cycles against OrdPush's 21,266 on cachebw tiny/16). Validate must
// refuse every preset assigned that way over a machine whose flags differ,
// and accept every preset set through WithScheme.
func TestValidateRejectsSchemeDesync(t *testing.T) {
	for _, sch := range []Scheme{Baseline(), NoPrefetch(), Coalesce(), MSP(), PushAck(), OrdPush(),
		AblationPush(), AblationPushMulticast(), AblationPushMulticastFilter(), AblationFull(),
		PushPrefetch(), PredictivePush(), DeepPush()} {
		if err := Default16().WithScheme(sch).Validate(); err != nil {
			t.Errorf("%s through WithScheme: %v", sch.Name, err)
		}
		for _, from := range []Scheme{Baseline(), OrdPush(), PushAck()} {
			cfg := Default16().WithScheme(from)
			flags := cfg.NoC
			cfg.Scheme = sch
			err := cfg.Validate()
			if desync := flags != Default16().WithScheme(sch).NoC; desync != (err != nil) {
				t.Errorf("%s assigned over %s: NoC flags disagree=%v, Validate = %v", sch.Name, from.Name, desync, err)
			}
			if err != nil && (!strings.Contains(err.Error(), "WithScheme") || strings.Contains(err.Error(), "\n")) {
				t.Errorf("%s assigned over %s: diagnostic %q should be one line naming WithScheme", sch.Name, from.Name, err)
			}
		}
	}
}

func TestScaledPreservesGeometry(t *testing.T) {
	cfg := Default16().Scaled(16)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	if cfg.L2Size != 16<<10 || cfg.LLCSliceSize != 64<<10 {
		t.Errorf("scaled sizes wrong: L2=%d LLC=%d", cfg.L2Size, cfg.LLCSliceSize)
	}
	if Default16().Scaled(1).L2Size != Default16().L2Size {
		t.Error("factor 1 must be identity")
	}
}

func TestMemControllersAtCorners(t *testing.T) {
	cfg := Default16()
	mcs := cfg.MemControllers()
	if len(mcs) != 4 {
		t.Fatalf("%d controllers, want 4", len(mcs))
	}
	want := map[noc.NodeID]bool{0: true, 3: true, 12: true, 15: true}
	for _, mc := range mcs {
		if !want[mc] {
			t.Errorf("controller at %d is not a corner", mc)
		}
	}
}

func TestNearestMemController(t *testing.T) {
	cfg := Default16()
	if mc := cfg.NearestMemController(0); mc != 0 {
		t.Errorf("nearest to corner 0 = %d", mc)
	}
	// Tile 5 = (1,1): distance 2 to corner 0, 3+ to others.
	if mc := cfg.NearestMemController(5); mc != 0 {
		t.Errorf("nearest to tile 5 = %d, want 0", mc)
	}
	// Tile 10 = (2,2): distance to (3,3)=15 is 2.
	if mc := cfg.NearestMemController(10); mc != 15 {
		t.Errorf("nearest to tile 10 = %d, want 15", mc)
	}
}

func TestHomeSliceCoversAllTiles(t *testing.T) {
	cfg := Default64()
	seen := map[noc.NodeID]bool{}
	for i := 0; i < 64; i++ {
		seen[cfg.HomeSlice(uint64(i)*64)] = true
	}
	if len(seen) != 64 {
		t.Errorf("64 consecutive lines cover %d slices", len(seen))
	}
}

func TestProtocolStrings(t *testing.T) {
	for _, p := range []Protocol{ProtoNone, ProtoPushAck, ProtoOrdPush} {
		if p.String() == "Unknown" {
			t.Errorf("protocol %d unnamed", p)
		}
	}
}
