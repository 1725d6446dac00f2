package core

import (
	"errors"
	"strings"
	"testing"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/config"
	"pushmulticast/internal/fault"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/workload"
)

// tinyConfig returns a 4x4 system with caches scaled down to match
// ScaleTiny workload footprints.
func tinyConfig(sch config.Scheme) config.System {
	cfg := config.Default16().Scaled(16).WithScheme(sch)
	return cfg
}

func runTiny(t *testing.T, sch config.Scheme, wl workload.Workload, checkEvery uint64) Results {
	t.Helper()
	cfg := tinyConfig(sch)
	sys, err := Build(cfg, wl, workload.ScaleTiny)
	if err != nil {
		t.Fatalf("Build(%s/%s): %v", sch.Name, wl.Name, err)
	}
	res, err := sys.Run(checkEvery)
	if err != nil {
		t.Fatalf("Run(%s/%s): %v", sch.Name, wl.Name, err)
	}
	res.Workload = wl.Name
	if err := sys.Drain(100_000); err != nil {
		t.Fatalf("Drain(%s/%s): %v", sch.Name, wl.Name, err)
	}
	if err := sys.CheckCoherence(); err != nil {
		t.Fatalf("post-drain coherence (%s/%s): %v", sch.Name, wl.Name, err)
	}
	return res
}

func TestBaselineCachebwCompletes(t *testing.T) {
	res := runTiny(t, config.Baseline(), workload.CacheBW(), 64)
	if res.Cycles == 0 || res.Stats.Core.Instructions == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if res.Stats.Cache.L2Misses == 0 {
		t.Error("cachebw should miss in the scaled L2")
	}
	if res.Stats.Net.TotalFlits() == 0 {
		t.Error("no NoC traffic recorded")
	}
}

func TestAllSchemesAllWorkloadsTiny(t *testing.T) {
	schemes := []config.Scheme{
		config.Baseline(), config.NoPrefetch(), config.Coalesce(), config.MSP(),
		config.PushAck(), config.OrdPush(),
		config.AblationPush(), config.AblationPushMulticast(),
		config.AblationPushMulticastFilter(),
	}
	if raceDetectorEnabled {
		// Every run here is a single-goroutine simulation, so the race
		// detector's ~15x slowdown buys nothing across the full matrix;
		// keep one representative of each protocol family and let the
		// non-race invocations cover all nine schemes.
		schemes = []config.Scheme{config.Baseline(), config.PushAck(), config.OrdPush()}
	}
	for _, wl := range workload.Registry() {
		for _, sch := range schemes {
			wl, sch := wl, sch
			t.Run(wl.Name+"/"+sch.Name, func(t *testing.T) {
				t.Parallel()
				res := runTiny(t, sch, wl, 256)
				if res.Stats.Core.Instructions == 0 {
					t.Fatal("no instructions retired")
				}
			})
		}
	}
}

// tortureStream mixes random loads and stores from every core over a tiny
// shared line set, maximizing push/write/writeback races.
type tortureStream struct {
	rng   uint64
	n     int
	limit int
}

func (s *tortureStream) Next() workload.Op {
	if s.n >= s.limit {
		return workload.Op{Kind: workload.OpEnd}
	}
	s.n++
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	r := s.rng >> 16
	line := (r % 48) * 64
	addr := workload.SharedBase() + line
	switch r % 7 {
	case 0:
		return workload.Op{Kind: workload.OpStore, Addr: addr}
	case 1:
		return workload.Op{Kind: workload.OpWork, N: int(r%13) + 1}
	default:
		return workload.Op{Kind: workload.OpLoad, Addr: addr}
	}
}

func tortureWorkload(limit int) workload.Workload {
	return workload.Workload{
		Name: "torture",
		Build: func(core, cores int, sc workload.Scale) workload.Stream {
			return &tortureStream{rng: uint64(core)*2654435761 + 12345, limit: limit}
		},
	}
}

// TestProtocolTorture drives random read/write races through every
// protocol variant with the coherence checker running every cycle.
func TestProtocolTorture(t *testing.T) {
	schemes := []config.Scheme{
		config.NoPrefetch(), config.Coalesce(), config.MSP(),
		config.PushAck(), config.OrdPush(),
		config.AblationPush(), config.AblationPushMulticast(),
		config.AblationPushMulticastFilter(),
	}
	for _, sch := range schemes {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			t.Parallel()
			res := runTiny(t, sch, tortureWorkload(600), 1)
			if res.Stats.Core.Stores == 0 {
				t.Fatal("torture produced no stores")
			}
		})
	}
}

// TestTortureSmallCache forces constant evictions (4-set L2) under every
// push protocol, stressing writeback races and deadlock-drop paths.
func TestTortureSmallCache(t *testing.T) {
	for _, sch := range []config.Scheme{config.PushAck(), config.OrdPush()} {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			t.Parallel()
			cfg := config.Default16().Scaled(64).WithScheme(sch)
			sys, err := Build(cfg, tortureWorkload(500), workload.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(1); err != nil {
				t.Fatal(err)
			}
			if err := sys.Drain(100_000); err != nil {
				t.Fatal(err)
			}
			if err := sys.CheckCoherence(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPushesHappenUnderOrdPush(t *testing.T) {
	res := runTiny(t, config.OrdPush(), workload.CacheBW(), 0)
	if res.Stats.Cache.PushesTriggered == 0 {
		t.Fatal("cachebw under OrdPush should trigger pushes")
	}
	if res.Stats.Cache.TotalPushes() == 0 {
		t.Fatal("no pushes received at private caches")
	}
	useful := res.Stats.Cache.UsefulPushes()
	total := res.Stats.Cache.TotalPushes()
	if float64(useful) < 0.5*float64(total) {
		t.Errorf("cachebw push accuracy too low: %d/%d useful", useful, total)
	}
}

func TestOrdPushSavesTrafficOnCachebw(t *testing.T) {
	base := runTiny(t, config.NoPrefetch(), workload.CacheBW(), 0)
	ord := runTiny(t, config.OrdPush(), workload.CacheBW(), 0)
	if ord.TotalNoCFlits() >= base.TotalNoCFlits() {
		t.Errorf("OrdPush flits %d not below reactive baseline %d",
			ord.TotalNoCFlits(), base.TotalNoCFlits())
	}
}

func TestFilterPrunesRequestsOnCachebw(t *testing.T) {
	res := runTiny(t, config.OrdPush(), workload.CacheBW(), 0)
	if res.Stats.Net.FilteredRequests == 0 {
		t.Error("expected in-network filtered requests on cachebw")
	}
}

func TestMemoryVersionsConsistentAfterDrain(t *testing.T) {
	sch := config.OrdPush()
	cfg := tinyConfig(sch)
	sys, err := Build(cfg, tortureWorkload(400), workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(4); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	// Every store must be accounted for: the sum of line versions across
	// the coherent image (dir version or M owner's version) must equal the
	// number of stores performed.
	var total uint64
	seen := make(map[uint64]uint64)
	for _, l2 := range sys.L2s {
		l2.ForEachLine(func(addr uint64, l *cache.Line) {
			if l.State == cache.StateM && l.Version > seen[addr] {
				seen[addr] = l.Version
			}
		})
	}
	for _, llc := range sys.LLCs {
		llc.ForEachLine(func(addr uint64, l *cache.Line) {
			if l.Version > seen[addr] {
				seen[addr] = l.Version
			}
		})
	}
	for _, v := range seen {
		total += v
	}
	if total != sys.St.Core.Stores {
		t.Errorf("version sum %d != stores performed %d", total, sys.St.Core.Stores)
	}
}

func TestKnobDisablesPushesOnBFS(t *testing.T) {
	with := runTiny(t, config.OrdPush(), workload.BFS(), 0)
	without := runTiny(t, config.AblationPushMulticastFilter(), workload.BFS(), 0)
	if with.Stats.Cache.PausedPushRequests == 0 {
		t.Error("knob never paused pushing on bfs")
	}
	if without.Stats.Cache.PausedPushRequests != 0 {
		t.Error("knob-less scheme reported paused requests")
	}
}

func TestResultsMetrics(t *testing.T) {
	res := runTiny(t, config.Baseline(), workload.MV(), 0)
	if res.L2MPKI() <= 0 {
		t.Error("mv should have nonzero L2 MPKI")
	}
	if res.L1MPKI() <= 0 {
		t.Error("mv should have nonzero L1 MPKI")
	}
}

func TestPushAckGeneratesAcks(t *testing.T) {
	res := runTiny(t, config.PushAck(), workload.CacheBW(), 0)
	var acks uint64
	for u := stats.Unit(0); u < stats.NumUnits; u++ {
		acks += res.Stats.Net.InjectedPackets[u][stats.ClassPushAck]
	}
	if acks == 0 {
		t.Error("PushAck protocol produced no PushAck messages")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Results { return runTiny(t, config.OrdPush(), workload.Multilevel(), 0) }
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.TotalNoCFlits() != b.TotalNoCFlits() ||
		a.Stats.Cache.PushesTriggered != b.Stats.Cache.PushesTriggered {
		t.Errorf("nondeterministic results: %v/%v flits %d/%d",
			a.Cycles, b.Cycles, a.TotalNoCFlits(), b.TotalNoCFlits())
	}
}

// Sanity: home slice mapping covers all tiles for consecutive lines.
func TestHomeSliceInterleaving(t *testing.T) {
	cfg := config.Default16()
	seen := map[noc.NodeID]bool{}
	for i := 0; i < 16; i++ {
		seen[cfg.HomeSlice(uint64(i*64))] = true
	}
	if len(seen) != 16 {
		t.Errorf("16 consecutive lines map to %d slices, want 16", len(seen))
	}
}

// TestAbortNamesSchemeAndWorkload stalls a machine for good — core 0 waits at
// a barrier the other cores, already ended, never reach — and requires the
// engine's abort to come back naming the scheme and the workload it stopped,
// from Run and from RunTo alike, with the fault note when a plan is loaded.
func TestAbortNamesSchemeAndWorkload(t *testing.T) {
	stuck := workload.Workload{Name: "lonely-barrier", Build: func(core, cores int, sc workload.Scale) workload.Stream {
		ops := []workload.Op{{Kind: workload.OpEnd}}
		if core == 0 {
			ops = []workload.Op{{Kind: workload.OpBarrier}, {Kind: workload.OpEnd}}
		}
		return workload.StreamFunc(func() workload.Op {
			op := ops[0]
			if len(ops) > 1 {
				ops = ops[1:]
			}
			return op
		})
	}}
	plan := fault.Plan{Seed: 1, Faults: []fault.Fault{{Kind: fault.InjSpike, Node: 3, From: 10, To: 20, Factor: 1}}}
	for _, tc := range []struct {
		name   string
		faults *fault.Plan
		run    func(*System) error
		want   string
	}{
		{"Run", nil, func(s *System) error { _, err := s.Run(0); return err }, "OrdPush/lonely-barrier: "},
		{"RunTo", nil, func(s *System) error { return s.RunTo(1<<40, 0) }, "OrdPush/lonely-barrier: "},
		{"RunTo under a fault plan", &plan, func(s *System) error { return s.RunTo(1<<40, 0) }, "OrdPush/lonely-barrier (fault injection active): "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(config.OrdPush())
			cfg.Faults = tc.faults
			s, err := Build(cfg, stuck, workload.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.run(s)
			if !errors.Is(err, sim.ErrDeadlock) || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("abort reads %q, want a sim.ErrDeadlock starting %q", err, tc.want)
			}
		})
	}
}

// TestTraceWithoutCheckBuildsNoChecker requires the monitor to exist exactly
// when checking is on: a traced run without the checker has a tracer, no
// checker, and still records its history.
func TestTraceWithoutCheckBuildsNoChecker(t *testing.T) {
	cfg := tinyConfig(config.OrdPush())
	cfg.TraceN = 64
	sys, err := Build(cfg, workload.CacheBW(), workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Tracer == nil || sys.Checker != nil {
		t.Fatalf("TraceN without Check built tracer %v, checker %v; want a tracer and no checker", sys.Tracer != nil, sys.Checker != nil)
	}
	res, err := sys.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceEvents == 0 {
		t.Error("trace-only run recorded no events")
	}
}
