package main

import (
	"time"

	pm "pushmulticast"
	"pushmulticast/internal/stats"
)

// layerAcc collects, during the traced reps, what the per-layer metrics are
// computed from. Counters are exact and identical in every rep, so they are
// taken from the first traced rep only; timers keep a sample per call.
type layerAcc struct {
	firstRep bool // counters still accumulating

	st          *stats.All
	cycles      uint64
	ticks       uint64
	tileCycles  uint64
	traceEvents uint64

	// Over every traced rep:
	runNs     float64 // host time inside System.Run
	runFlits  float64 // link flits those runs moved
	runTileCy float64 // tile-cycles those runs simulated
	buildS    []float64
	runS      []float64
	allocs    []float64
	allocMB   []float64

	snapBytes int
	saveS     []float64
	restoreS  []float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{firstRep: true, st: stats.New()}
}

func (a *layerAcc) addRun(op simOp, r simRun, mallocs, allocBytes uint64) {
	if a.firstRep {
		a.st.Add(r.res.Stats)
		a.cycles += r.res.Cycles
		a.ticks += r.ticks
		a.tileCycles += r.res.Cycles * uint64(op.cfg.Tiles())
		a.traceEvents += r.res.TraceEvents
	}
	a.runNs += float64(r.run.Nanoseconds())
	a.runFlits += float64(r.res.TotalNoCFlits())
	a.runTileCy += float64(r.res.Cycles) * float64(op.cfg.Tiles())
	a.buildS = append(a.buildS, r.build.Seconds())
	a.runS = append(a.runS, r.run.Seconds())
	a.allocs = append(a.allocs, float64(mallocs))
	a.allocMB = append(a.allocMB, float64(allocBytes)/1e6)
}

func (a *layerAcc) addSnapshot(bytes int, save, restore time.Duration) {
	a.snapBytes = bytes
	a.saveS = append(a.saveS, save.Seconds())
	a.restoreS = append(a.restoreS, restore.Seconds())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the exact per-layer counters from the summed stats
// of one rep's runs.
func (a *layerAcc) counterMetrics(out map[string]float64) {
	n, c, k := &a.st.Net, &a.st.Cache, &a.st.Core
	var injected uint64
	for u := range n.InjectedPackets {
		for _, v := range n.InjectedPackets[u] {
			injected += v
		}
	}
	flits := float64(n.TotalFlits())
	out["sim.ticks_per_cycle"] = ratio(float64(a.ticks), float64(a.cycles))
	out["noc.link_flits"] = flits
	out["noc.flits_per_cycle"] = ratio(flits, float64(a.cycles))
	out["noc.avg_packet_latency_cyc"] = ratio(float64(n.PacketLatencySum), float64(n.PacketCount))
	out["noc.multicast_replicas"] = float64(n.MulticastReplicas)
	out["noc.filtered_requests"] = float64(n.FilteredRequests)
	out["noc.stalled_inv_cycles"] = float64(n.StalledInvCycles)
	out["noc.inj_refused"] = float64(n.InjRefused)
	out["noc.msg_dropped"] = float64(n.MsgDropped)
	out["noc.retransmits"] = float64(n.Retransmits)
	out["noc.retransmit_ratio"] = ratio(float64(n.Retransmits), float64(injected))
	out["noc.dup_suppressed"] = float64(n.DupSuppressed)
	out["noc.corrupt_detected"] = float64(n.CorruptDetected)

	out["cache.l1_mpki"] = a.st.MPKI(c.L1Misses)
	out["cache.l2_mpki"] = a.st.MPKI(c.L2Misses)
	out["cache.llc_miss_ratio"] = ratio(float64(c.LLCMisses), float64(c.LLCAccesses))
	out["cache.l2_evictions"] = float64(c.L2Evictions)
	out["cache.pushes_triggered"] = float64(c.PushesTriggered)
	out["cache.push_avg_dests"] = ratio(float64(c.PushDestinations), float64(c.PushesTriggered))
	received := float64(c.TotalPushes())
	dropped := float64(c.PushOutcomes[stats.PushDeadlockDrop] + c.PushOutcomes[stats.PushRedundancyDrop] + c.PushOutcomes[stats.PushCoherenceDrop])
	out["cache.push_useful_ratio"] = ratio(float64(c.UsefulPushes()), received)
	out["cache.push_drop_ratio"] = ratio(dropped, received)
	out["cache.paused_push_requests"] = float64(c.PausedPushRequests)
	out["cache.mshr_timeouts"] = float64(c.MSHRTimeouts)

	// Core.Cycles is per run; the rep's total is a.cycles.
	out["cpu.ipc"] = ratio(float64(k.Instructions), float64(a.cycles))
	out["cpu.stall_cycle_ratio"] = ratio(float64(k.StallCycles), float64(a.tileCycles))
	out["memctrl.reads"] = float64(c.MemReads)
	out["memctrl.writes"] = float64(c.MemWrites)
	out["fault.windows"] = float64(n.FaultWindows)
	out["fault.jitter_delay_cyc"] = float64(n.FaultJitterDelay)
	out["trace.events"] = float64(a.traceEvents)
}

// timerMetrics derives the per-layer timers.
func (a *layerAcc) timerMetrics(out map[string]float64) {
	out["noc.host_ns_per_link_flit"] = ratio(a.runNs, a.runFlits)
	out["core.build_ms"] = median(a.buildS) * 1e3
	out["core.run_s"] = median(a.runS)
	out["core.tile_cycle_ns"] = ratio(a.runNs, a.runTileCy)
	out["core.allocs_per_run"] = median(a.allocs)
	out["core.alloc_mb_per_run"] = median(a.allocMB)
	mb := float64(a.snapBytes) / 1e6
	out["snapshot.bytes"] = float64(a.snapBytes)
	out["snapshot.save_ms"] = median(a.saveS) * 1e3
	out["snapshot.save_mb_per_s"] = ratio(mb, median(a.saveS))
	out["snapshot.restore_ms"] = median(a.restoreS) * 1e3
	out["snapshot.restore_mb_per_s"] = ratio(mb, median(a.restoreS))
}

// timeOp runs op, on a modified configuration when mut is set, and returns its wall time: of
// the one run when that takes a while, else the fastest of three.
func timeOp(op simOp, mut func(*pm.Config)) (float64, simRun, error) {
	if mut != nil {
		mut(&op.cfg)
	}
	best := 0.0
	var r simRun
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		if r, err = runSim(op, nil, 0, nil); err != nil {
			return 0, r, err
		}
		d := time.Since(t0).Seconds()
		if i == 0 || d < best {
			best = d
		}
		if best > 0.3 {
			break
		}
	}
	return best, r, nil
}
