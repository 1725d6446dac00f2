package pushmulticast

import (
	"fmt"
	"strconv"

	"pushmulticast/internal/workload"
)

// This file implements the chaos campaigns: sweeps of fault-injection
// intensity and of message-loss rate across schemes that exercise the
// graceful-degradation contract (no panic, no deadlock, no coherence
// violation — only elevated latency). Every run executes with the invariant
// checker enabled, so a fault that breaks coherence (rather than merely
// slowing the machine) fails the campaign instead of skewing a number.

// chaosSeed fixes the campaigns' fault plans; any seed works, this one keeps
// reruns comparable.
const chaosSeed = 0xC0FFEE

// chaosPoints is a chaos campaign's sweep: the checker on at every point,
// and at every level but 0 the plan generate derives for the machine.
func chaosPoints[L int | float64](levels []L, label func(L) string, generate func(tiles int, seed uint64, level L) FaultPlan) []point {
	return sweep(levels, label, func(cfg *Config, level L) {
		cfg.Check, cfg.Faults = true, nil
		if level != 0 {
			p := generate(cfg.Tiles(), chaosSeed, level)
			cfg.Faults = &p
		}
	})
}

// counterCol reports one counter of the run.
func counterCol(head string, pick func(Results) uint64) column {
	return column{head: head, format: count, val: func(_, r Results) (float64, error) {
		return float64(pick(r)), nil
	}}
}

var cyclesCol = counterCol("Cycles", func(r Results) uint64 { return r.Cycles })

// chaosFigure is a chaos campaign for Baseline and OrdPush on cachebw and
// bfs: cycles at every point of the sweep, the slowdown against the same
// scheme's run at the first (fault-free) point — 1.0 there by construction —
// and the counters that break the cost down by mechanism.
func chaosFigure(name, title, axis, note string, points []point, counters ...column) Figure {
	return Figure{
		Name:    name,
		title:   fmt.Sprintf(title+" (seed %#x, checker on)", chaosSeed),
		schemes: []Scheme{Baseline(), OrdPush()},
		workloads: defaultWorkloads(func() []Workload {
			return []Workload{workload.CacheBW(), workload.BFS()}
		}),
		points: points,
		ref:    refFirstStep,
		rows:   []int{byPoint, byScheme, byWorkload},
		cols: append([]column{schemeCol, workloadCol, pointCol(axis), cyclesCol,
			{head: "Slowdown x", format: f2, val: func(clean, r Results) (float64, error) { return speedup(r, clean) }},
		}, counters...),
		notes: []string{note},
	}
}

// figFaults sweeps the fault-pressure knob in [0,1] fed to
// GenerateFaultPlan. A run that panics, deadlocks, or violates coherence
// under injected faults is a degradation-contract breach and fails the
// campaign.
var figFaults = chaosFigure("faults", "Chaos campaign: slowdown under injected faults", "Intensity",
	"degradation contract: every run completes coherently; faults may only cost cycles",
	chaosPoints([]float64{0, 0.25, 0.5, 1.0}, f2, GenerateFaultPlan),
	counterCol("Windows", func(r Results) uint64 { return r.Stats.Net.FaultWindows }),
	counterCol("Jitter cyc", func(r Results) uint64 { return r.Stats.Net.FaultJitterDelay }),
	counterCol("Filter supp", func(r Results) uint64 { return r.Stats.Net.FaultFilterSuppressed }),
	counterCol("Inj refused", func(r Results) uint64 { return r.Stats.Net.InjRefused }))

// figLossy sweeps the per-tile drop probability fed to GenerateLossyPlan
// (duplication and corruption run at half that rate each) up to the
// documented forward-progress ceiling (fault.MaxLossPerMille) and reports
// what was lost and how it was won back. Under message loss the machine must
// still finish every instruction coherently — loss may only cost cycles
// (retransmissions, MSHR reissues), never correctness; a hang or
// ErrUnrecoverable below the ceiling fails the campaign.
var figLossy = chaosFigure("lossy", "Lossy interconnect: recovery cost vs drop rate", "Loss o/oo",
	"survival contract: every run completes coherently at rates up to the ceiling; loss only costs cycles",
	chaosPoints([]int{0, 10, 50, 100}, strconv.Itoa, GenerateLossyPlan),
	counterCol("Dropped", func(r Results) uint64 { return r.Stats.Net.MsgDropped }),
	counterCol("Corrupt", func(r Results) uint64 { return r.Stats.Net.CorruptDetected }),
	counterCol("Dups supp", func(r Results) uint64 { return r.Stats.Net.DupSuppressed }),
	counterCol("Retransmits", func(r Results) uint64 { return r.Stats.Net.Retransmits }),
	counterCol("MSHR reissue", func(r Results) uint64 { return r.Stats.Cache.MSHRTimeouts }))
