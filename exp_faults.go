package pushmulticast

import (
	"context"

	"fmt"

	"pushmulticast/internal/workload"
)

// This file implements the chaos campaign: a sweep of fault-injection
// intensity across schemes that exercises the graceful-degradation contract
// (no panic, no deadlock, no coherence violation — only elevated latency).
// Every run executes with the invariant checker enabled, so a fault that
// breaks coherence (rather than merely slowing the machine) fails the
// campaign instead of skewing a number.

// FaultRow is one (scheme, workload, intensity) chaos measurement.
type FaultRow struct {
	Scheme, Workload string
	// Intensity is the fault-pressure knob in [0,1] fed to GenerateFaultPlan.
	Intensity float64
	Cycles    uint64
	// Slowdown is cycles / fault-free cycles for the same (scheme, workload);
	// 1.0 at intensity 0 by construction.
	Slowdown float64
	// FaultWindows counts fault-window activations; the remaining counters
	// break degradation down by mechanism.
	FaultWindows, JitterDelay, FilterSuppressed, InjRefused uint64
}

// FaultResult holds the chaos campaign's slowdown curves.
type FaultResult struct {
	// Seed reproduces every fault plan in the sweep.
	Seed uint64
	Rows []FaultRow
}

// faultIntensities is the swept fault-pressure axis.
func faultIntensities() []float64 { return []float64{0, 0.25, 0.5, 1.0} }

// chaosWorkloads is both chaos campaigns' default workload pair.
func chaosWorkloads() []Workload { return []Workload{workload.CacheBW(), workload.BFS()} }

// chaosSeed fixes the campaign's fault plans; any seed works, this one keeps
// reruns comparable.
const chaosSeed = 0xC0FFEE

// ExpFaults sweeps fault intensity for Baseline and OrdPush and reports the
// slowdown curve per workload. All runs keep the invariant checker on: a run
// that panics, deadlocks, or violates coherence under injected faults is a
// degradation-contract breach and fails the campaign.
func ExpFaults(o ExpOptions) (*FaultResult, error) {
	o = o.withDefaults()
	o.Check = true
	schemes := []Scheme{Baseline(), OrdPush()}
	out := &FaultResult{Seed: chaosSeed}
	clean := map[runKey]uint64{}
	for _, intensity := range faultIntensities() {
		intensity := intensity
		var plan *FaultPlan
		if intensity > 0 {
			p := GenerateFaultPlan(o.Cores, chaosSeed, intensity)
			plan = &p
		}
		o.Faults = plan
		res, wls, err := matrix(context.Background(), o, schemes, chaosWorkloads(), nil)
		if err != nil {
			return nil, fmt.Errorf("chaos campaign at intensity %.2f: %w", intensity, err)
		}
		for _, s := range schemes {
			for _, wl := range wls {
				k := runKey{s.Name, wl.Name}
				r := res[k]
				if intensity == 0 {
					clean[k] = r.Cycles
				}
				if clean[k] == 0 || r.Cycles == 0 {
					return nil, fmt.Errorf("chaos campaign %s/%s: zero cycle count at intensity %.2f",
						s.Name, wl.Name, intensity)
				}
				out.Rows = append(out.Rows, FaultRow{
					Scheme:           s.Name,
					Workload:         wl.Name,
					Intensity:        intensity,
					Cycles:           r.Cycles,
					Slowdown:         float64(r.Cycles) / float64(clean[k]),
					FaultWindows:     r.Stats.Net.FaultWindows,
					JitterDelay:      r.Stats.Net.FaultJitterDelay,
					FilterSuppressed: r.Stats.Net.FaultFilterSuppressed,
					InjRefused:       r.Stats.Net.InjRefused,
				})
			}
		}
	}
	return out, nil
}

// LossyRow is one (scheme, workload, loss rate) survival measurement.
type LossyRow struct {
	Scheme, Workload string
	// RatePerMille is the per-tile drop probability fed to GenerateLossyPlan
	// (duplication and corruption run at half this rate each).
	RatePerMille int
	Cycles       uint64
	// Slowdown is cycles / loss-free cycles for the same (scheme, workload).
	Slowdown float64
	// Recovery counters: what was lost and how it was won back.
	Dropped, Corrupt, DupSuppressed, Retransmits, MSHRReissues uint64
}

// LossyResult holds the lossy-interconnect survival sweep.
type LossyResult struct {
	Seed uint64
	Rows []LossyRow
}

// lossyRates is the swept per-mille drop axis; the top value is the
// documented forward-progress ceiling (fault.MaxLossPerMille).
func lossyRates() []int { return []int{0, 10, 50, 100} }

// ExpLossy sweeps the lossy-interconnect drop rate for Baseline and OrdPush
// up to the documented ceiling and reports the recovery cost. Every run keeps
// the invariant checker on: under message loss the machine must still finish
// every instruction coherently — loss may only cost cycles (retransmissions,
// MSHR reissues), never correctness. A hang or ErrUnrecoverable below the
// ceiling fails the campaign.
func ExpLossy(o ExpOptions) (*LossyResult, error) {
	o = o.withDefaults()
	o.Check = true
	schemes := []Scheme{Baseline(), OrdPush()}
	out := &LossyResult{Seed: chaosSeed}
	clean := map[runKey]uint64{}
	for _, rate := range lossyRates() {
		var plan *FaultPlan
		if rate > 0 {
			p := GenerateLossyPlan(o.Cores, chaosSeed, rate)
			plan = &p
		}
		o.Faults = plan
		res, wls, err := matrix(context.Background(), o, schemes, chaosWorkloads(), nil)
		if err != nil {
			return nil, fmt.Errorf("lossy campaign at %d per mille: %w", rate, err)
		}
		for _, s := range schemes {
			for _, wl := range wls {
				k := runKey{s.Name, wl.Name}
				r := res[k]
				if rate == 0 {
					clean[k] = r.Cycles
				}
				if clean[k] == 0 || r.Cycles == 0 {
					return nil, fmt.Errorf("lossy campaign %s/%s: zero cycle count at %d per mille",
						s.Name, wl.Name, rate)
				}
				out.Rows = append(out.Rows, LossyRow{
					Scheme:        s.Name,
					Workload:      wl.Name,
					RatePerMille:  rate,
					Cycles:        r.Cycles,
					Slowdown:      float64(r.Cycles) / float64(clean[k]),
					Dropped:       r.Stats.Net.MsgDropped,
					Corrupt:       r.Stats.Net.CorruptDetected,
					DupSuppressed: r.Stats.Net.DupSuppressed,
					Retransmits:   r.Stats.Net.Retransmits,
					MSHRReissues:  r.Stats.Cache.MSHRTimeouts,
				})
			}
		}
	}
	return out, nil
}

// String renders the survival sweep as a table.
func (l *LossyResult) String() string {
	t := newTable(fmt.Sprintf("Lossy interconnect: recovery cost vs drop rate (seed %#x, checker on)", l.Seed),
		"Scheme", "Workload", "Loss o/oo", "Cycles", "Slowdown x", "Dropped", "Corrupt", "Dups supp", "Retransmits", "MSHR reissue")
	for _, r := range l.Rows {
		t.addRow(r.Scheme, r.Workload, fmt.Sprint(r.RatePerMille), fmt.Sprint(r.Cycles), f2(r.Slowdown),
			fmt.Sprint(r.Dropped), fmt.Sprint(r.Corrupt), fmt.Sprint(r.DupSuppressed),
			fmt.Sprint(r.Retransmits), fmt.Sprint(r.MSHRReissues))
	}
	t.addNote("survival contract: every run completes coherently at rates up to the ceiling; loss only costs cycles")
	return t.String()
}

// String renders the campaign as a table.
func (f *FaultResult) String() string {
	t := newTable(fmt.Sprintf("Chaos campaign: slowdown under injected faults (seed %#x, checker on)", f.Seed),
		"Scheme", "Workload", "Intensity", "Cycles", "Slowdown x", "Windows", "Jitter cyc", "Filter supp", "Inj refused")
	for _, r := range f.Rows {
		t.addRow(r.Scheme, r.Workload, f2(r.Intensity), fmt.Sprint(r.Cycles), f2(r.Slowdown),
			fmt.Sprint(r.FaultWindows), fmt.Sprint(r.JitterDelay),
			fmt.Sprint(r.FilterSuppressed), fmt.Sprint(r.InjRefused))
	}
	t.addNote("degradation contract: every run completes coherently; faults may only cost cycles")
	return t.String()
}
