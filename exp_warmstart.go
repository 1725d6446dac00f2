package pushmulticast

import (
	"context"
	"fmt"
	"time"
)

// WarmStartVariant is one knob point of the warm-start sweep, with its cold
// and warm-forked outcomes side by side.
type WarmStartVariant struct {
	TPCThreshold int    `json:"tpc_threshold"`
	TimeWindow   int    `json:"time_window"`
	ColdCycles   uint64 `json:"cold_cycles"`
	WarmCycles   uint64 `json:"warm_cycles"`
	// ExactResume is true for the variant whose knobs equal the donor's: its
	// warm run is a strict-fingerprint resume and must match its cold run
	// exactly. Other variants are forks — their pre-barrier history ran
	// under the donor's knobs, so warm and cold cycles may differ slightly.
	ExactResume bool `json:"exact_resume"`
}

// WarmStartReport is the BENCH_snapshot.json schema: the measured warm-start
// sweep campaign, cold versus forked-from-one-checkpoint.
type WarmStartReport struct {
	Benchmark string   `json:"benchmark"`
	Workload  string   `json:"workload"`
	GoOS      string   `json:"goos"`
	GoArch    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Notes     []string `json:"notes"`

	VariantCount    int     `json:"variant_count"`
	DonorCycles     uint64  `json:"donor_total_cycles"`
	BarrierCycle    uint64  `json:"barrier_cycle"`
	BarrierFraction float64 `json:"barrier_fraction"`
	SnapshotBytes   int     `json:"snapshot_bytes"`
	SnapshotHash    string  `json:"snapshot_hash"`

	ColdNs                 int64   `json:"cold_ns"`
	WarmupNs               int64   `json:"warmup_ns"`
	FanoutNs               int64   `json:"fanout_ns"`
	WarmNs                 int64   `json:"warm_ns"`
	SpeedupX               float64 `json:"speedup_x"`
	ExactResumeMatchesCold bool    `json:"exact_resume_matches_cold"`

	Variants []WarmStartVariant `json:"variants"`
}

// warmStartVariants is the swept knob grid: the OrdPush pause/resume
// threshold crossed with the decision time window, ten points including the
// donor's own setting.
func warmStartVariants(base Config) []Config {
	var out []Config
	for _, tpc := range []int{8, 16, 32, 64, 128} {
		for _, win := range []int{500, 1500} {
			v := base
			v.TPCThreshold = tpc
			v.TimeWindow = win
			out = append(out, v)
		}
	}
	return out
}

// ExpWarmStart measures the warm-start sweep campaign: a ten-point
// pause/resume knob sweep over OrdPush run twice, once cold (every variant
// from cycle zero) and once forked from a single checkpoint taken at ~90% of
// the donor run. Both phases run the variants one at a time on one worker,
// so the reported speedup is the per-worker work reduction
// N / (f + N·(1−f)) and not an artifact of pool scheduling; the forked phase
// goes through the same WarmStartSweep fan-out the harness exposes.
func ExpWarmStart(o ExpOptions) (*WarmStartReport, error) {
	o = o.withDefaults()
	// One worker in both phases: the speedup claim is about total work, and
	// must not depend on how many variants the host can overlap.
	o.Parallelism = 1
	base, err := o.baseConfig()
	if err != nil {
		return nil, err
	}
	base = base.WithScheme(OrdPush())
	variants := warmStartVariants(base)
	wl, err := WorkloadByName("cachebw")
	if err != nil {
		return nil, err
	}
	sc := o.Scale
	rep := &WarmStartReport{
		Benchmark:    "BenchmarkWarmStartSweep",
		Workload:     fmt.Sprintf("cachebw / OrdPush knob sweep / %d cores", base.Tiles()),
		VariantCount: len(variants),
		Notes: []string{
			"cold_ns runs every variant from cycle 0; warm_ns = warmup_ns (donor run to the barrier + snapshot) + fanout_ns (every variant restored from that one snapshot and run to completion).",
			"Both phases run variants sequentially on one worker: speedup_x is the per-worker work reduction N/(f + N*(1-f)) for N variants forked at barrier fraction f, not a pool-scheduling artifact.",
			"The variant whose knobs equal the donor's is an exact (strict-fingerprint) resume and must reproduce its cold run bit-for-bit (exact_resume_matches_cold). The other variants are forks: their pre-barrier history executed under the donor's knob values, which is the documented warm-start approximation - their warm_cycles may differ from cold_cycles.",
			"The forked phase goes through the harness's WarmStartSweep path; warm memo keys carry the snapshot content hash, so warm and cold runs of one configuration can never alias.",
		},
	}

	// Cold phase: every variant from cycle zero, no memo (timing honesty).
	coldStart := time.Now()
	coldRes := make([]Results, len(variants))
	for i, v := range variants {
		res, err := RunWorkload(v, wl, sc)
		if err != nil {
			return nil, fmt.Errorf("cold variant %d: %w", i, err)
		}
		coldRes[i] = res
	}
	rep.ColdNs = time.Since(coldStart).Nanoseconds()
	rep.DonorCycles = coldRes[donorIndex(variants, base)].Cycles
	rep.BarrierCycle = rep.DonorCycles * 90 / 100
	rep.BarrierFraction = float64(rep.BarrierCycle) / float64(rep.DonorCycles)

	// Warm phase: one donor run to the barrier, one snapshot, N forks.
	ClearRunMemo() // a memo hit would time a map lookup, not a fork
	warmupStart := time.Now()
	warmRes, snap, err := WarmStartSweep(context.Background(), o, base, variants, wl, rep.BarrierCycle)
	if err != nil {
		return nil, err
	}
	rep.WarmNs = time.Since(warmupStart).Nanoseconds()
	rep.SnapshotBytes = len(snap)
	rep.SnapshotHash = fmt.Sprintf("%#x", SnapshotHash(snap))
	// Split warm-up from fan-out by re-timing the donor's pause alone; the
	// sweep above already paid it, so this stays a measurement, not a rerun
	// of the campaign.
	wuStart := time.Now()
	m, err := NewMachine(base, wl, sc)
	if err != nil {
		return nil, err
	}
	if err := m.RunTo(rep.BarrierCycle); err != nil {
		return nil, err
	}
	if _, err := m.Snapshot(); err != nil {
		return nil, err
	}
	rep.WarmupNs = time.Since(wuStart).Nanoseconds()
	rep.FanoutNs = rep.WarmNs - rep.WarmupNs
	if rep.FanoutNs < 0 {
		rep.FanoutNs = 0
	}
	if rep.WarmNs > 0 {
		rep.SpeedupX = float64(rep.ColdNs) / float64(rep.WarmNs)
	}

	rep.ExactResumeMatchesCold = true
	for i, v := range variants {
		exact := v.TPCThreshold == base.TPCThreshold && v.TimeWindow == base.TimeWindow
		rep.Variants = append(rep.Variants, WarmStartVariant{
			TPCThreshold: v.TPCThreshold,
			TimeWindow:   v.TimeWindow,
			ColdCycles:   coldRes[i].Cycles,
			WarmCycles:   warmRes[i].Cycles,
			ExactResume:  exact,
		})
		if exact && (coldRes[i].Cycles != warmRes[i].Cycles ||
			coldRes[i].Stats.Core.Instructions != warmRes[i].Stats.Core.Instructions) {
			rep.ExactResumeMatchesCold = false
		}
	}
	if !rep.ExactResumeMatchesCold {
		return rep, fmt.Errorf("warm-start: exact resume diverged from its cold run")
	}
	return rep, nil
}

// donorIndex finds the variant whose knobs equal the donor's.
func donorIndex(variants []Config, base Config) int {
	for i, v := range variants {
		if v.TPCThreshold == base.TPCThreshold && v.TimeWindow == base.TimeWindow {
			return i
		}
	}
	return 0
}
