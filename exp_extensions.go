package pushmulticast

import (
	"pushmulticast/internal/config"
	"pushmulticast/internal/workload"
)

// This file implements the paper's §VI "Discussion and Future Directions"
// explorations that are measurable on this substrate: the push/prefetch
// interplay, and an ablation of this implementation's recent-push table.

// PushPrefetch combines OrdPush with the baseline prefetchers (§VI,
// "Interplay of Push and Prefetch").
func PushPrefetch() Scheme { return config.PushPrefetch() }

// PredictivePush extends OrdPush with the decoupled sharer predictor (§VI,
// "General Push Multicast"): pushes also fire on LLC-miss fills.
func PredictivePush() Scheme { return config.PredictivePush() }

// DeepPush extends OrdPush by propagating accepted pushes into the L1 (§VI,
// "Multi-Level Caches").
func DeepPush() Scheme { return config.DeepPush() }

// figInterplay measures whether enabling pushing and prefetching together
// helps or hurts per workload, reproducing the paper's preliminary finding
// that the combination is not consistently beneficial.
var figInterplay = Figure{
	Name:    "interplay",
	title:   "Extension (paper SVI): push x prefetch interplay, speedup over baseline",
	schemes: []Scheme{OrdPush(), PushPrefetch()},
	rows:    []int{byWorkload},
	cols: []column{workloadCol,
		speedupCol.of(OrdPush(), "OrdPush"), speedupCol.of(PushPrefetch(), "OrdPush+Prefetch")},
	notes: []string{"the paper reports the combination is not consistently beneficial; " +
		"compare the two columns per row"},
}

// figFuture evaluates the decoupled sharer predictor and the L1-propagation
// extension against plain OrdPush. The predictor matters on workloads whose
// shared footprint overflows the LLC (bfs at quick scale); L1 propagation
// trades L1 pollution for hit latency. The last column counts the pushes
// the predictor triggers beyond OrdPush's — negative when it triggers fewer.
var figFuture = Figure{
	Name:    "future",
	title:   "Extension (paper SVI): future directions, speedup over baseline",
	schemes: []Scheme{OrdPush(), PredictivePush(), DeepPush()},
	workloads: defaultWorkloads(func() []Workload {
		return []Workload{workload.CacheBW(), workload.BFS(), workload.MLP()}
	}),
	rows: []int{byWorkload},
	cols: []column{workloadCol,
		speedupCol.of(OrdPush(), "OrdPush"), speedupCol.of(PredictivePush(), "+Predictor"),
		speedupCol.of(DeepPush(), "+L1 fill"),
		// Signed: a predictor that triggers fewer pushes than OrdPush reads
		// negative.
		{head: "Extra predictor pushes", format: f2, scheme: PredictivePush().Name, vs: OrdPush().Name,
			val: func(ord, r Results) (float64, error) {
				return float64(pushesTriggered(r)) - float64(pushesTriggered(ord)), nil
			}}},
}

// figRecent ablates this implementation's recent-push table (a
// DESIGN.md-documented refinement over the paper's description): without
// it, every re-reference that slips past the filters re-triggers a full
// multicast. The sweep's first point is the machine without the table, so
// each column compares the machine with it against that reference.
var figRecent = Figure{
	Name:    "recent",
	title:   "Extension: recent-push-table ablation (OrdPush)",
	schemes: []Scheme{OrdPush()},
	workloads: defaultWorkloads(func() []Workload {
		return []Workload{workload.CacheBW(), workload.Multilevel(), workload.Particlefilter()}
	}),
	points: []point{
		{label: "without", edit: func(cfg *Config) { cfg.NoRecentPushTable = true }},
		{label: "with"},
	},
	ref:  refFirstStep,
	rows: []int{byWorkload},
	cols: []column{workloadCol,
		{head: "Speedup from table", format: f2, point: "with", val: speedup},
		{head: "Traffic ratio", format: f2, point: "with", val: flitShare()},
		{head: "Pushes with", format: f2, point: "with",
			val: func(_, r Results) (float64, error) { return float64(pushesTriggered(r)), nil }},
		{head: "Pushes without", format: f2, point: "with",
			val: func(ref, _ Results) (float64, error) { return float64(pushesTriggered(ref)), nil }}},
}
