package pushmulticast

import (
	"context"

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

// InterplayRow is one workload's comparison of prefetch-only, push-only,
// and combined configurations (speedups over the prefetching baseline).
type InterplayRow struct {
	Workload string
	OrdPush  float64
	Combined float64
}

// InterplayResult holds the §VI push-prefetch interplay study.
type InterplayResult struct{ Rows []InterplayRow }

// ExtInterplay measures whether enabling pushing and prefetching together
// helps or hurts per workload, reproducing the paper's preliminary finding
// that the combination is not consistently beneficial.
func ExtInterplay(o ExpOptions) (*InterplayResult, error) {
	o = o.withDefaults()
	schemes := []Scheme{Baseline(), OrdPush(), PushPrefetch()}
	res, wls, err := matrix(context.Background(), o, schemes, workload.NonParsec(), nil)
	if err != nil {
		return nil, err
	}
	out := &InterplayResult{}
	for _, wl := range wls {
		base := res[runKey{Baseline().Name, wl.Name}]
		ord, err := speedup(base, res[runKey{OrdPush().Name, wl.Name}])
		if err != nil {
			return nil, err
		}
		comb, err := speedup(base, res[runKey{PushPrefetch().Name, wl.Name}])
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, InterplayRow{Workload: wl.Name, OrdPush: ord, Combined: comb})
	}
	return out, nil
}

// String renders the study as a table.
func (f *InterplayResult) String() string {
	t := newTable("Extension (paper SVI): push x prefetch interplay, speedup over baseline",
		"Workload", "OrdPush", "OrdPush+Prefetch")
	for _, r := range f.Rows {
		t.addRow(r.Workload, f2(r.OrdPush), f2(r.Combined))
	}
	t.addNote("the paper reports the combination is not consistently beneficial; " +
		"compare the two columns per row")
	return t.String()
}

// FutureRow compares OrdPush against the §VI future-direction variants.
type FutureRow struct {
	Workload string
	// Speedups over the prefetching baseline.
	OrdPush, Predict, DeepL1 float64
	// PredictorPushes counts fills covered by the decoupled predictor.
	PredictorPushes uint64
}

// FutureResult holds the §VI extension study.
type FutureResult struct{ Rows []FutureRow }

// ExtFutureDirections evaluates the decoupled sharer predictor and the
// L1-propagation extension against plain OrdPush. The predictor matters on
// workloads whose shared footprint overflows the LLC (bfs at quick scale);
// L1 propagation trades L1 pollution for hit latency.
func ExtFutureDirections(o ExpOptions) (*FutureResult, error) {
	o = o.withDefaults()
	schemes := []Scheme{Baseline(), OrdPush(), PredictivePush(), DeepPush()}
	def := []Workload{workload.CacheBW(), workload.BFS(), workload.MLP()}
	res, wls, err := matrix(context.Background(), o, schemes, def, nil)
	if err != nil {
		return nil, err
	}
	out := &FutureResult{}
	for _, wl := range wls {
		base := res[runKey{Baseline().Name, wl.Name}]
		pr := res[runKey{PredictivePush().Name, wl.Name}]
		ord := res[runKey{OrdPush().Name, wl.Name}]
		spOrd, err := speedup(base, ord)
		if err != nil {
			return nil, err
		}
		spPr, err := speedup(base, pr)
		if err != nil {
			return nil, err
		}
		spDeep, err := speedup(base, res[runKey{DeepPush().Name, wl.Name}])
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, FutureRow{
			Workload:        wl.Name,
			OrdPush:         spOrd,
			Predict:         spPr,
			DeepL1:          spDeep,
			PredictorPushes: pr.Stats.Cache.PushesTriggered - ord.Stats.Cache.PushesTriggered,
		})
	}
	return out, nil
}

// String renders the study as a table.
func (f *FutureResult) String() string {
	t := newTable("Extension (paper SVI): future directions, speedup over baseline",
		"Workload", "OrdPush", "+Predictor", "+L1 fill", "Extra predictor pushes")
	for _, r := range f.Rows {
		t.addRow(r.Workload, f2(r.OrdPush), f2(r.Predict), f2(r.DeepL1),
			f2(float64(r.PredictorPushes)))
	}
	return t.String()
}

// RecentTableRow compares OrdPush with and without the recent-push table.
type RecentTableRow struct {
	Workload string
	// Speedup of enabling the table (cycles-without / cycles-with).
	Speedup float64
	// TrafficRatio is flits-with / flits-without.
	TrafficRatio float64
	// PushesWith/PushesWithout count triggered multicasts.
	PushesWith, PushesWithout uint64
}

// RecentTableResult holds the recent-push-table ablation.
type RecentTableResult struct{ Rows []RecentTableRow }

// ExtRecentPushTable ablates this implementation's recent-push table (a
// DESIGN.md-documented refinement over the paper's description): without
// it, every re-reference that slips past the filters re-triggers a full
// multicast.
func ExtRecentPushTable(o ExpOptions) (*RecentTableResult, error) {
	o = o.withDefaults()
	def := []Workload{workload.CacheBW(), workload.Multilevel(), workload.Particlefilter()}
	with, wls, err := matrix(context.Background(), o, []Scheme{OrdPush()}, def, nil)
	if err != nil {
		return nil, err
	}
	without, _, err := matrix(context.Background(), o, []Scheme{OrdPush()}, def, func(cfg *Config) {
		cfg.NoRecentPushTable = true
	})
	if err != nil {
		return nil, err
	}
	out := &RecentTableResult{}
	for _, wl := range wls {
		w := with[runKey{OrdPush().Name, wl.Name}]
		wo := without[runKey{OrdPush().Name, wl.Name}]
		out.Rows = append(out.Rows, RecentTableRow{
			Workload:      wl.Name,
			Speedup:       float64(wo.Cycles) / float64(w.Cycles),
			TrafficRatio:  float64(w.TotalNoCFlits()) / float64(wo.TotalNoCFlits()),
			PushesWith:    w.Stats.Cache.PushesTriggered,
			PushesWithout: wo.Stats.Cache.PushesTriggered,
		})
	}
	return out, nil
}

// String renders the ablation as a table.
func (f *RecentTableResult) String() string {
	t := newTable("Extension: recent-push-table ablation (OrdPush)",
		"Workload", "Speedup from table", "Traffic ratio", "Pushes with", "Pushes without")
	for _, r := range f.Rows {
		t.addRow(r.Workload, f2(r.Speedup), f2(r.TrafficRatio),
			f2(float64(r.PushesWith)), f2(float64(r.PushesWithout)))
	}
	return t.String()
}
