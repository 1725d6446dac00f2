package pushmulticast

import (
	"fmt"
	"sort"

	"pushmulticast/internal/stats"
	"pushmulticast/internal/workload"
)

// unitFlits sums one endpoint counter (injected or ejected flits) of a unit
// kind over the given classes, every class when none is named.
func unitFlits(byUnit *[stats.NumUnits][stats.NumClasses]uint64, unit stats.Unit, classes ...stats.Class) uint64 {
	var n uint64
	if len(classes) == 0 {
		for _, v := range byUnit[unit] {
			n += v
		}
	}
	for _, c := range classes {
		n += byUnit[unit][c]
	}
	return n
}

// flitShare is the run's link-level flits in the given classes (all traffic
// when none is named) over its reference's total link traffic; a silent
// reference counts as 1.
func flitShare(classes ...stats.Class) func(ref, r Results) (float64, error) {
	return func(ref, r Results) (float64, error) {
		n := r.Stats.Net.TotalFlits()
		if len(classes) > 0 {
			n = 0
			for _, c := range classes {
				n += r.Stats.Net.TotalFlitsByClass[c]
			}
		}
		total := float64(ref.Stats.Net.TotalFlits())
		if total == 0 {
			total = 1
		}
		return float64(n) / total, nil
	}
}

// fig2 measures L2 MPKI and NoC injection load (flits/cycle/tile; a mesh
// has four link counters per tile) for every workload under the
// L1Bingo-L2Stride baseline: Fig 2's bars and dots.
var fig2 = Figure{
	Name:      "2",
	title:     "Fig 2: private L2 MPKI and NoC injection load (baseline)",
	schemes:   []Scheme{Baseline()},
	workloads: defaultWorkloads(Workloads),
	rows:      []int{byWorkload},
	cols: []column{
		workloadCol,
		{head: "L2 MPKI", format: f1, val: func(_, r Results) (float64, error) { return r.L2MPKI(), nil }},
		{head: "Inj load (flits/cycle/tile)", format: f3, val: func(_, r Results) (float64, error) {
			var inj uint64
			for u := stats.Unit(0); u < stats.NumUnits; u++ {
				inj += unitFlits(&r.Stats.Net.InjectedFlits, u)
			}
			return float64(inj) / float64(r.Cycles) / float64(len(r.Stats.Net.LinkFlits)/4), nil
		}},
	},
}

// fig3 classifies baseline NoC traffic per workload. ReadShared folds in
// push data, as in the paper's classification.
var fig3 = Figure{
	Name:      "3",
	title:     "Fig 3: NoC traffic breakdown (baseline)",
	schemes:   []Scheme{Baseline()},
	workloads: defaultWorkloads(Workloads),
	rows:      []int{byWorkload},
	cols: []column{
		workloadCol,
		{head: "ReadShared", format: pct, val: flitShare(stats.ClassReadSharedData, stats.ClassPushData)},
		{head: "ReadReq", format: pct, val: flitShare(stats.ClassReadRequest)},
		{head: "Exclusive", format: pct, val: flitShare(stats.ClassExclusiveData)},
		{head: "WriteBack", format: pct, val: flitShare(stats.ClassWriteBackData)},
		{head: "Others", format: pct, val: flitShare(stats.ClassOther, stats.ClassPushAck)},
	},
}

// fig4 traces consecutive-sharer access gaps on mv under the reactive
// system (no pushes), matching the paper's characterization setup: the
// violin plot of time intervals between consecutive shared-line accesses
// from distinct sharers, as one quantile row per sharer pair.
var fig4 = Figure{
	Name:      "4",
	schemes:   []Scheme{NoPrefetch()},
	workloads: func(ExpOptions) ([]Workload, error) { return []Workload{workload.MV()}, nil },
	points:    []point{{edit: func(cfg *Config) { cfg.TraceSharerGaps = true }}},
	reduce: func(_ ExpOptions, grid map[string]Results) (fmt.Stringer, error) {
		wl := workload.MV()
		gaps := grid[cell{scheme: NoPrefetch().Name, wl: wl}.key()].Stats.SharerGaps
		var all []uint64
		var pairs []int
		for k, v := range gaps {
			if len(v.Samples) >= 8 {
				pairs = append(pairs, k)
			}
			all = append(all, v.Samples...)
		}
		sort.Ints(pairs)
		// Keep the report readable: the densest 16 pairs.
		if len(pairs) > 16 {
			sort.Slice(pairs, func(i, j int) bool { return len(gaps[pairs[i]].Samples) > len(gaps[pairs[j]].Samples) })
			pairs = pairs[:16]
			sort.Ints(pairs)
		}
		t := newTable("Fig 4: consecutive sharer access gap distribution ("+wl.Name+")",
			"Pair", "Samples", "Min", "P25", "Median", "P75", "Max")
		for _, k := range pairs {
			s := sortU64(gaps[k].Samples)
			row := []Cell{{Text: fmt.Sprintf("%d-%d", k/64, k%64)}}
			for _, v := range []uint64{uint64(len(s)), s[0], Quantile(s, 0.25), Quantile(s, 0.5), Quantile(s, 0.75), s[len(s)-1]} {
				row = append(row, Cell{Text: fmt.Sprint(v), Value: float64(v)})
			}
			t.Rows = append(t.Rows, row)
		}
		t.addNote("median gap over all sharer pairs: %d cycles (paper: ~1000 at full "+
			"scale; scaled inputs compress absolute gaps). The comparable claim is the "+
			"ratio to the 10-cycle LLC lookup: upper quartiles span tens to hundreds of "+
			"cycles, so an LLC-side coalescing window rarely captures more than one "+
			"sharer, while pushes cover them all.", Quantile(sortU64(all), 0.5))
		return t, nil
	},
}
