package pushmulticast

import (
	"context"

	"fmt"
	"sort"

	"pushmulticast/internal/stats"
	"pushmulticast/internal/workload"
)

// Fig2Row is one workload's private-L2 pressure and NoC load under the
// baseline (Fig 2: L2 MPKI bars + injection-load dots).
type Fig2Row struct {
	Workload string
	L2MPKI   float64
	// InjLoad is the average NoC injection rate in flits/cycle/tile.
	InjLoad float64
}

// Fig2Result reproduces Fig 2.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 measures L2 MPKI and NoC injection load for every workload under the
// L1Bingo-L2Stride baseline.
func Fig2(o ExpOptions) (*Fig2Result, error) {
	o = o.withDefaults()
	res, wls, err := matrix(context.Background(), o, []Scheme{Baseline()}, Workloads(), nil)
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{}
	for _, wl := range wls {
		r := res[runKey{Baseline().Name, wl.Name}]
		var inj uint64
		for u := stats.Unit(0); u < stats.NumUnits; u++ {
			for c := stats.Class(0); c < stats.NumClasses; c++ {
				inj += r.Stats.Net.InjectedFlits[u][c]
			}
		}
		out.Rows = append(out.Rows, Fig2Row{
			Workload: wl.Name,
			L2MPKI:   r.L2MPKI(),
			InjLoad:  float64(inj) / float64(r.Cycles) / float64(o.Cores),
		})
	}
	return out, nil
}

// String renders the figure as a table.
func (f *Fig2Result) String() string {
	t := newTable("Fig 2: private L2 MPKI and NoC injection load (baseline)",
		"Workload", "L2 MPKI", "Inj load (flits/cycle/tile)")
	for _, r := range f.Rows {
		t.addRow(r.Workload, f1(r.L2MPKI), fmt.Sprintf("%.3f", r.InjLoad))
	}
	return t.String()
}

// Fig3Row is one workload's traffic composition (Fig 3).
type Fig3Row struct {
	Workload string
	// Fractions of link-level flit traffic. ReadShared folds in push data,
	// as in the paper's classification.
	ReadShared, ReadRequest, Exclusive, WriteBack, Others float64
}

// Fig3Result reproduces Fig 3.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 classifies baseline NoC traffic per workload.
func Fig3(o ExpOptions) (*Fig3Result, error) {
	o = o.withDefaults()
	res, wls, err := matrix(context.Background(), o, []Scheme{Baseline()}, Workloads(), nil)
	if err != nil {
		return nil, err
	}
	out := &Fig3Result{}
	for _, wl := range wls {
		r := res[runKey{Baseline().Name, wl.Name}]
		c := r.Stats.Net.TotalFlitsByClass
		total := float64(r.Stats.Net.TotalFlits())
		if total == 0 {
			total = 1
		}
		out.Rows = append(out.Rows, Fig3Row{
			Workload:    wl.Name,
			ReadShared:  float64(c[stats.ClassReadSharedData]+c[stats.ClassPushData]) / total,
			ReadRequest: float64(c[stats.ClassReadRequest]) / total,
			Exclusive:   float64(c[stats.ClassExclusiveData]) / total,
			WriteBack:   float64(c[stats.ClassWriteBackData]) / total,
			Others:      float64(c[stats.ClassOther]+c[stats.ClassPushAck]) / total,
		})
	}
	return out, nil
}

// String renders the figure as a table.
func (f *Fig3Result) String() string {
	t := newTable("Fig 3: NoC traffic breakdown (baseline)",
		"Workload", "ReadShared", "ReadReq", "Exclusive", "WriteBack", "Others")
	for _, r := range f.Rows {
		t.addRow(r.Workload, pct(r.ReadShared), pct(r.ReadRequest),
			pct(r.Exclusive), pct(r.WriteBack), pct(r.Others))
	}
	return t.String()
}

// Fig4Pair summarizes the gap distribution between two consecutive sharers.
type Fig4Pair struct {
	Prev, Next                 int
	Samples                    int
	Min, P25, Median, P75, Max uint64
}

// Fig4Result reproduces Fig 4: the violin plot of time intervals between
// consecutive shared-line accesses from distinct sharers (mv).
type Fig4Result struct {
	Workload string
	Pairs    []Fig4Pair
	// AllMedian is the median over every recorded gap.
	AllMedian uint64
}

// Fig4 traces consecutive-sharer access gaps on mv under the reactive
// system (no pushes), matching the paper's characterization setup.
func Fig4(o ExpOptions) (*Fig4Result, error) {
	o = o.withDefaults()
	cfg, err := o.baseConfig()
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithScheme(NoPrefetch())
	cfg.TraceSharerGaps = true
	wl := workload.MV()
	res, err := RunWorkload(cfg, wl, o.Scale)
	if err != nil {
		return nil, err
	}
	out := &Fig4Result{Workload: wl.Name}
	var all []uint64
	keys := make([]int, 0, len(res.Stats.SharerGaps))
	for k, v := range res.Stats.SharerGaps {
		if len(v.Samples) >= 8 {
			keys = append(keys, k)
		}
		all = append(all, v.Samples...)
	}
	sort.Ints(keys)
	for _, k := range keys {
		s := sortU64(res.Stats.SharerGaps[k].Samples)
		out.Pairs = append(out.Pairs, Fig4Pair{
			Prev: k / 64, Next: k % 64, Samples: len(s),
			Min: s[0], P25: Quantile(s, 0.25), Median: Quantile(s, 0.5),
			P75: Quantile(s, 0.75), Max: s[len(s)-1],
		})
	}
	if len(all) > 0 {
		out.AllMedian = Quantile(sortU64(all), 0.5)
	}
	// Keep the report readable: the densest 16 pairs.
	if len(out.Pairs) > 16 {
		sort.Slice(out.Pairs, func(i, j int) bool { return out.Pairs[i].Samples > out.Pairs[j].Samples })
		out.Pairs = out.Pairs[:16]
		sort.Slice(out.Pairs, func(i, j int) bool {
			return out.Pairs[i].Prev*64+out.Pairs[i].Next < out.Pairs[j].Prev*64+out.Pairs[j].Next
		})
	}
	return out, nil
}

// String renders the figure as a quantile table (the violin's summary).
func (f *Fig4Result) String() string {
	t := newTable("Fig 4: consecutive sharer access gap distribution ("+f.Workload+")",
		"Pair", "Samples", "Min", "P25", "Median", "P75", "Max")
	for _, p := range f.Pairs {
		t.addRow(fmt.Sprintf("%d-%d", p.Prev, p.Next), fmt.Sprint(p.Samples),
			fmt.Sprint(p.Min), fmt.Sprint(p.P25), fmt.Sprint(p.Median),
			fmt.Sprint(p.P75), fmt.Sprint(p.Max))
	}
	t.addNote("median gap over all sharer pairs: %d cycles (paper: ~1000 at full "+
		"scale; scaled inputs compress absolute gaps). The comparable claim is the "+
		"ratio to the 10-cycle LLC lookup: upper quartiles span tens to hundreds of "+
		"cycles, so an LLC-side coalescing window rarely captures more than one "+
		"sharer, while pushes cover them all.", f.AllMedian)
	return t.String()
}
