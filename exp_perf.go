package pushmulticast

import (
	"context"

	"fmt"

	"pushmulticast/internal/stats"
	"pushmulticast/internal/workload"
)

// perfSchemes is the Fig 11 comparison set (baseline separately).
func perfSchemes() []Scheme {
	return []Scheme{Coalesce(), MSP(), PushAck(), OrdPush()}
}

// Fig11Row holds one workload's speedups over the baseline plus MPKI.
type Fig11Row struct {
	Workload string
	// Speedup maps scheme name -> baseline-cycles / scheme-cycles.
	Speedup map[string]float64
	// L2MPKI maps scheme name -> MPKI (baseline included).
	L2MPKI map[string]float64
}

// Fig11Result reproduces Fig 11 for one core count.
type Fig11Result struct {
	Cores   int
	Schemes []string
	Rows    []Fig11Row
	// Geomean maps scheme name -> geometric-mean speedup.
	Geomean map[string]float64
	// Max maps scheme name -> best speedup.
	Max map[string]float64
}

// Fig11 measures execution-time speedup and L2 MPKI for
// Coalesce/MSP/PushAck/OrdPush against L1Bingo-L2Stride.
func Fig11(o ExpOptions) (*Fig11Result, error) {
	o = o.withDefaults()
	def := Workloads()
	if o.Cores == 64 {
		// The paper's 64-core figure uses the non-PARSEC set plus PARSEC;
		// we default to the non-PARSEC set to bound runtime.
		def = workload.NonParsec()
	}
	schemes := append([]Scheme{Baseline()}, perfSchemes()...)
	res, wls, err := matrix(context.Background(), o, schemes, def, nil)
	if err != nil {
		return nil, err
	}
	out := &Fig11Result{
		Cores:   o.Cores,
		Geomean: map[string]float64{},
		Max:     map[string]float64{},
	}
	for _, s := range perfSchemes() {
		out.Schemes = append(out.Schemes, s.Name)
	}
	per := map[string][]float64{}
	for _, wl := range wls {
		base := res[runKey{Baseline().Name, wl.Name}]
		row := Fig11Row{
			Workload: wl.Name,
			Speedup:  map[string]float64{},
			L2MPKI:   map[string]float64{Baseline().Name: base.L2MPKI()},
		}
		for _, s := range perfSchemes() {
			r := res[runKey{s.Name, wl.Name}]
			sp, err := speedup(base, r)
			if err != nil {
				return nil, err
			}
			row.Speedup[s.Name] = sp
			row.L2MPKI[s.Name] = r.L2MPKI()
			per[s.Name] = append(per[s.Name], sp)
		}
		out.Rows = append(out.Rows, row)
	}
	for name, sps := range per {
		gm, err := geomean(sps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out.Geomean[name] = gm
		max := 0.0
		for _, v := range sps {
			if v > max {
				max = v
			}
		}
		out.Max[name] = max
	}
	return out, nil
}

// String renders the figure as a table.
func (f *Fig11Result) String() string {
	cols := []string{"Workload"}
	for _, s := range f.Schemes {
		cols = append(cols, s+" x")
	}
	cols = append(cols, "MPKI(base)", "MPKI(OrdPush)")
	t := newTable(fmt.Sprintf("Fig 11: speedup over L1Bingo-L2Stride (%d cores)", f.Cores), cols...)
	for _, r := range f.Rows {
		cells := []string{r.Workload}
		for _, s := range f.Schemes {
			cells = append(cells, f2(r.Speedup[s]))
		}
		cells = append(cells, f1(r.L2MPKI["L1Bingo-L2Stride"]), f1(r.L2MPKI["OrdPush"]))
		t.addRow(cells...)
	}
	g := []string{"geomean"}
	m := []string{"max"}
	for _, s := range f.Schemes {
		g = append(g, f2(f.Geomean[s]))
		m = append(m, f2(f.Max[s]))
	}
	t.addRow(append(g, "", "")...)
	t.addRow(append(m, "", "")...)
	return t.String()
}

// Fig12Row is one (scheme, workload)'s push usage breakdown, in percent of
// received pushes.
type Fig12Row struct {
	Scheme, Workload string
	// Percent indexes by stats.PushOutcome.
	Percent [stats.NumPushOutcomes]float64
	Total   uint64
}

// Fig12Result reproduces Fig 12 (push accuracy).
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12 categorizes push usage at private caches for MSP, PushAck, and
// OrdPush.
func Fig12(o ExpOptions) (*Fig12Result, error) {
	o = o.withDefaults()
	schemes := []Scheme{MSP(), PushAck(), OrdPush()}
	res, wls, err := matrix(context.Background(), o, schemes, workload.NonParsec(), nil)
	if err != nil {
		return nil, err
	}
	out := &Fig12Result{}
	for _, s := range schemes {
		for _, wl := range wls {
			r := res[runKey{s.Name, wl.Name}]
			row := Fig12Row{Scheme: s.Name, Workload: wl.Name, Total: r.Stats.Cache.TotalPushes()}
			if row.Total > 0 {
				for oc := stats.PushOutcome(0); oc < stats.NumPushOutcomes; oc++ {
					row.Percent[oc] = float64(r.Stats.Cache.PushOutcomes[oc]) / float64(row.Total)
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// String renders the figure as a table.
func (f *Fig12Result) String() string {
	t := newTable("Fig 12: push usage breakdown at private caches",
		"Scheme", "Workload", "DeadlockDrop", "RedundDrop", "CohDrop", "Unused", "MissToHit", "EarlyResp", "Pushes")
	for _, r := range f.Rows {
		t.addRow(r.Scheme, r.Workload,
			pct(r.Percent[stats.PushDeadlockDrop]), pct(r.Percent[stats.PushRedundancyDrop]),
			pct(r.Percent[stats.PushCoherenceDrop]), pct(r.Percent[stats.PushUnused]),
			pct(r.Percent[stats.PushMissToHit]), pct(r.Percent[stats.PushEarlyResp]),
			fmt.Sprint(r.Total))
	}
	return t.String()
}

// Fig13Row is one (scheme, workload)'s traffic by category, normalized to
// the baseline's total traffic.
type Fig13Row struct {
	Scheme, Workload string
	// Normalized link-flit fractions relative to baseline total.
	ReadShared, PushAckT, ReadRequest, Exclusive, WriteBack, Others float64
	Total                                                           float64
}

// Fig13Result reproduces Fig 13 (network traffic breakdown, normalized).
type Fig13Result struct {
	Rows []Fig13Row
	// AvgSaving is the mean total-traffic saving of OrdPush vs baseline
	// across workloads (the paper's headline 33%/43%).
	AvgSavingOrdPush float64
}

// Fig13 measures per-category NoC traffic for MSP, PushAck, and OrdPush
// normalized to L1Bingo-L2Stride.
func Fig13(o ExpOptions) (*Fig13Result, error) {
	o = o.withDefaults()
	schemes := []Scheme{Baseline(), MSP(), PushAck(), OrdPush()}
	res, wls, err := matrix(context.Background(), o, schemes, workload.NonParsec(), nil)
	if err != nil {
		return nil, err
	}
	out := &Fig13Result{}
	var savings []float64
	for _, s := range schemes[1:] {
		for _, wl := range wls {
			base := float64(res[runKey{Baseline().Name, wl.Name}].Stats.Net.TotalFlits())
			if base == 0 {
				base = 1
			}
			r := res[runKey{s.Name, wl.Name}]
			c := r.Stats.Net.TotalFlitsByClass
			row := Fig13Row{
				Scheme: s.Name, Workload: wl.Name,
				ReadShared:  float64(c[stats.ClassReadSharedData]+c[stats.ClassPushData]) / base,
				PushAckT:    float64(c[stats.ClassPushAck]) / base,
				ReadRequest: float64(c[stats.ClassReadRequest]) / base,
				Exclusive:   float64(c[stats.ClassExclusiveData]) / base,
				WriteBack:   float64(c[stats.ClassWriteBackData]) / base,
				Others:      float64(c[stats.ClassOther]) / base,
				Total:       float64(r.Stats.Net.TotalFlits()) / base,
			}
			out.Rows = append(out.Rows, row)
			if s.Name == OrdPush().Name {
				savings = append(savings, 1-row.Total)
			}
		}
	}
	for _, v := range savings {
		out.AvgSavingOrdPush += v
	}
	if len(savings) > 0 {
		out.AvgSavingOrdPush /= float64(len(savings))
	}
	return out, nil
}

// String renders the figure as a table.
func (f *Fig13Result) String() string {
	t := newTable("Fig 13: NoC traffic breakdown normalized to baseline",
		"Scheme", "Workload", "ReadShared", "PushAck", "ReadReq", "Exclusive", "WriteBack", "Others", "Total")
	for _, r := range f.Rows {
		t.addRow(r.Scheme, r.Workload, f2(r.ReadShared), f2(r.PushAckT), f2(r.ReadRequest),
			f2(r.Exclusive), f2(r.WriteBack), f2(r.Others), f2(r.Total))
	}
	t.addNote("average OrdPush traffic saving: %s (paper: 33%% at 16 cores, 43%% at 64)", pct(f.AvgSavingOrdPush))
	return t.String()
}
