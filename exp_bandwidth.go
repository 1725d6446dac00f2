package pushmulticast

import (
	"context"

	"fmt"
	"strings"

	"pushmulticast/internal/noc"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/workload"
)

// Fig14Grid is one scheme's per-link average load map.
type Fig14Grid struct {
	Scheme string
	W, H   int
	// Load[node][dir] is flits/cycle on the link leaving node through
	// direction dir (N,E,S,W order as in noc ports).
	Load [][]float64
	// MaxLoad and MaxLink locate the hotspot.
	MaxLoad float64
	MaxLink string
	// Total is total link flits.
	Total uint64
}

// Fig14Result reproduces Fig 14: cachebw link loads, baseline vs OrdPush.
type Fig14Result struct {
	Workload string
	Grids    []Fig14Grid
}

// Fig14 maps per-link loads on cachebw under the baseline and OrdPush.
func Fig14(o ExpOptions) (*Fig14Result, error) {
	o = o.withDefaults()
	base, err := o.baseConfig()
	if err != nil {
		return nil, err
	}
	out := &Fig14Result{Workload: "cachebw"}
	for _, s := range []Scheme{Baseline(), OrdPush()} {
		cfg := base.WithScheme(s)
		res, err := RunWorkload(cfg, workload.CacheBW(), o.Scale)
		if err != nil {
			return nil, err
		}
		g := Fig14Grid{Scheme: s.Name, W: cfg.MeshW, H: cfg.MeshH}
		nodes := cfg.Tiles()
		g.Load = make([][]float64, nodes)
		for n := 0; n < nodes; n++ {
			g.Load[n] = make([]float64, 4)
			for p := 0; p < 4; p++ {
				flits := res.Stats.Net.LinkFlits[noc.LinkIndex(noc.NodeID(n), p)]
				g.Total += flits
				load := float64(flits) / float64(res.Cycles)
				g.Load[n][p] = load
				if load > g.MaxLoad {
					g.MaxLoad = load
					x, y := cfg.NoC.XY(noc.NodeID(n))
					g.MaxLink = fmt.Sprintf("(%d,%d)->%s", x, y, noc.PortName(p))
				}
			}
		}
		out.Grids = append(out.Grids, g)
	}
	return out, nil
}

// String renders both load maps with one row per mesh row (eastbound load
// shown per tile; the hotspot annotated).
func (f *Fig14Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14: average link loads, %s (flits/cycle)\n", f.Workload)
	b.WriteString(strings.Repeat("-", 48) + "\n")
	for _, g := range f.Grids {
		fmt.Fprintf(&b, "%s: total link flits %d, hotspot %s at %.3f\n",
			g.Scheme, g.Total, g.MaxLink, g.MaxLoad)
		fmt.Fprintf(&b, "  eastbound loads by tile (rows top to bottom):\n")
		for y := 0; y < g.H; y++ {
			b.WriteString("    ")
			for x := 0; x < g.W; x++ {
				n := y*g.W + x
				fmt.Fprintf(&b, "%5.2f ", g.Load[n][noc.PortEast])
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "  southbound loads by tile:\n")
		for y := 0; y < g.H; y++ {
			b.WriteString("    ")
			for x := 0; x < g.W; x++ {
				n := y*g.W + x
				fmt.Fprintf(&b, "%5.2f ", g.Load[n][noc.PortSouth])
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("note: OrdPush should cut total load while YX replication shifts hotspots toward edge columns\n")
	return b.String()
}

// Fig15Row is one (scheme, workload)'s private-L2 injection/ejection flits
// normalized to the baseline.
type Fig15Row struct {
	Scheme, Workload string
	// Injected/Ejected are normalized totals; the class maps break the
	// injected side down.
	Injected, Ejected float64
	InjReadReq        float64
	InjPushAck        float64
	InjWriteBack      float64
	InjOther          float64
}

// Fig15Result reproduces Fig 15 (L2 bandwidth).
type Fig15Result struct{ Rows []Fig15Row }

// Fig16Result reproduces Fig 16 (LLC bandwidth); same row shape with LLC
// counters.
type Fig16Result struct{ Rows []Fig15Row }

func endpointFlits(st *Stats, unit stats.Unit) (inj, ej uint64) {
	for c := stats.Class(0); c < stats.NumClasses; c++ {
		inj += st.Net.InjectedFlits[unit][c]
		ej += st.Net.EjectedFlits[unit][c]
	}
	return
}

func bandwidthRows(o ExpOptions, unit stats.Unit) ([]Fig15Row, error) {
	schemes := []Scheme{Baseline(), PushAck(), OrdPush()}
	res, wls, err := matrix(context.Background(), o, schemes, workload.NonParsec(), nil)
	if err != nil {
		return nil, err
	}
	var rows []Fig15Row
	for _, s := range schemes[1:] {
		for _, wl := range wls {
			base := res[runKey{Baseline().Name, wl.Name}]
			bInj, bEj := endpointFlits(base.Stats, unit)
			if bInj == 0 {
				bInj = 1
			}
			if bEj == 0 {
				bEj = 1
			}
			r := res[runKey{s.Name, wl.Name}]
			inj, ej := endpointFlits(r.Stats, unit)
			rows = append(rows, Fig15Row{
				Scheme: s.Name, Workload: wl.Name,
				Injected:     float64(inj) / float64(bInj),
				Ejected:      float64(ej) / float64(bEj),
				InjReadReq:   float64(r.Stats.Net.InjectedFlits[unit][stats.ClassReadRequest]) / float64(bInj),
				InjPushAck:   float64(r.Stats.Net.InjectedFlits[unit][stats.ClassPushAck]) / float64(bInj),
				InjWriteBack: float64(r.Stats.Net.InjectedFlits[unit][stats.ClassWriteBackData]) / float64(bInj),
				InjOther:     float64(r.Stats.Net.InjectedFlits[unit][stats.ClassOther]) / float64(bInj),
			})
		}
	}
	return rows, nil
}

// Fig15 measures private-L2 injection/ejection bandwidth normalized to the
// baseline for PushAck and OrdPush.
func Fig15(o ExpOptions) (*Fig15Result, error) {
	o = o.withDefaults()
	rows, err := bandwidthRows(o, stats.UnitL2)
	if err != nil {
		return nil, err
	}
	return &Fig15Result{Rows: rows}, nil
}

// Fig16 measures LLC injection/ejection bandwidth normalized to the
// baseline for PushAck and OrdPush.
func Fig16(o ExpOptions) (*Fig16Result, error) {
	o = o.withDefaults()
	rows, err := bandwidthRows(o, stats.UnitLLC)
	if err != nil {
		return nil, err
	}
	return &Fig16Result{Rows: rows}, nil
}

func renderBandwidth(title string, rows []Fig15Row) string {
	t := newTable(title,
		"Scheme", "Workload", "Inj total", "Ej total", "Inj ReadReq", "Inj PushAck", "Inj WB", "Inj Other")
	for _, r := range rows {
		t.addRow(r.Scheme, r.Workload, f2(r.Injected), f2(r.Ejected),
			f2(r.InjReadReq), f2(r.InjPushAck), f2(r.InjWriteBack), f2(r.InjOther))
	}
	return t.String()
}

// String renders the figure as a table.
func (f *Fig15Result) String() string {
	return renderBandwidth("Fig 15: private L2 traffic normalized to baseline", f.Rows)
}

// String renders the figure as a table.
func (f *Fig16Result) String() string {
	return renderBandwidth("Fig 16: LLC traffic normalized to baseline", f.Rows)
}
