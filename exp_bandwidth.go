package pushmulticast

import (
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

// fig14 maps per-link loads on cachebw under the baseline and OrdPush; the
// two runs are Fig 11's, so after it they are memo hits.
var fig14 = Figure{
	Name:      "14",
	schemes:   []Scheme{Baseline(), OrdPush()},
	workloads: func(ExpOptions) ([]Workload, error) { return []Workload{workload.CacheBW()}, nil },
	reduce: func(o ExpOptions, grid map[string]Results) (fmt.Stringer, error) {
		cfg, err := o.baseConfig()
		if err != nil {
			return nil, err
		}
		wl := workload.CacheBW()
		out := &Fig14Result{Workload: wl.Name}
		for _, s := range []Scheme{Baseline(), OrdPush()} {
			res := grid[cell{scheme: s.Name, wl: wl}.key()]
			g := Fig14Grid{Scheme: s.Name, W: cfg.NoC.Width, H: cfg.NoC.Height}
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
	},
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
		for _, dir := range []struct {
			title string
			port  int
		}{{"eastbound loads by tile (rows top to bottom)", noc.PortEast}, {"southbound loads by tile", noc.PortSouth}} {
			fmt.Fprintf(&b, "  %s:\n", dir.title)
			for y := 0; y < g.H; y++ {
				b.WriteString("    ")
				for x := 0; x < g.W; x++ {
					fmt.Fprintf(&b, "%5.2f ", g.Load[y*g.W+x][dir.port])
				}
				b.WriteString("\n")
			}
		}
	}
	b.WriteString("note: OrdPush should cut total load while YX replication shifts hotspots toward edge columns\n")
	return b.String()
}

// bandwidthFigure measures one endpoint unit's injection/ejection flits for
// PushAck and OrdPush, normalized to the baseline's totals at that unit
// (Fig 15 at the private L2s, Fig 16 at the LLC slices); the class columns
// break the injected side down.
func bandwidthFigure(name, title string, unit stats.Unit) Figure {
	share := func(side func(*Stats) *[stats.NumUnits][stats.NumClasses]uint64, classes ...stats.Class) func(ref, r Results) (float64, error) {
		return func(ref, r Results) (float64, error) {
			return float64(unitFlits(side(r.Stats), unit, classes...)) / float64(max(1, unitFlits(side(ref.Stats), unit))), nil
		}
	}
	inj := func(s *Stats) *[stats.NumUnits][stats.NumClasses]uint64 { return &s.Net.InjectedFlits }
	ej := func(s *Stats) *[stats.NumUnits][stats.NumClasses]uint64 { return &s.Net.EjectedFlits }
	return Figure{
		Name:    name,
		title:   title,
		schemes: []Scheme{PushAck(), OrdPush()},
		cols: []column{
			schemeCol, workloadCol,
			{head: "Inj total", format: f2, val: share(inj)},
			{head: "Ej total", format: f2, val: share(ej)},
			{head: "Inj ReadReq", format: f2, val: share(inj, stats.ClassReadRequest)},
			{head: "Inj PushAck", format: f2, val: share(inj, stats.ClassPushAck)},
			{head: "Inj WB", format: f2, val: share(inj, stats.ClassWriteBackData)},
			{head: "Inj Other", format: f2, val: share(inj, stats.ClassOther)},
		},
	}
}

var (
	fig15 = bandwidthFigure("15", "Fig 15: private L2 traffic normalized to baseline", stats.UnitL2)
	fig16 = bandwidthFigure("16", "Fig 16: LLC traffic normalized to baseline", stats.UnitLLC)
)
