package pushmulticast

import (
	"context"

	"fmt"

	"pushmulticast/internal/workload"
)

// Fig20Row is one ablation measurement.
type Fig20Row struct {
	Workload string
	// Speedup maps ablation stage name -> speedup over the baseline.
	Speedup map[string]float64
}

// Fig20Result reproduces Fig 20 (the OrdPush feature ablation).
type Fig20Result struct {
	Cores  int
	Stages []string
	Rows   []Fig20Row
	// Geomean maps stage name -> geometric mean speedup.
	Geomean map[string]float64
}

// ablationStages is the Fig 20 lattice: features added one at a time.
func ablationStages() []Scheme {
	return []Scheme{
		AblationPush(),
		AblationPushMulticast(),
		AblationPushMulticastFilter(),
		AblationFull(),
	}
}

// Fig20 runs the OrdPush ablation (Push, +Multicast, +Filter, +Knob) against
// the baseline.
func Fig20(o ExpOptions) (*Fig20Result, error) {
	o = o.withDefaults()
	schemes := append([]Scheme{Baseline()}, ablationStages()...)
	res, wls, err := matrix(context.Background(), o, schemes, workload.NonParsec(), nil)
	if err != nil {
		return nil, err
	}
	out := &Fig20Result{Cores: o.Cores, Geomean: map[string]float64{}}
	for _, s := range ablationStages() {
		out.Stages = append(out.Stages, s.Name)
	}
	per := map[string][]float64{}
	for _, wl := range wls {
		base := res[runKey{Baseline().Name, wl.Name}]
		row := Fig20Row{Workload: wl.Name, Speedup: map[string]float64{}}
		for _, s := range ablationStages() {
			sp, err := speedup(base, res[runKey{s.Name, wl.Name}])
			if err != nil {
				return nil, err
			}
			row.Speedup[s.Name] = sp
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
	}
	return out, nil
}

// String renders the figure as a table.
func (f *Fig20Result) String() string {
	cols := append([]string{"Workload"}, f.Stages...)
	t := newTable(fmt.Sprintf("Fig 20: OrdPush ablation, speedup over baseline (%d cores)", f.Cores), cols...)
	for _, r := range f.Rows {
		cells := []string{r.Workload}
		for _, s := range f.Stages {
			cells = append(cells, f2(r.Speedup[s]))
		}
		t.addRow(cells...)
	}
	g := []string{"geomean"}
	for _, s := range f.Stages {
		g = append(g, f2(f.Geomean[s]))
	}
	t.addRow(g...)
	t.addNote("expected shape: Push alone can degrade under load; +Multicast helps moderate load; " +
		"+Filter delivers the high-load win; +Knob rescues irregular bfs")
	return t.String()
}
