package pushmulticast

// ablationStages is the Fig 20 lattice: features added one at a time.
var ablationStages = []Scheme{
	AblationPush(),
	AblationPushMulticast(),
	AblationPushMulticastFilter(),
	AblationFull(),
}

// fig20 runs the OrdPush ablation (Push, +Multicast, +Filter, +Knob) against
// the baseline.
var fig20 = Figure{
	Name:    "20",
	title:   "Fig 20: OrdPush ablation, speedup over baseline (%d cores)",
	schemes: ablationStages,
	rows:    []int{byWorkload},
	cols:    append([]column{workloadCol}, pivotSchemes(ablationStages, "")...),
	summary: []string{"geomean"},
	notes: []string{"expected shape: Push alone can degrade under load; +Multicast helps moderate load; " +
		"+Filter delivers the high-load win; +Knob rescues irregular bfs"},
}
