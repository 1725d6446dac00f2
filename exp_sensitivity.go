package pushmulticast

import (
	"fmt"
	"strconv"

	"pushmulticast/internal/workload"
)

// sweep builds one point per value of a swept knob, labelled by label(value)
// and edited by set.
func sweep[V any](values []V, label func(V) string, set func(*Config, V)) []point {
	var pts []point
	for _, v := range values {
		pts = append(pts, point{label: label(v), edit: func(cfg *Config) { set(cfg, v) }})
	}
	return pts
}

// knobFigure is one half of Fig 17 (dynamic knob sensitivity): OrdPush on
// the two knob-sensitive benchmarks the paper sweeps, across points of one
// knob parameter, against the un-edited baseline.
func knobFigure(name, axis string, values []int, set func(*Config, int)) Figure {
	return Figure{
		Name:      name,
		title:     "Fig 17: knob sensitivity (" + axis + "), OrdPush vs baseline",
		schemes:   []Scheme{OrdPush()},
		workloads: defaultWorkloads(func() []Workload { return []Workload{workload.Conv3D(), workload.BFS()} }),
		points:    sweep(values, strconv.Itoa, set),
		ref:       refPlain,
		rows:      []int{byPoint, byWorkload},
		cols:      []column{workloadCol, pointCol(axis), speedupCol},
	}
}

var (
	// fig17a sweeps the TPC threshold (with a long time window).
	fig17a = knobFigure("17a", "TPC threshold", []int{16, 64, 256, 1024}, func(cfg *Config, v int) {
		cfg.TPCThreshold, cfg.TimeWindow = v, 2000
	})
	// fig17b sweeps the time window (with a low TPC threshold).
	fig17b = knobFigure("17b", "time window", []int{300, 500, 1000, 1500, 2000, 2500}, func(cfg *Config, v int) {
		cfg.TPCThreshold, cfg.TimeWindow = 16, v
	})
)

// linkWidths is Fig 18's swept NoC bandwidth.
var linkWidths = sweep([]int{64, 128, 256, 512}, func(v int) string { return fmt.Sprintf("%d-bit", v) },
	func(cfg *Config, v int) { cfg.NoC.LinkWidthBits = v })

// pivotPoints is one speedup column per sweep point, headed by its label.
func pivotPoints(points []point) []column {
	var cols []column
	for _, pt := range points {
		col := speedupCol
		col.head, col.point = pt.label, pt.label
		cols = append(cols, col)
	}
	return cols
}

// fig18 sweeps link width for PushAck and OrdPush, each normalized to the
// baseline at the same width.
var fig18 = Figure{
	Name:    "18",
	title:   "Fig 18: speedup vs baseline across link widths",
	schemes: []Scheme{PushAck(), OrdPush()},
	points:  linkWidths,
	cols:    append([]column{schemeCol, workloadCol}, pivotPoints(linkWidths)...),
}

// fig19 sweeps private/shared cache capacity for PushAck and OrdPush: three
// L2/LLC-slice sizing points, as multiples of the base configuration
// (256KB/1MB, 512KB/1MB, 1MB/2MB per tile in the paper).
var fig19 = Figure{
	Name:    "19",
	title:   "Fig 19: speedup vs baseline across L2/LLC sizes",
	schemes: []Scheme{PushAck(), OrdPush()},
	points: []point{
		{label: "256KB/1MB"},
		{label: "512KB/1MB", edit: func(cfg *Config) { cfg.L2Size *= 2 }},
		{label: "1MB/2MB", edit: func(cfg *Config) { cfg.L2Size *= 4; cfg.LLCSliceSize *= 2 }},
	},
	rows:  []int{byPoint, byScheme, byWorkload},
	cols:  []column{schemeCol, workloadCol, pointCol("Cache cfg"), speedupCol},
	notes: []string{"cache points are scaled equivalents of the paper's 256KB/1MB, 512KB/1MB, 1MB/2MB per tile"},
}
