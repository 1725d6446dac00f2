package pushmulticast

import (
	"context"

	"fmt"

	"pushmulticast/internal/workload"
)

// Fig17Row is one knob-sensitivity measurement.
type Fig17Row struct {
	Workload string
	// Param is the swept value (TPC threshold for 17a, time window for 17b).
	Param int
	// Speedup is relative to the L1Bingo-L2Stride baseline.
	Speedup float64
}

// Fig17Result reproduces Fig 17 (dynamic knob sensitivity).
type Fig17Result struct {
	// Axis names the swept parameter.
	Axis string
	Rows []Fig17Row
}

// fig17Workloads are the two knob-sensitive benchmarks the paper sweeps.
func fig17Workloads() []Workload {
	return []Workload{workload.Conv3D(), workload.BFS()}
}

// Fig17a sweeps the TPC threshold (with a long time window) over conv3d and
// bfs under OrdPush.
func Fig17a(o ExpOptions) (*Fig17Result, error) {
	return fig17(o, "TPC threshold", []int{16, 64, 256, 1024},
		func(cfg Config, v int) Config {
			cfg.TPCThreshold = v
			cfg.TimeWindow = 2000
			return cfg
		})
}

// Fig17b sweeps the time window (with a low TPC threshold) over conv3d and
// bfs under OrdPush.
func Fig17b(o ExpOptions) (*Fig17Result, error) {
	return fig17(o, "time window", []int{300, 500, 1000, 1500, 2000, 2500},
		func(cfg Config, v int) Config {
			cfg.TPCThreshold = 16
			cfg.TimeWindow = v
			return cfg
		})
}

func fig17(o ExpOptions, axis string, sweep []int, apply func(Config, int) Config) (*Fig17Result, error) {
	o = o.withDefaults()
	out := &Fig17Result{Axis: axis}
	// Baselines per workload.
	base, wls, err := matrix(context.Background(), o, []Scheme{Baseline()}, fig17Workloads(), nil)
	if err != nil {
		return nil, err
	}
	for _, v := range sweep {
		v := v
		schemes := []Scheme{OrdPush()}
		res, _, err := matrix(context.Background(), o, schemes, fig17Workloads(), func(cfg *Config) { *cfg = apply(*cfg, v) })
		if err != nil {
			return nil, err
		}
		for _, wl := range wls {
			b := base[runKey{Baseline().Name, wl.Name}]
			r := res[runKey{OrdPush().Name, wl.Name}]
			sp, err := speedup(b, r)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, Fig17Row{Workload: wl.Name, Param: v, Speedup: sp})
		}
	}
	return out, nil
}

// String renders the figure as a table.
func (f *Fig17Result) String() string {
	t := newTable("Fig 17: knob sensitivity ("+f.Axis+"), OrdPush vs baseline",
		"Workload", f.Axis, "Speedup x")
	for _, r := range f.Rows {
		t.addRow(r.Workload, fmt.Sprint(r.Param), f2(r.Speedup))
	}
	return t.String()
}

// Fig18Row is one link-width sensitivity measurement.
type Fig18Row struct {
	Scheme, Workload string
	LinkBits         int
	Speedup          float64
}

// Fig18Result reproduces Fig 18 (NoC bandwidth sensitivity).
type Fig18Result struct{ Rows []Fig18Row }

// Fig18 sweeps link width for PushAck and OrdPush, each normalized to the
// baseline at the same width.
func Fig18(o ExpOptions) (*Fig18Result, error) {
	o = o.withDefaults()
	out := &Fig18Result{}
	for _, width := range []int{64, 128, 256, 512} {
		width := width
		schemes := []Scheme{Baseline(), PushAck(), OrdPush()}
		res, wls, err := matrix(context.Background(), o, schemes, workload.NonParsec(), func(cfg *Config) { cfg.NoC.LinkWidthBits = width })
		if err != nil {
			return nil, err
		}
		for _, s := range schemes[1:] {
			for _, wl := range wls {
				b := res[runKey{Baseline().Name, wl.Name}]
				r := res[runKey{s.Name, wl.Name}]
				sp, err := speedup(b, r)
				if err != nil {
					return nil, err
				}
				out.Rows = append(out.Rows, Fig18Row{
					Scheme: s.Name, Workload: wl.Name, LinkBits: width, Speedup: sp,
				})
			}
		}
	}
	return out, nil
}

// String renders the figure as a table.
func (f *Fig18Result) String() string {
	t := newTable("Fig 18: speedup vs baseline across link widths",
		"Scheme", "Workload", "64-bit", "128-bit", "256-bit", "512-bit")
	type key struct{ s, w string }
	cells := map[key]map[int]float64{}
	var order []key
	for _, r := range f.Rows {
		k := key{r.Scheme, r.Workload}
		if cells[k] == nil {
			cells[k] = map[int]float64{}
			order = append(order, k)
		}
		cells[k][r.LinkBits] = r.Speedup
	}
	for _, k := range order {
		t.addRow(k.s, k.w, f2(cells[k][64]), f2(cells[k][128]), f2(cells[k][256]), f2(cells[k][512]))
	}
	return t.String()
}

// Fig19Row is one cache-size sensitivity measurement.
type Fig19Row struct {
	Scheme, Workload string
	// CacheCfg names the L2/LLC-slice sizing point.
	CacheCfg string
	Speedup  float64
}

// Fig19Result reproduces Fig 19 (cache configuration sensitivity).
type Fig19Result struct{ Rows []Fig19Row }

// fig19Points returns the three L2/LLC sizing points, as multiples of the
// base configuration (256KB/1MB, 512KB/1MB, 1MB/2MB per tile in the paper).
func fig19Points(base Config) []struct {
	name      string
	l2, slice int
} {
	return []struct {
		name      string
		l2, slice int
	}{
		{"256KB/1MB", base.L2Size, base.LLCSliceSize},
		{"512KB/1MB", base.L2Size * 2, base.LLCSliceSize},
		{"1MB/2MB", base.L2Size * 4, base.LLCSliceSize * 2},
	}
}

// Fig19 sweeps private/shared cache capacity for PushAck and OrdPush.
func Fig19(o ExpOptions) (*Fig19Result, error) {
	o = o.withDefaults()
	base, err := o.baseConfig()
	if err != nil {
		return nil, err
	}
	out := &Fig19Result{}
	for _, pt := range fig19Points(base) {
		pt := pt
		schemes := []Scheme{Baseline(), PushAck(), OrdPush()}
		res, wls, err := matrix(context.Background(), o, schemes, workload.NonParsec(), func(cfg *Config) {
			cfg.L2Size, cfg.LLCSliceSize = pt.l2, pt.slice
		})
		if err != nil {
			return nil, err
		}
		for _, s := range schemes[1:] {
			for _, wl := range wls {
				b := res[runKey{Baseline().Name, wl.Name}]
				r := res[runKey{s.Name, wl.Name}]
				sp, err := speedup(b, r)
				if err != nil {
					return nil, err
				}
				out.Rows = append(out.Rows, Fig19Row{
					Scheme: s.Name, Workload: wl.Name, CacheCfg: pt.name, Speedup: sp,
				})
			}
		}
	}
	return out, nil
}

// String renders the figure as a table.
func (f *Fig19Result) String() string {
	t := newTable("Fig 19: speedup vs baseline across L2/LLC sizes",
		"Scheme", "Workload", "Cache cfg", "Speedup x")
	for _, r := range f.Rows {
		t.addRow(r.Scheme, r.Workload, r.CacheCfg, f2(r.Speedup))
	}
	t.addNote("cache points are scaled equivalents of the paper's 256KB/1MB, 512KB/1MB, 1MB/2MB per tile")
	return t.String()
}
