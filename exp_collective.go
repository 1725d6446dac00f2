package pushmulticast

import (
	"context"

	"fmt"
	"strings"
)

// ExpCollectiveRow is one (collective variant, scheme) cell of the
// collective-communication comparison: cycles, speedup against the same
// variant under the baseline, total link traffic, the traffic saved against
// the baseline, and the push activity behind both.
type ExpCollectiveRow struct {
	Workload string // display name, e.g. "broadcast[f=4]"
	Params   string // canonical parameter signature
	Sharers  int
	Fanout   int
	Scheme   string
	Cycles   uint64
	// Speedup is baseline-cycles / this-scheme-cycles for the same variant
	// (1.0 for the baseline rows themselves).
	Speedup float64
	// Flits is total link-level flit traversals; TrafficSaved is the
	// fraction of the baseline's flits this scheme avoided (negative =
	// added traffic).
	Flits        uint64
	TrafficSaved float64
	// Pushes counts push transactions triggered at LLC slices (0 under the
	// baseline, and honestly 0 for the unicast ring collectives).
	Pushes uint64
}

// ExpCollectiveResult is the collective-communication figure: every
// collective at two fan-outs under Baseline, PushAck, and OrdPush.
type ExpCollectiveResult struct {
	Cores int
	Rows  []ExpCollectiveRow
	// Geomean[scheme] is the geometric-mean speedup across all variants.
	Geomean map[string]float64
}

// collectiveVariant is one parameterized family member of the comparison.
type collectiveVariant struct {
	wl      Workload
	sharers int
	fanout  int
}

// collectiveVariants builds the figure's workload set: each collective at
// each fan-out, renamed so the run matrix (keyed by scheme and name) keeps
// the variants apart. prodcons trims its sharer set to the largest whole
// number of (1 producer + fanout consumers) groups the machine holds.
func collectiveVariants(cores int, fanouts []int) ([]collectiveVariant, error) {
	var out []collectiveVariant
	for _, f := range fanouts {
		for _, name := range []string{"allreduce", "broadcast", "reducescatter", "prodcons"} {
			p := CollectiveParams{Fanout: f}
			sharers := cores
			if name == "prodcons" {
				sharers = cores / (f + 1) * (f + 1)
				p.Sharers = sharers
			}
			wl, err := CollectiveWorkload(name, p)
			if err != nil {
				return nil, err
			}
			if err := wl.Validate(cores); err != nil {
				return nil, fmt.Errorf("collective variant %s[f=%d]: %w", name, f, err)
			}
			wl.Name = fmt.Sprintf("%s[f=%d]", name, f)
			out = append(out, collectiveVariant{wl: wl, sharers: sharers, fanout: f})
		}
	}
	return out, nil
}

// ExpCollective runs the collective-communication comparison: ring
// all-reduce, tree broadcast, ring reduce-scatter, and the producer-consumer
// pipeline at fan-outs 2 and 4, under the prefetching baseline and both push
// designs. The fan-out collectives (broadcast, prodcons) are the
// one-producer/many-consumer traffic push multicast targets — gradient
// broadcast and serving fan-out; the ring collectives bound the other end,
// where every buffer has exactly one reader and pushes have nothing to
// multicast.
func ExpCollective(o ExpOptions) (*ExpCollectiveResult, error) {
	o = o.withDefaults()
	variants, err := collectiveVariants(o.Cores, []int{2, 4})
	if err != nil {
		return nil, err
	}
	wls := make([]Workload, len(variants))
	for i, v := range variants {
		wls[i] = v.wl
	}
	schemes := []Scheme{Baseline(), PushAck(), OrdPush()}
	o.Workloads = nil // the variants are the figure; a name filter cannot select among them
	res, _, err := matrix(context.Background(), o, schemes, wls, nil)
	if err != nil {
		return nil, err
	}
	out := &ExpCollectiveResult{Cores: o.Cores, Geomean: map[string]float64{}}
	perScheme := map[string][]float64{}
	for _, v := range variants {
		base := res[runKey{Baseline().Name, v.wl.Name}]
		for _, s := range schemes {
			r := res[runKey{s.Name, v.wl.Name}]
			sp, err := speedup(base, r)
			if err != nil {
				return nil, err
			}
			baseFlits := base.Stats.Net.TotalFlits()
			flits := r.Stats.Net.TotalFlits()
			saved := 0.0
			if baseFlits > 0 {
				saved = 1 - float64(flits)/float64(baseFlits)
			}
			out.Rows = append(out.Rows, ExpCollectiveRow{
				Workload: v.wl.Name, Params: v.wl.Params,
				Sharers: v.sharers, Fanout: v.fanout, Scheme: s.Name,
				Cycles: r.Cycles, Speedup: sp,
				Flits: flits, TrafficSaved: saved,
				Pushes: r.Stats.Cache.PushesTriggered,
			})
			perScheme[s.Name] = append(perScheme[s.Name], sp)
		}
	}
	for name, sps := range perScheme {
		g, err := geomean(sps)
		if err != nil {
			return nil, err
		}
		out.Geomean[name] = g
	}
	return out, nil
}

// String renders the comparison as a table with per-scheme geomean speedups.
func (f *ExpCollectiveResult) String() string {
	t := newTable(
		fmt.Sprintf("Collective communication: Baseline vs PushAck vs OrdPush (%d cores)", f.Cores),
		"Workload", "Sharers", "Fanout", "Scheme", "Cycles", "Speedup", "Flits", "Traffic saved", "Pushes")
	for _, r := range f.Rows {
		t.addRow(r.Workload, fmt.Sprint(r.Sharers), fmt.Sprint(r.Fanout), r.Scheme,
			fmt.Sprint(r.Cycles), f2(r.Speedup), fmt.Sprint(r.Flits), pct(r.TrafficSaved),
			fmt.Sprint(r.Pushes))
	}
	var gm []string
	seen := map[string]bool{}
	for _, r := range f.Rows {
		if v, ok := f.Geomean[r.Scheme]; ok && !seen[r.Scheme] {
			seen[r.Scheme] = true
			gm = append(gm, fmt.Sprintf("%s %.2f", r.Scheme, v))
		}
	}
	t.addNote("geomean speedup vs baseline: %s", strings.Join(gm, ", "))
	t.addNote("rings (allreduce/reducescatter) are unicast by construction: one reader per buffer, 0 pushes is the honest result")
	t.addNote("fan-out collectives (broadcast/prodcons) are the push sweet spot: traffic drops with sharer re-reads; cycle wins grow with fan-out")
	return t.String()
}
