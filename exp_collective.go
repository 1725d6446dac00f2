package pushmulticast

import (
	"fmt"
	"strings"
)

// collectiveVariants builds the collective figure's workload set: each
// collective at each fan-out, renamed so the variants stay apart in the
// figure's rows. prodcons trims its sharer set to the largest whole number
// of (1 producer + fanout consumers) groups the machine holds.
func collectiveVariants(cores int, fanouts []int) ([]Workload, error) {
	var out []Workload
	for _, f := range fanouts {
		for _, name := range []string{"allreduce", "broadcast", "reducescatter", "prodcons"} {
			p := CollectiveParams{Fanout: f}
			if name == "prodcons" {
				p.Sharers = cores / (f + 1) * (f + 1)
			}
			wl, err := CollectiveWorkload(name, p)
			if err != nil {
				return nil, err
			}
			wl.Name = fmt.Sprintf("%s[f=%d]", name, f)
			out = append(out, wl)
		}
	}
	return out, nil
}

// collectiveShape reads a variant's sharer count and fan-out back from its
// canonical parameter signature; 0 sharers means every core takes part.
func collectiveShape(c cell) (sharers, fanout int) {
	if _, err := fmt.Sscanf(c.wl.Params, "sharers=%d fanout=%d", &sharers, &fanout); err != nil {
		return 0, 0
	}
	if sharers == 0 {
		sharers = c.cores
	}
	return sharers, fanout
}

// figCollective is the collective-communication comparison: ring
// all-reduce, tree broadcast, ring reduce-scatter, and the producer-consumer
// pipeline at fan-outs 2 and 4, under the prefetching baseline and both push
// designs. The fan-out collectives (broadcast, prodcons) are the
// one-producer/many-consumer traffic push multicast targets — gradient
// broadcast and serving fan-out; the ring collectives bound the other end,
// where every buffer has exactly one reader and pushes have nothing to
// multicast. Pushes counts push transactions triggered at LLC slices.
var figCollective = Figure{
	Name:    "collective",
	title:   "Collective communication: Baseline vs PushAck vs OrdPush (%d cores)",
	schemes: []Scheme{Baseline(), PushAck(), OrdPush()},
	// The variants are the figure; a name filter cannot select among them.
	workloads: func(o ExpOptions) ([]Workload, error) { return collectiveVariants(o.Cores, []int{2, 4}) },
	rows:      []int{byWorkload, byScheme},
	cols: []column{
		workloadCol,
		{head: "Sharers", text: func(c cell) string { s, _ := collectiveShape(c); return fmt.Sprint(s) }},
		{head: "Fanout", text: func(c cell) string { _, f := collectiveShape(c); return fmt.Sprint(f) }},
		schemeCol,
		cyclesCol,
		{head: "Speedup", format: f2, val: speedup},
		counterCol("Flits", Results.TotalNoCFlits),
		{head: "Traffic saved", format: pct, val: func(ref, r Results) (float64, error) {
			share, err := flitShare()(ref, r)
			return 1 - share, err
		}},
		counterCol("Pushes", pushesTriggered),
	},
	note: func(t *Table) (string, error) {
		var parts []string
		for _, s := range []Scheme{Baseline(), PushAck(), OrdPush()} {
			var speedups []float64
			for _, row := range t.Rows {
				if row[3].Text == s.Name {
					speedups = append(speedups, row[5].Value)
				}
			}
			g, err := geomean(speedups)
			if err != nil {
				return "", err
			}
			parts = append(parts, fmt.Sprintf("%s %.2f", s.Name, g))
		}
		return "geomean speedup vs baseline: " + strings.Join(parts, ", "), nil
	},
	notes: []string{
		"rings (allreduce/reducescatter) are unicast by construction: one reader per buffer, 0 pushes is the honest result",
		"fan-out collectives (broadcast/prodcons) are the push sweet spot: traffic drops with sharer re-reads; cycle wins grow with fan-out",
	},
}

func pushesTriggered(r Results) uint64 { return r.Stats.Cache.PushesTriggered }
