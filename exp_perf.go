package pushmulticast

import (
	"pushmulticast/internal/stats"
	"pushmulticast/internal/workload"
)

// perfSchemes is the Fig 11 comparison set (baseline separately).
var perfSchemes = []Scheme{Coalesce(), MSP(), PushAck(), OrdPush()}

// pivotSchemes is one speedup column per scheme, headed by the scheme's name
// plus suffix.
func pivotSchemes(schemes []Scheme, suffix string) []column {
	var cols []column
	for _, s := range schemes {
		cols = append(cols, speedupCol.of(s, s.Name+suffix))
	}
	return cols
}

func l2MPKI(_, r Results) (float64, error) { return r.L2MPKI(), nil }

// fig11 measures execution-time speedup and L2 MPKI for
// Coalesce/MSP/PushAck/OrdPush against L1Bingo-L2Stride.
var fig11 = Figure{
	Name:    "11",
	title:   "Fig 11: speedup over L1Bingo-L2Stride (%d cores)",
	schemes: perfSchemes,
	workloads: func(o ExpOptions) ([]Workload, error) {
		def := Workloads()
		if o.Cores == 64 {
			// The paper's 64-core figure uses the non-PARSEC set plus PARSEC;
			// we default to the non-PARSEC set to bound runtime.
			def = workload.NonParsec()
		}
		return o.pickWorkloads(def)
	},
	rows: []int{byWorkload},
	cols: append(append([]column{workloadCol},
		pivotSchemes(perfSchemes, " x")...),
		column{head: "MPKI(base)", format: f1, scheme: OrdPush().Name,
			val: func(ref, _ Results) (float64, error) { return ref.L2MPKI(), nil }},
		column{head: "MPKI(OrdPush)", format: f1, scheme: OrdPush().Name, val: l2MPKI}),
	summary: []string{"geomean", "max"},
}

// pushOutcome is the share of received pushes that ended as outcome oc.
func pushOutcome(oc stats.PushOutcome) func(_, r Results) (float64, error) {
	return func(_, r Results) (float64, error) {
		total := r.Stats.Cache.TotalPushes()
		if total == 0 {
			return 0, nil
		}
		return float64(r.Stats.Cache.PushOutcomes[oc]) / float64(total), nil
	}
}

// fig12 categorizes push usage at private caches for MSP, PushAck, and
// OrdPush (push accuracy), in percent of received pushes.
var fig12 = Figure{
	Name:    "12",
	title:   "Fig 12: push usage breakdown at private caches",
	schemes: []Scheme{MSP(), PushAck(), OrdPush()},
	ref:     refItself,
	cols: []column{
		schemeCol, workloadCol,
		{head: "DeadlockDrop", format: pct, val: pushOutcome(stats.PushDeadlockDrop)},
		{head: "RedundDrop", format: pct, val: pushOutcome(stats.PushRedundancyDrop)},
		{head: "CohDrop", format: pct, val: pushOutcome(stats.PushCoherenceDrop)},
		{head: "Unused", format: pct, val: pushOutcome(stats.PushUnused)},
		{head: "MissToHit", format: pct, val: pushOutcome(stats.PushMissToHit)},
		{head: "EarlyResp", format: pct, val: pushOutcome(stats.PushEarlyResp)},
		counterCol("Pushes", func(r Results) uint64 { return r.Stats.Cache.TotalPushes() }),
	},
}

// fig13 measures per-category NoC traffic for MSP, PushAck, and OrdPush,
// each normalized to L1Bingo-L2Stride's total traffic.
var fig13 = Figure{
	Name:    "13",
	title:   "Fig 13: NoC traffic breakdown normalized to baseline",
	schemes: []Scheme{MSP(), PushAck(), OrdPush()},
	cols: []column{
		schemeCol, workloadCol,
		{head: "ReadShared", format: f2, val: flitShare(stats.ClassReadSharedData, stats.ClassPushData)},
		{head: "PushAck", format: f2, val: flitShare(stats.ClassPushAck)},
		{head: "ReadReq", format: f2, val: flitShare(stats.ClassReadRequest)},
		{head: "Exclusive", format: f2, val: flitShare(stats.ClassExclusiveData)},
		{head: "WriteBack", format: f2, val: flitShare(stats.ClassWriteBackData)},
		{head: "Others", format: f2, val: flitShare(stats.ClassOther)},
		{head: "Total", format: f2, val: flitShare()},
	},
	note: func(t *Table) (string, error) {
		return "average OrdPush traffic saving: " + pct(ordPushSaving(t)) + " (paper: 33% at 16 cores, 43% at 64)", nil
	},
}

// ordPushSaving is Fig 13's headline (the paper's 33%/43%): OrdPush's mean
// total-traffic saving across the table's workloads.
func ordPushSaving(fig13 *Table) float64 {
	var saving, n float64
	for _, row := range fig13.Rows {
		if row[0].Text == OrdPush().Name {
			saving += 1 - row[len(row)-1].Value
			n++
		}
	}
	return saving / n
}
