package pushmulticast

// One sub-benchmark per reproduced table/figure. Each regenerates its
// experiment at tiny scale per iteration and reports the figure's headline
// quantity as a custom metric, so `go test -bench=. -benchmem` doubles as a
// smoke regeneration of the whole evaluation. Quick-scale (paper-shaped)
// numbers come from `go run ./cmd/experiments`; speed numbers come from
// `go run ./benchmark` and nowhere else.

import (
	"context"
	"testing"
)

func benchOpts(wls ...string) ExpOptions {
	return ExpOptions{Scale: ScaleTiny, Cores: 16, Workloads: wls}
}

// allocBudget is the recorded allocations of one cachebw/OrdPush/tiny run on
// the 16-core machine under the wake-driven kernel, build included (1,879
// while the L2's MSHR file was a map over a slab pool, 1,671 while each LLC
// slice kept its episodes, fetches and stalled packets in three maps).
const allocBudget = 1575

// TestAllocBudget is the tripwire for allocations creeping back into the hot
// path: the count is deterministic enough for a hard gate where wall-clock is
// not, so it is a test and the only speed-shaped thing `go test` decides.
func TestAllocBudget(t *testing.T) {
	cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
	got := int(testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg, "cachebw", ScaleTiny); err != nil {
			t.Fatal(err)
		}
	}))
	if limit := allocBudget + (allocBudget+19)/20; got > limit { // +5%, rounded up
		t.Fatalf("%d allocs/run exceeds budget %d by more than 5%% (limit %d); if the regression is intended, re-record allocBudget in bench_test.go", got, allocBudget, limit)
	}
}

// BenchmarkFigures regenerates every registry entry at tiny scale, one
// sub-benchmark per entry over a workload subset that keeps it quick, and
// reports the figure's headline quantity where the table has one.
func BenchmarkFigures(b *testing.B) {
	subset := map[string][]string{
		"2": {"cachebw", "mv", "swaptions"}, "3": {"cachebw", "pathfinder"},
		"11": {"cachebw", "mlp", "bfs"}, "12": {"cachebw", "backprop"}, "13": {"cachebw", "multilevel"},
		"15": {"cachebw"}, "16": {"cachebw"}, "18": {"cachebw"}, "19": {"cachebw"}, "20": {"cachebw", "bfs"},
	}
	headline := map[string]struct {
		metric, col string
		row         []string
	}{
		"2":   {"cachebw-L2MPKI", "L2 MPKI", []string{"cachebw"}},
		"3":   {"cachebw-readshared-x", "ReadShared", []string{"cachebw"}},
		"11":  {"ordpush-geomean-x", "OrdPush x", []string{"geomean"}},
		"13":  {"cachebw-ordpush-traffic-x", "Total", []string{"OrdPush", "cachebw"}},
		"15":  {"l2-inj-x", "Inj total", []string{"OrdPush"}},
		"16":  {"llc-inj-x", "Inj total", []string{"OrdPush"}},
		"17a": {"conv3d-tpc16-x", "Speedup x", []string{"conv3d", "16"}},
		"18":  {"cachebw-512bit-x", "512-bit", []string{"OrdPush", "cachebw"}},
		"19":  {"smallcache-x", "Speedup x", []string{"PushAck", "cachebw", "256KB/1MB"}},
		"20":  {"full-geomean-x", "Push+Multicast+Filter+Knob", []string{"geomean"}},
	}
	for _, f := range Figures() {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := f.Run(context.Background(), benchOpts(subset[f.Name]...))
				if err != nil {
					b.Fatal(err)
				}
				if h, ok := headline[f.Name]; ok {
					v, err := out.(*Table).Value(h.col, h.row...)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(v, h.metric)
				}
			}
		})
	}
}
