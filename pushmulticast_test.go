package pushmulticast

import (
	"context"
	"math"
	"strings"
	"testing"
)

// tinyOpts keeps experiment tests fast: tiny inputs, few workloads.
func tinyOpts(wls ...string) ExpOptions {
	return ExpOptions{Scale: ScaleTiny, Cores: 16, Workloads: wls}
}

func TestRunByName(t *testing.T) {
	cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
	res, err := Run(cfg, "cachebw", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "cachebw" || res.Scheme != "OrdPush" || res.Cycles == 0 {
		t.Fatalf("bad results: %+v", res)
	}
	if _, err := Run(cfg, "doesnotexist", ScaleTiny); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{2, 8})
	if err != nil || math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v, %v", g, err)
	}
	// Poisoned inputs are errors, not silent zeros: an empty slice, a zero
	// from a broken run, and non-finite ratios all must refuse.
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {2, math.NaN()}, {2, math.Inf(1)}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) accepted poisoned input", bad)
		}
	}
}

func TestSpeedupGuards(t *testing.T) {
	ok := Results{Scheme: "OrdPush", Workload: "cachebw", Cycles: 500}
	base := Results{Scheme: "Baseline", Workload: "cachebw", Cycles: 1000}
	sp, err := speedup(base, ok)
	if err != nil || math.Abs(sp-2) > 1e-12 {
		t.Errorf("speedup = %v, %v; want 2", sp, err)
	}
	if _, err := speedup(Results{Scheme: "Baseline"}, ok); err == nil {
		t.Error("zero baseline cycles accepted")
	}
	if _, err := speedup(base, Results{Scheme: "OrdPush"}); err == nil {
		t.Error("zero scheme cycles accepted")
	}
}

func TestQuantile(t *testing.T) {
	s := sortU64([]uint64{5, 1, 9, 3, 7})
	if Quantile(s, 0) != 1 || Quantile(s, 1) != 9 || Quantile(s, 0.5) != 5 {
		t.Errorf("quantiles wrong: %v", s)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	// Off-rank quantiles interpolate linearly instead of truncating down.
	if got := Quantile([]uint64{1, 3, 5, 9}, 0.5); got != 4 {
		t.Errorf("median of {1,3,5,9} = %d, want interpolated 4", got)
	}
	if got := Quantile([]uint64{1, 3, 5, 7, 9}, 0.99); got != 9 {
		t.Errorf("P99 of {1..9} = %d, want 9 (rounded from 8.92)", got)
	}
	if got := Quantile([]uint64{10, 20}, 0.75); got != 18 {
		t.Errorf("P75 of {10,20} = %d, want 18", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("Title", "A", "B")
	tb.addRow("x", "1")
	tb.addNote("hello %d", 7)
	s := tb.String()
	for _, want := range []string{"Title", "A", "B", "x", "1", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

// tinyFigure runs one registry entry at tiny scale on 16 cores over the
// named workloads (none = the figure's default set).
func tinyFigure(t *testing.T, name string, wls ...string) *Table {
	t.Helper()
	tb, err := RunFigure(context.Background(), name, tinyOpts(wls...))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// cellValue reads one number of a table by column header and row labels.
func cellValue(t *testing.T, tb *Table, col string, labels ...string) float64 {
	t.Helper()
	v, err := tb.Value(col, labels...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestTables(t *testing.T) {
	t1 := tinyFigure(t, "t1").String()
	if !strings.Contains(t1, "4x4 tiles") || !strings.Contains(t1, "TPC threshold") {
		t.Errorf("Table I incomplete:\n%s", t1)
	}
	t2 := tinyFigure(t, "t2").String()
	for _, wl := range []string{"cachebw", "bfs", "swaptions"} {
		if !strings.Contains(t2, wl) {
			t.Errorf("Table II missing %s", wl)
		}
	}
}

func TestFig2And3Tiny(t *testing.T) {
	f2r := tinyFigure(t, "2", "cachebw", "swaptions")
	if len(f2r.Rows) != 2 {
		t.Fatalf("Fig2 rows = %d", len(f2r.Rows))
	}
	// High-load cachebw must dominate low-load swaptions on both axes.
	for _, col := range []string{"L2 MPKI", "Inj load (flits/cycle/tile)"} {
		if hi, lo := cellValue(t, f2r, col, "cachebw"), cellValue(t, f2r, col, "swaptions"); hi <= lo {
			t.Errorf("Fig2 shape wrong: %s cachebw %v <= swaptions %v", col, hi, lo)
		}
	}
	f3r := tinyFigure(t, "3", "cachebw", "swaptions")
	if rs := cellValue(t, f3r, "ReadShared", "cachebw"); rs < 0.5 {
		t.Errorf("cachebw read-shared fraction = %v, want > 0.5", rs)
	}
	sum := 0.0
	for _, col := range f3r.Columns[1:] {
		sum += cellValue(t, f3r, col, "cachebw")
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cachebw fractions sum to %v", sum)
	}
	if rs := cellValue(t, f3r, "ReadShared", "swaptions"); rs > 0.2 {
		t.Errorf("swaptions read-shared fraction = %v, want tiny", rs)
	}
	if f2r.String() == "" || f3r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig4Tiny(t *testing.T) {
	f := tinyFigure(t, "4")
	if len(f.Rows) == 0 {
		t.Fatal("no sharer gap samples recorded")
	}
	// The all-pairs median is reported in the note; no pair recorded at tiny
	// scale sits on a zero median, so a zero there means nothing was sampled.
	if len(f.Notes) != 1 || !strings.Contains(f.Notes[0], "median gap") || strings.Contains(f.Notes[0], "pairs: 0 cycles") {
		t.Errorf("median-gap note missing or zero: %q", f.Notes)
	}
	for _, row := range f.Rows {
		if pair := row[0].Text; cellValue(t, f, "Median", pair) < cellValue(t, f, "Min", pair) || cellValue(t, f, "Median", pair) > cellValue(t, f, "Max", pair) {
			t.Errorf("pair %s: median outside [min, max]: %v", pair, row)
		}
	}
}

func TestFig11Tiny(t *testing.T) {
	f := tinyFigure(t, "11", "cachebw", "mlp")
	// Two workloads under geomean and max; a label, four schemes, two MPKIs.
	if len(f.Rows) != 4 || len(f.Columns) != 7 {
		t.Fatalf("Fig11 shape: %d rows %d columns", len(f.Rows), len(f.Columns))
	}
	// cachebw: OrdPush must beat the baseline.
	if sp := cellValue(t, f, "OrdPush x", "cachebw"); sp <= 1.0 {
		t.Errorf("cachebw OrdPush speedup = %v, want > 1", sp)
	}
	if cellValue(t, f, "OrdPush x", "geomean") == 0 || cellValue(t, f, "OrdPush x", "max") == 0 {
		t.Error("aggregates missing")
	}
}

func TestFig12Tiny(t *testing.T) {
	f := tinyFigure(t, "12", "cachebw")
	if cellValue(t, f, "Pushes", "OrdPush", "cachebw") == 0 {
		t.Fatal("no OrdPush pushes recorded")
	}
	useful := cellValue(t, f, "MissToHit", "OrdPush", "cachebw") + cellValue(t, f, "EarlyResp", "OrdPush", "cachebw")
	if useful < 0.7 {
		t.Errorf("cachebw OrdPush usefulness = %v, want high", useful)
	}
}

func TestFig13Tiny(t *testing.T) {
	f := tinyFigure(t, "13", "cachebw")
	if total := cellValue(t, f, "Total", "OrdPush", "cachebw"); total >= 1.0 {
		t.Errorf("OrdPush cachebw traffic %v not below baseline", total)
	}
	if avg := ordPushSaving(f); avg <= 0 {
		t.Errorf("average OrdPush saving = %v, want positive", avg)
	}
}

func TestFig14Tiny(t *testing.T) {
	out, err := fig14.Run(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	f := out.(*Fig14Result)
	if len(f.Grids) != 2 {
		t.Fatalf("grids = %d", len(f.Grids))
	}
	base, ord := f.Grids[0], f.Grids[1]
	if ord.Total >= base.Total {
		t.Errorf("OrdPush link flits %d not below baseline %d", ord.Total, base.Total)
	}
	if base.MaxLoad == 0 || ord.MaxLink == "" {
		t.Error("hotspot data missing")
	}
}

func TestFig15And16Tiny(t *testing.T) {
	f15, f16 := tinyFigure(t, "15", "cachebw"), tinyFigure(t, "16", "cachebw")
	if inj := cellValue(t, f16, "Inj total", "OrdPush", "cachebw"); inj >= 1.0 {
		t.Errorf("LLC injection %v not reduced by multicasts", inj)
	}
	if cellValue(t, f16, "Inj PushAck", "PushAck", "cachebw") > 0 {
		t.Error("LLC should not inject PushAck messages")
	}
	if cellValue(t, f15, "Inj PushAck", "PushAck", "cachebw") <= 0 {
		t.Error("PushAck scheme shows no L2 PushAck injection")
	}
}

func TestFig20Tiny(t *testing.T) {
	f := tinyFigure(t, "20", "cachebw", "bfs")
	if len(f.Columns) != 5 {
		t.Fatalf("stages = %v", f.Columns[1:])
	}
	if knob, push := cellValue(t, f, "Push+Multicast+Filter+Knob", "bfs"), cellValue(t, f, "Push", "bfs"); knob < push {
		t.Errorf("knob stage should not be worse than raw Push on bfs: %v < %v", knob, push)
	}
}

// positiveSpeedups is the extension figures' shared shape check: one row per
// workload, every named column above zero.
func positiveSpeedups(t *testing.T, f *Table, rows int, cols ...string) {
	t.Helper()
	if len(f.Rows) != rows {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, row := range f.Rows {
		for _, col := range cols {
			if cellValue(t, f, col, row[0].Text) <= 0 {
				t.Errorf("%s: non-positive %s speedup", row[0].Text, col)
			}
		}
	}
}

func TestExtInterplayTiny(t *testing.T) {
	positiveSpeedups(t, tinyFigure(t, "interplay", "cachebw", "mlp"), 2, "OrdPush", "OrdPush+Prefetch")
}

func TestExtRecentPushTableTiny(t *testing.T) {
	f := tinyFigure(t, "recent", "cachebw")
	with, without := cellValue(t, f, "Pushes with", "cachebw"), cellValue(t, f, "Pushes without", "cachebw")
	if without <= with {
		t.Errorf("recent-push table should reduce triggered multicasts: with=%v without=%v", with, without)
	}
	if ratio := cellValue(t, f, "Traffic ratio", "cachebw"); ratio >= 1.0 {
		t.Errorf("traffic ratio %v not below 1", ratio)
	}
}

func TestExtFutureDirectionsTiny(t *testing.T) {
	positiveSpeedups(t, tinyFigure(t, "future", "cachebw", "bfs"), 2, "OrdPush", "+Predictor", "+L1 fill")
}

func TestPredictivePushTriggersOnRefetch(t *testing.T) {
	// bfs at tiny scale with a shrunken LLC forces evictions and refetches;
	// the predictor must add fill-time pushes over plain OrdPush, and the
	// run must stay coherent.
	mk := func(sch Scheme) Results {
		cfg := ScaledConfig(Default16()).WithScheme(sch)
		cfg.LLCSliceSize /= 16
		res, err := Run(cfg, "bfs", ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ord := mk(OrdPush())
	pred := mk(PredictivePush())
	if pred.Stats.Cache.PushesTriggered <= ord.Stats.Cache.PushesTriggered {
		t.Errorf("predictor added no pushes: ord=%d pred=%d",
			ord.Stats.Cache.PushesTriggered, pred.Stats.Cache.PushesTriggered)
	}
}

func TestDeepPushFillsL1(t *testing.T) {
	cfg := ScaledConfig(Default16()).WithScheme(DeepPush())
	res, err := Run(cfg, "cachebw", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(ScaledConfig(Default16()).WithScheme(OrdPush()), "cachebw", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.L1MPKI() >= base.L1MPKI() {
		t.Errorf("L1 push fill did not reduce L1 MPKI: %v vs %v", res.L1MPKI(), base.L1MPKI())
	}
}

func TestExpOptionsDefaults(t *testing.T) {
	o := ExpOptions{}.withDefaults()
	if o.Cores != 16 || o.Parallelism < 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	base := func(o ExpOptions) Config {
		cfg, err := o.withDefaults().baseConfig()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	if base(o).Tiles() != 16 {
		t.Fatal("default config not 16 tiles")
	}
	if base(ExpOptions{Cores: 64}).Tiles() != 64 {
		t.Fatal("64-core config not 64 tiles")
	}
	if base(ExpOptions{Scale: ScaleFull}).L2Size != Default16().L2Size {
		t.Fatal("full scale must keep Table I caches")
	}
	if base(ExpOptions{Scale: ScaleQuick}).L2Size >= Default16().L2Size {
		t.Fatal("quick scale must shrink caches")
	}
}

// TestExpOptionsCores pins the one machine constructor behind the figures:
// a core count it does not know is a one-line error from a figure and from
// Table I — it used to simulate 16 cores under an "(N cores)" title — and
// 256 is the 16x16 mesh.
func TestExpOptionsCores(t *testing.T) {
	for _, name := range []string{"11", "14", "t1"} {
		_, err := RunFigure(context.Background(), name, ExpOptions{Scale: ScaleTiny, Cores: 48})
		if err == nil || !strings.Contains(err.Error(), "unsupported core count 48") || strings.Contains(err.Error(), "\n") {
			t.Errorf("figure %s with 48 cores: %v; want a one-line unsupported-core-count error", name, err)
		}
	}
	t1, err := RunFigure(context.Background(), "t1", ExpOptions{Cores: 256})
	if err != nil || !strings.Contains(t1.String(), "16x16 tiles") {
		t.Errorf("Table I at 256 cores: %v\n%s", err, t1)
	}
}

func TestExpOptionsWorkloadFilter(t *testing.T) {
	o := ExpOptions{Workloads: []string{"cachebw", "bfs"}}.withDefaults()
	wls, err := o.pickWorkloads(Workloads())
	if err != nil || len(wls) != 2 || wls[0].Name != "cachebw" {
		t.Fatalf("filter wrong: %v %v", wls, err)
	}
	bad := ExpOptions{Workloads: []string{"nope"}}.withDefaults()
	if _, err := bad.pickWorkloads(Workloads()); err == nil {
		t.Fatal("unknown workload accepted")
	}
	def := ExpOptions{}.withDefaults()
	wls, err = def.pickWorkloads(Workloads())
	if err != nil || len(wls) != 15 {
		t.Fatalf("default set wrong: %d %v", len(wls), err)
	}
}

func TestSchemeAccessors(t *testing.T) {
	if Baseline().Name != "L1Bingo-L2Stride" || OrdPush().Name != "OrdPush" {
		t.Fatal("scheme names changed; experiment row keys depend on them")
	}
	names := WorkloadNames()
	if len(names) != 19 || names[0] != "cachebw" || names[15] != "allreduce" {
		t.Fatalf("workload names changed: %v", names)
	}
}
