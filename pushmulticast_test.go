package pushmulticast

import (
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

func TestTables(t *testing.T) {
	o := tinyOpts()
	t1, err := TableI(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t1, "4x4 tiles") || !strings.Contains(t1, "TPC threshold") {
		t.Errorf("Table I incomplete:\n%s", t1)
	}
	t2 := TableII()
	for _, wl := range []string{"cachebw", "bfs", "swaptions"} {
		if !strings.Contains(t2, wl) {
			t.Errorf("Table II missing %s", wl)
		}
	}
}

func TestFig2And3Tiny(t *testing.T) {
	f2r, err := Fig2(tinyOpts("cachebw", "swaptions"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f2r.Rows) != 2 {
		t.Fatalf("Fig2 rows = %d", len(f2r.Rows))
	}
	// High-load cachebw must dominate low-load swaptions on both axes.
	if f2r.Rows[0].L2MPKI <= f2r.Rows[1].L2MPKI || f2r.Rows[0].InjLoad <= f2r.Rows[1].InjLoad {
		t.Errorf("Fig2 shape wrong: %+v", f2r.Rows)
	}
	f3r, err := Fig3(tinyOpts("cachebw", "swaptions"))
	if err != nil {
		t.Fatal(err)
	}
	cb := f3r.Rows[0]
	if cb.ReadShared < 0.5 {
		t.Errorf("cachebw read-shared fraction = %v, want > 0.5", cb.ReadShared)
	}
	sum := cb.ReadShared + cb.ReadRequest + cb.Exclusive + cb.WriteBack + cb.Others
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cachebw fractions sum to %v", sum)
	}
	if f3r.Rows[1].ReadShared > 0.2 {
		t.Errorf("swaptions read-shared fraction = %v, want tiny", f3r.Rows[1].ReadShared)
	}
	if f2r.String() == "" || f3r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig4Tiny(t *testing.T) {
	f, err := Fig4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Pairs) == 0 {
		t.Fatal("no sharer gap samples recorded")
	}
	if f.AllMedian == 0 {
		t.Error("zero median gap")
	}
	if !strings.Contains(f.String(), "median gap") {
		t.Error("rendering incomplete")
	}
}

func TestFig11Tiny(t *testing.T) {
	f, err := Fig11(tinyOpts("cachebw", "mlp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 2 || len(f.Schemes) != 4 {
		t.Fatalf("Fig11 shape: %d rows %d schemes", len(f.Rows), len(f.Schemes))
	}
	// cachebw: OrdPush must beat the baseline.
	for _, r := range f.Rows {
		if r.Workload == "cachebw" && r.Speedup["OrdPush"] <= 1.0 {
			t.Errorf("cachebw OrdPush speedup = %v, want > 1", r.Speedup["OrdPush"])
		}
	}
	if f.Geomean["OrdPush"] == 0 || f.Max["OrdPush"] == 0 {
		t.Error("aggregates missing")
	}
}

func TestFig12Tiny(t *testing.T) {
	f, err := Fig12(tinyOpts("cachebw"))
	if err != nil {
		t.Fatal(err)
	}
	var ord *Fig12Row
	for i := range f.Rows {
		if f.Rows[i].Scheme == "OrdPush" {
			ord = &f.Rows[i]
		}
	}
	if ord == nil || ord.Total == 0 {
		t.Fatal("no OrdPush pushes recorded")
	}
	useful := ord.Percent[4] + ord.Percent[5] // MissToHit + EarlyResp
	if useful < 0.7 {
		t.Errorf("cachebw OrdPush usefulness = %v, want high", useful)
	}
}

func TestFig13Tiny(t *testing.T) {
	f, err := Fig13(tinyOpts("cachebw"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Rows {
		if r.Scheme == "OrdPush" && r.Total >= 1.0 {
			t.Errorf("OrdPush cachebw traffic %v not below baseline", r.Total)
		}
	}
	if f.AvgSavingOrdPush <= 0 {
		t.Errorf("average OrdPush saving = %v, want positive", f.AvgSavingOrdPush)
	}
}

func TestFig14Tiny(t *testing.T) {
	f, err := Fig14(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
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
	f15, err := Fig15(tinyOpts("cachebw"))
	if err != nil {
		t.Fatal(err)
	}
	f16, err := Fig16(tinyOpts("cachebw"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f16.Rows {
		if r.Scheme == "OrdPush" && r.Injected >= 1.0 {
			t.Errorf("LLC injection %v not reduced by multicasts", r.Injected)
		}
		if r.Scheme == "PushAck" && r.InjPushAck > 0 {
			t.Error("LLC should not inject PushAck messages")
		}
	}
	foundAck := false
	for _, r := range f15.Rows {
		if r.Scheme == "PushAck" && r.InjPushAck > 0 {
			foundAck = true
		}
	}
	if !foundAck {
		t.Error("PushAck scheme shows no L2 PushAck injection")
	}
}

func TestFig20Tiny(t *testing.T) {
	f, err := Fig20(tinyOpts("cachebw", "bfs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Stages) != 4 {
		t.Fatalf("stages = %v", f.Stages)
	}
	for _, r := range f.Rows {
		if r.Workload != "bfs" {
			continue
		}
		if r.Speedup["Push+Multicast+Filter+Knob"] < r.Speedup["Push"] {
			t.Errorf("knob stage should not be worse than raw Push on bfs: %+v", r.Speedup)
		}
	}
}

func TestExtInterplayTiny(t *testing.T) {
	f, err := ExtInterplay(tinyOpts("cachebw", "mlp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.OrdPush <= 0 || r.Combined <= 0 {
			t.Errorf("%s: non-positive speedups %+v", r.Workload, r)
		}
	}
}

func TestExtRecentPushTableTiny(t *testing.T) {
	f, err := ExtRecentPushTable(tinyOpts("cachebw"))
	if err != nil {
		t.Fatal(err)
	}
	r := f.Rows[0]
	if r.PushesWithout <= r.PushesWith {
		t.Errorf("recent-push table should reduce triggered multicasts: with=%d without=%d",
			r.PushesWith, r.PushesWithout)
	}
	if r.TrafficRatio >= 1.0 {
		t.Errorf("traffic ratio %v not below 1", r.TrafficRatio)
	}
}

func TestExtFutureDirectionsTiny(t *testing.T) {
	f, err := ExtFutureDirections(tinyOpts("cachebw", "bfs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.OrdPush <= 0 || r.Predict <= 0 || r.DeepL1 <= 0 {
			t.Errorf("%s: non-positive speedups %+v", r.Workload, r)
		}
	}
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
	for name, call := range map[string]func(ExpOptions) error{
		"Fig11":  func(o ExpOptions) error { _, err := Fig11(o); return err },
		"Fig14":  func(o ExpOptions) error { _, err := Fig14(o); return err },
		"TableI": func(o ExpOptions) error { _, err := TableI(o); return err },
	} {
		err := call(ExpOptions{Scale: ScaleTiny, Cores: 48})
		if err == nil || !strings.Contains(err.Error(), "unsupported core count 48") || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s with 48 cores: %v; want a one-line unsupported-core-count error", name, err)
		}
	}
	t1, err := TableI(ExpOptions{Cores: 256})
	if err != nil || !strings.Contains(t1, "16x16 tiles") {
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
