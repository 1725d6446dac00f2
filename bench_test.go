package pushmulticast

// One sub-benchmark per reproduced table/figure. Each regenerates its
// experiment at tiny scale per iteration and reports the figure's headline
// quantity as a custom metric, so `go test -bench=. -benchmem` doubles as a
// smoke regeneration of the whole evaluation. Quick-scale (paper-shaped)
// numbers come from `go run ./cmd/experiments`; speed numbers come from
// `go run ./benchmark` and nowhere else.

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/core"
	"pushmulticast/internal/workload"
)

func benchOpts(wls ...string) ExpOptions {
	return ExpOptions{Scale: ScaleTiny, Cores: 16, Workloads: wls}
}

// allocBudget is the recorded allocations of one cachebw/OrdPush/tiny run on
// the 16-core machine under the wake-driven kernel, build included (1,879
// while the L2's MSHR file was a map over a slab pool, 1,671 while each LLC
// slice kept its episodes, fetches and stalled packets in three maps, 1,575
// before each slice's sharer sets moved into a table of their own, 1,591
// while every NI kept its own packet free list, 1,439 while every cache array
// kept its own tag index and carved its pages from slabs of its own).
const allocBudget = 1270

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
	t.Logf("%d allocs/run (recorded %d)", got, allocBudget)
	if limit := allocBudget + (allocBudget+19)/20; got > limit { // +5%, rounded up
		t.Fatalf("%d allocs/run exceeds budget %d by more than 5%% (limit %d); if the regression is intended, re-record allocBudget in bench_test.go", got, allocBudget, limit)
	}
}

// buildBytesPerTile is the recorded heap allocation of one cachebw/OrdPush
// core.Build at each mesh size, divided by its tile count. A cache way costs
// nothing at build — its page is one 4-byte pageOf word until it is carved,
// tags and all — so the caches are their page tables, 1,104 bytes a tile (an
// LLC set has four pages), and their slab tables, about 410 (19,868 / 19,647
// / 19,574 while a set was one page and one 8-byte word, 672 and 126 bytes a
// tile; 31,587 / 31,392 /
// 31,321 while every way's tag was allocated at build; 77,519 / 77,310 /
// 101,833 while every way of every array was, an LLC way at a 24-byte Line,
// its tag, an 8-byte DirEntry and one sharer word per 64 tiles; 112.5 KB a
// tile at every size while each way held a 256-bit sharer vector; 88,045 /
// 87,839 / 112,338 while each Line held a second copy of its tag).
var buildBytesPerTile = map[int]uint64{16: 20651, 64: 20452, 256: 20331}

// TestBuildBytesPerTile is TestAllocBudget's byte-side twin: an allocation
// count does not notice a table whose entries grow, so this gates the bytes
// one build allocates, per tile, at 5% over the recorded figure.
func TestBuildBytesPerTile(t *testing.T) {
	wl, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []Config{Default16(), Default64(), Default256()} {
		cfg := ScaledConfig(base).WithScheme(OrdPush())
		tiles := cfg.Tiles()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := core.Build(cfg, wl, ScaleTiny); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got, want := (after.TotalAlloc-before.TotalAlloc)/uint64(tiles), buildBytesPerTile[tiles]
		t.Logf("%d tiles: %d bytes a tile (recorded %d)", tiles, got, want)
		if got > want+want/20 {
			t.Errorf("%d tiles: one build allocates %d bytes a tile, more than 5%% over the recorded %d; if the growth is intended, re-record buildBytesPerTile in bench_test.go", tiles, got, want)
		}
	}
}

// runBytes is the recorded heap allocation, in bytes, of one System.Run
// after core.Build on the 16-core machine at tiny scale, besides the cache
// pages it carves: cachebw under OrdPush, and bfs under OrdPush at 10 per
// mille loss (fault seed 1). Most of it is packet slabs and, in the lossy
// run, the recovery layer's retransmit windows (725,400 and 1,006,920 bytes
// while every NI kept its own packet free list).
var runBytes = map[string]uint64{"cachebw": 91520, "bfs lossy": 509248}

// runPages is the recorded number of pages each run of runBytes carves, pool
// by pool (L1, L2, LLC), and the bytes of the slabs each pool carved them
// from: both are deterministic, so both are exact. A private page is a whole
// set, and every L1 and L2 set gets one; an LLC page is a quarter set, four
// of its 16 ways, and 768 or all 1,024 LLC sets get one, their first, as no
// set holds more than four lines at once. The LLC slabs hold 147,456 and
// 196,608 bytes, a quarter of the 589,824 and 786,432 they held while a
// set's first line carved all 16 of its ways; a page holds its ways' tags,
// so the slabs hold what the pages of per-array slabs held (602,112 and
// 765,952 bytes) and 167,936 bytes of tags allocated at build once held.
var runPages = map[string][3]pages{
	"cachebw":   {{64, 16384}, {256, 131072}, {768, 147456}},
	"bfs lossy": {{64, 16384}, {256, 131072}, {1024, 196608}},
}

// pages is what one pool carved: pages, and slab bytes.
type pages struct{ sets, bytes uint64 }

// TestRunBytes is TestBuildBytesPerTile's run-side twin: it gates the bytes
// a run allocates once its machine is built, at 5% over the recorded figure,
// so packet slabs and protocol tables that grow where a run should recycle
// them fail here. Cache pages are the bytes a run is meant to allocate as it
// touches sets: they are counted from the pools, pinned exactly, and left
// out of the 5%.
func TestRunBytes(t *testing.T) {
	for _, tc := range []struct {
		name, wl string
		lossy    int
	}{{"cachebw", "cachebw", 0}, {"bfs lossy", "bfs", 10}} {
		cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
		if tc.lossy > 0 {
			plan := GenerateLossyPlan(cfg.Tiles(), 1, tc.lossy)
			cfg.Faults = &plan
		}
		wl, err := workload.ByName(tc.wl)
		if err != nil {
			t.Fatal(err)
		}
		// MemStats counts every goroutine's allocations, and a stray one lands
		// in a single reading now and then: the least of three runs, each on
		// its own build, is the run's figure.
		got, carved := ^uint64(0), [3]pages{}
		for range 3 {
			sys, err := core.Build(cfg, wl, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := sys.Run(0); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			carved = pageBytes(sys)
			slabs := uint64(0)
			for _, p := range carved {
				slabs += p.bytes
			}
			got = min(got, after.TotalAlloc-before.TotalAlloc-slabs)
		}
		want := runBytes[tc.name]
		t.Logf("%s: one run allocates %d bytes (recorded %d) besides L1, L2 and LLC pages carved in slabs: %v", tc.name, got, want, carved)
		if got > want+want/20 {
			t.Errorf("%s: one run allocates %d bytes besides its pages, more than 5%% over the recorded %d; if the growth is intended, re-record runBytes in bench_test.go", tc.name, got, want)
		}
		if rec := runPages[tc.name]; carved != rec {
			t.Errorf("%s: one run's L1, L2 and LLC pools carve pages in slabs of %v, recorded %v; if the change is intended, re-record runPages in bench_test.go", tc.name, carved, rec)
		}
	}
}

// pageBytes returns what each of s's pools (L1, L2, LLC) carved: the number
// of pages carved and the bytes of the slabs those pages were
// carved from, a tag and a Line a way, and in an LLC slice a DirEntry and one
// sharer word per 64 tiles besides.
func pageBytes(s *core.System) (carved [3]pages) {
	line := 8 + unsafe.Sizeof(cache.Line{})
	dir := unsafe.Sizeof(cache.DirEntry{}) + uintptr(s.Cfg.Tiles()+63)/64*8
	for i, p := range []struct {
		pool *cache.Pool
		way  uintptr
	}{{s.Pools.L1, line}, {s.Pools.L2, line}, {s.Pools.LLC, line + dir}} {
		sets, ways := p.pool.Pages()
		carved[i] = pages{uint64(sets), uint64(ways) * uint64(p.way)}
	}
	return carved
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
