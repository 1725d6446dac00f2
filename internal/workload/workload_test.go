package workload

import (
	"testing"
	"testing/quick"

	"pushmulticast/internal/noc"
)

// drain consumes a stream to completion (bounded) and returns its ops.
func drain(t *testing.T, s Stream, limit int) []Op {
	t.Helper()
	var ops []Op
	for i := 0; i < limit; i++ {
		op := s.Next()
		if op.Kind == OpEnd {
			return ops
		}
		ops = append(ops, op)
	}
	t.Fatalf("stream did not terminate within %d ops", limit)
	return nil
}

func TestRegistryComplete(t *testing.T) {
	if got := len(Registry()); got != 15 {
		t.Fatalf("registry has %d workloads, want 15 (Table II)", got)
	}
	names := Names()
	if len(names) != 19 {
		t.Fatalf("Names lists %d workloads, want 19 (Table II + 4 collectives)", len(names))
	}
	for _, n := range names {
		wl, err := ByName(n)
		if err != nil || wl.Name != n {
			t.Errorf("ByName(%q) = %v, %v", n, wl.Name, err)
		}
		if wl.Description == "" || wl.Class == "" || wl.Build == nil {
			t.Errorf("%s: incomplete metadata", n)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	if len(NonParsec()) != 10 {
		t.Errorf("NonParsec has %d entries, want 10", len(NonParsec()))
	}
}

func TestAllStreamsTerminate(t *testing.T) {
	for _, wl := range Registry() {
		for core := 0; core < 4; core++ {
			ops := drain(t, wl.Build(core, 16, ScaleTiny), 2_000_000)
			if len(ops) == 0 {
				t.Errorf("%s core %d: empty stream", wl.Name, core)
			}
		}
	}
}

func TestStreamsDeterministic(t *testing.T) {
	for _, wl := range Registry() {
		a := drain(t, wl.Build(1, 16, ScaleTiny), 2_000_000)
		b := drain(t, wl.Build(1, 16, ScaleTiny), 2_000_000)
		if len(a) != len(b) {
			t.Errorf("%s: lengths differ %d/%d", wl.Name, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: op %d differs: %+v vs %+v", wl.Name, i, a[i], b[i])
				break
			}
		}
	}
}

func TestBarrierCountsMatchAcrossCores(t *testing.T) {
	for _, wl := range Registry() {
		counts := map[int]int{}
		for core := 0; core < 16; core++ {
			n := 0
			for _, op := range drain(t, wl.Build(core, 16, ScaleTiny), 2_000_000) {
				if op.Kind == OpBarrier {
					n++
				}
			}
			counts[n]++
		}
		if len(counts) != 1 {
			t.Errorf("%s: cores disagree on barrier count: %v", wl.Name, counts)
		}
	}
}

func TestAddressesAligned(t *testing.T) {
	for _, wl := range Registry() {
		for _, op := range drain(t, wl.Build(0, 16, ScaleTiny), 2_000_000) {
			if op.Kind == OpLoad || op.Kind == OpStore {
				if op.Addr%noc.LineBytes != 0 {
					t.Fatalf("%s: unaligned address %#x", wl.Name, op.Addr)
				}
			}
		}
	}
}

func TestCacheBWFullSharing(t *testing.T) {
	// Every core must touch exactly the same shared line set.
	sets := make([]map[uint64]bool, 3)
	for core := 0; core < 3; core++ {
		sets[core] = map[uint64]bool{}
		for _, op := range drain(t, CacheBW().Build(core, 16, ScaleTiny), 2_000_000) {
			if op.Kind == OpLoad {
				sets[core][op.Addr] = true
			}
		}
	}
	if len(sets[0]) == 0 {
		t.Fatal("no loads")
	}
	for core := 1; core < 3; core++ {
		if len(sets[core]) != len(sets[0]) {
			t.Fatalf("core %d touches %d lines, core 0 %d", core, len(sets[core]), len(sets[0]))
		}
	}
}

func TestMultilevelPartitioning(t *testing.T) {
	// Cores in different levels (core%4) must touch disjoint buffers;
	// cores in the same level identical ones.
	touched := func(core int) map[uint64]bool {
		m := map[uint64]bool{}
		for _, op := range drain(t, Multilevel().Build(core, 16, ScaleTiny), 2_000_000) {
			if op.Kind == OpLoad {
				m[op.Addr] = true
			}
		}
		return m
	}
	l0, l1, l4 := touched(0), touched(1), touched(4)
	for a := range l0 {
		if l1[a] {
			t.Fatalf("levels 0 and 1 share line %#x", a)
		}
	}
	if len(l0) != len(l4) {
		t.Fatalf("same-level cores differ: %d vs %d", len(l0), len(l4))
	}
	for a := range l0 {
		if !l4[a] {
			t.Fatalf("same-level core missing line %#x", a)
		}
	}
}

func TestMVPrivateAndSharedMix(t *testing.T) {
	shared, private := 0, 0
	for _, op := range drain(t, MV().Build(2, 16, ScaleTiny), 2_000_000) {
		if op.Kind != OpLoad {
			continue
		}
		if op.Addr >= sharedBase && op.Addr < privateBase {
			shared++
		} else {
			private++
		}
	}
	if shared == 0 || private == 0 {
		t.Fatalf("mv mix wrong: shared=%d private=%d", shared, private)
	}
	if private < shared {
		t.Errorf("mv private traffic (%d) should dominate shared (%d)", private, shared)
	}
}

func TestBFSIsIrregular(t *testing.T) {
	// Consecutive loads should not be sequential lines.
	ops := drain(t, BFS().Build(0, 16, ScaleTiny), 2_000_000)
	seqRuns, loads := 0, 0
	var last uint64
	for _, op := range ops {
		if op.Kind != OpLoad {
			continue
		}
		if loads > 0 && op.Addr == last+noc.LineBytes {
			seqRuns++
		}
		last = op.Addr
		loads++
	}
	if loads == 0 {
		t.Fatal("no loads")
	}
	if float64(seqRuns) > 0.05*float64(loads) {
		t.Errorf("bfs looks sequential: %d/%d consecutive", seqRuns, loads)
	}
}

func TestPathfinderNeighbourSharing(t *testing.T) {
	// Core 2 must read a few lines of core 1's and core 3's segments.
	m := map[uint64]bool{}
	for _, op := range drain(t, Pathfinder().Build(2, 16, ScaleTiny), 2_000_000) {
		if op.Kind == OpLoad {
			m[op.Addr] = true
		}
	}
	hitLeft, hitRight := false, false
	for a := range m {
		if a >= privBase(1) && a < privBase(1)+4*noc.LineBytes {
			hitLeft = true
		}
		if a >= privBase(3) && a < privBase(3)+4*noc.LineBytes {
			hitRight = true
		}
	}
	if !hitLeft || !hitRight {
		t.Errorf("pathfinder boundary sharing missing: left=%v right=%v", hitLeft, hitRight)
	}
}

func TestStaggerGrowsWithCore(t *testing.T) {
	first := func(core int) Op {
		return CacheBW().Build(core, 16, ScaleTiny).Next()
	}
	a, b := first(1), first(8)
	if a.Kind != OpWork || b.Kind != OpWork || b.N <= a.N {
		t.Errorf("start stagger not increasing: %+v vs %+v", a, b)
	}
}

func TestScaleOrdering(t *testing.T) {
	// Quick inputs must be strictly larger than tiny ones.
	count := func(sc Scale) int {
		n := 0
		s := CacheBW().Build(0, 16, sc)
		for i := 0; i < 10_000_000; i++ {
			op := s.Next()
			if op.Kind == OpEnd {
				return n
			}
			if op.Kind == OpLoad {
				n++
			}
		}
		return n
	}
	if count(ScaleQuick) <= count(ScaleTiny) {
		t.Error("quick scale not larger than tiny")
	}
}

func TestSegStreamInterleave(t *testing.T) {
	s := newSegStream([]segment{{
		kind: segScan, base: 0x1000, lines: 3,
		base2: 0x100000, span2: 2,
	}})
	var got []Op
	for {
		op := s.Next()
		if op.Kind == OpEnd {
			break
		}
		got = append(got, op)
	}
	want := []Op{
		{Kind: OpLoad, Addr: 0x1000}, {Kind: OpLoad, Addr: 0x100000},
		{Kind: OpLoad, Addr: 0x1040}, {Kind: OpLoad, Addr: 0x100040},
		{Kind: OpLoad, Addr: 0x1080}, {Kind: OpLoad, Addr: 0x100000},
	}
	if len(got) != len(want) {
		t.Fatalf("interleave ops = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSegStreamRandWithinSpan(t *testing.T) {
	f := func(seed uint64) bool {
		s := newSegStream([]segment{{kind: segRand, base: 0x1000, span: 16, n: 50, seed: seed}})
		for {
			op := s.Next()
			if op.Kind == OpEnd {
				return true
			}
			if op.Kind == OpLoad && (op.Addr < 0x1000 || op.Addr >= 0x1000+16*noc.LineBytes) {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleStrings(t *testing.T) {
	for _, sc := range []Scale{ScaleTiny, ScaleQuick, ScaleFull} {
		if sc.String() == "unknown" {
			t.Errorf("scale %d unnamed", sc)
		}
	}
}
