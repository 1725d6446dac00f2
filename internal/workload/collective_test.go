package workload

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"pushmulticast/internal/noc"
)

// collect drains one collective core stream and splits it into loads and
// stores (prologue and idle phases emit only OpWork, so participants' sharing
// structure is fully visible in these two sets).
func collect(t *testing.T, wl Workload, core int) (loads, stores []uint64) {
	t.Helper()
	for _, op := range drain(t, wl.Build(core, 16, ScaleTiny), 2_000_000) {
		switch op.Kind {
		case OpLoad:
			loads = append(loads, op.Addr)
		case OpStore:
			stores = append(stores, op.Addr)
		}
	}
	return loads, stores
}

// inBuf reports whether addr falls inside collective buffer `buf` for the
// given payload size.
func inBuf(addr uint64, buf, payloadLines int) bool {
	base := colBase(buf, payloadLines)
	return addr >= base && addr < base+uint64(payloadLines)*noc.LineBytes
}

func TestCollectivesRegistered(t *testing.T) {
	cols := Collectives()
	if len(cols) != 4 {
		t.Fatalf("Collectives has %d entries, want 4", len(cols))
	}
	want := []string{"allreduce", "broadcast", "reducescatter", "prodcons"}
	for i, wl := range cols {
		if wl.Name != want[i] {
			t.Errorf("collective %d named %q, want %q", i, wl.Name, want[i])
		}
		if wl.Description == "" || wl.Class == "" || wl.Build == nil {
			t.Errorf("%s: incomplete metadata", wl.Name)
		}
		if wl.Validate == nil {
			t.Errorf("%s: no Validate hook — degenerate params would build silently", wl.Name)
		}
		if wl.Params == "" {
			t.Errorf("%s: empty Params signature — memo identity would collide", wl.Name)
		}
		got, err := ByName(wl.Name)
		if err != nil || got.Name != wl.Name {
			t.Errorf("ByName(%q) = %v, %v", wl.Name, got.Name, err)
		}
	}
	// Registry stays the paper's Table II set: collectives ride in All only.
	for _, wl := range Registry() {
		for _, c := range want {
			if wl.Name == c {
				t.Errorf("collective %q leaked into the Table II registry", c)
			}
		}
	}
}

// TestByNameUnknownListsSortedNames pins the ByName miss diagnostic: one
// line, naming the unknown workload and every valid name in sorted order —
// and it must not degrade however many times it is asked (the index is built
// once, not rebuilt per miss).
func TestByNameUnknownListsSortedNames(t *testing.T) {
	cases := []struct {
		name string
		ask  string
	}{
		{"typo of a collective", "allredcue"},
		{"typo of a table II entry", "cacheBW"},
		{"empty name", ""},
		{"repeat miss", "allredcue"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ByName(tc.ask)
			if err == nil {
				t.Fatalf("ByName(%q) accepted an unknown workload", tc.ask)
			}
			msg := err.Error()
			if strings.Contains(msg, "\n") {
				t.Fatalf("diagnostic is not a single line: %q", msg)
			}
			if !strings.Contains(msg, "valid:") {
				t.Fatalf("diagnostic %q does not list the valid names", msg)
			}
			list := msg[strings.Index(msg, "valid:")+len("valid:"):]
			list = strings.TrimSuffix(strings.TrimSpace(list), ")")
			names := strings.Split(list, ", ")
			if len(names) != len(Names()) {
				t.Fatalf("diagnostic lists %d names, want %d: %q", len(names), len(Names()), msg)
			}
			for i := 1; i < len(names); i++ {
				if names[i-1] >= names[i] {
					t.Fatalf("diagnostic names not sorted: %q before %q", names[i-1], names[i])
				}
			}
			for _, want := range []string{"allreduce", "cachebw", "reducescatter"} {
				found := false
				for _, n := range names {
					if n == want {
						found = true
					}
				}
				if !found {
					t.Fatalf("diagnostic %q missing workload %q", msg, want)
				}
			}
		})
	}
}

func TestCollectiveStreamsTerminateAndAlign(t *testing.T) {
	for _, wl := range Collectives() {
		for core := 0; core < 16; core++ {
			ops := drain(t, wl.Build(core, 16, ScaleTiny), 2_000_000)
			if len(ops) == 0 {
				t.Errorf("%s core %d: empty stream", wl.Name, core)
			}
			for _, op := range ops {
				if (op.Kind == OpLoad || op.Kind == OpStore) && op.Addr%noc.LineBytes != 0 {
					t.Fatalf("%s core %d: unaligned address %#x", wl.Name, core, op.Addr)
				}
			}
		}
	}
}

func TestCollectiveStreamsDeterministic(t *testing.T) {
	for _, wl := range Collectives() {
		a := drain(t, wl.Build(3, 16, ScaleTiny), 2_000_000)
		b := drain(t, wl.Build(3, 16, ScaleTiny), 2_000_000)
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

// TestCollectiveBarrierParity checks the global-barrier contract for both
// full participation and partial participation (idle cores must still reach
// every barrier), across parameter variants.
func TestCollectiveBarrierParity(t *testing.T) {
	variants := []struct {
		label string
		build func() []Workload
	}{
		{"defaults", Collectives},
		{"eight sharers", func() []Workload {
			return []Workload{
				AllReduce(CollectiveParams{Sharers: 8}),
				Broadcast(CollectiveParams{Sharers: 8}),
				ReduceScatter(CollectiveParams{Sharers: 8}),
				ProdCons(CollectiveParams{Sharers: 8}),
			}
		}},
		{"alternate fanout", func() []Workload {
			return []Workload{
				AllReduce(CollectiveParams{Fanout: 2}),
				Broadcast(CollectiveParams{Fanout: 2}),
				ProdCons(CollectiveParams{Sharers: 12, Fanout: 2}),
			}
		}},
	}
	for _, v := range variants {
		for _, wl := range v.build() {
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
				t.Errorf("%s/%s: cores disagree on barrier count: %v", v.label, wl.Name, counts)
			}
		}
	}
}

// TestCollectiveNonParticipantsIdle: cores outside the sharer set emit no
// memory traffic at all — they only pace the barriers.
func TestCollectiveNonParticipantsIdle(t *testing.T) {
	for _, wl := range []Workload{
		AllReduce(CollectiveParams{Sharers: 8}),
		Broadcast(CollectiveParams{Sharers: 8}),
		ProdCons(CollectiveParams{Sharers: 8}),
	} {
		loads, stores := collect(t, wl, 12)
		if len(loads) != 0 || len(stores) != 0 {
			t.Errorf("%s: non-participant core 12 issued %d loads / %d stores",
				wl.Name, len(loads), len(stores))
		}
	}
}

// collectiveBuilders are the family's constructors in collectiveKind order.
var collectiveBuilders = []func(CollectiveParams) Workload{AllReduce, Broadcast, ReduceScatter, ProdCons}

// collectiveCases is the degenerate-parameter sweep: TestCollectiveValidate's
// table and FuzzCollectiveParams's seeds.
var collectiveCases = []struct {
	name  string
	kind  collectiveKind
	p     CollectiveParams
	cores int
	want  string // "" = must validate cleanly
}{
	{"allreduce defaults", colAllReduce, CollectiveParams{}, 16, ""},
	{"broadcast defaults", colBroadcast, CollectiveParams{}, 16, ""},
	{"reducescatter defaults", colReduceScatter, CollectiveParams{}, 16, ""},
	{"prodcons defaults", colProdCons, CollectiveParams{}, 16, ""},
	{"explicit consistent params", colAllReduce,
		CollectiveParams{Sharers: 8, Fanout: 2, ChunkLines: 8, PayloadLines: 256, Iters: 2}, 16, ""},
	{"negative sharers", colAllReduce, CollectiveParams{Sharers: -1}, 16, "Sharers -1 is negative"},
	{"negative fanout", colBroadcast, CollectiveParams{Fanout: -4}, 16, "Fanout -4 is negative"},
	{"negative chunk", colProdCons, CollectiveParams{ChunkLines: -16}, 16, "ChunkLines -16 is negative"},
	{"negative payload", colReduceScatter, CollectiveParams{PayloadLines: -256}, 16, "PayloadLines -256 is negative"},
	{"zero-iteration loop", colAllReduce, CollectiveParams{Iters: -3}, 16, "Iters -3 is negative"},
	{"sharers exceed cores", colAllReduce, CollectiveParams{Sharers: 32}, 16, "32 sharers exceed the 16-core machine"},
	{"one sharer cannot ring", colAllReduce, CollectiveParams{Sharers: 1}, 16, "below the minimum 2"},
	{"broadcast radix one", colBroadcast, CollectiveParams{Fanout: 1}, 16, "must be at least 2"},
	{"too many ring channels", colAllReduce, CollectiveParams{Sharers: 4, Fanout: 4}, 16, "ring channels"},
	{"prodcons group mismatch", colProdCons, CollectiveParams{Sharers: 16, Fanout: 2}, 16,
		"do not split into groups of 3"},
	{"prodcons too few for one group", colProdCons, CollectiveParams{Sharers: 2}, 16, "below the minimum 4"},
	{"chunk does not divide payload", colBroadcast, CollectiveParams{ChunkLines: 7, PayloadLines: 100}, 16,
		"chunk size 7 lines does not divide the 100-line payload"},
	{"chunks do not distribute across sharers", colAllReduce,
		CollectiveParams{Sharers: 16, ChunkLines: 16, PayloadLines: 16 * 8}, 16, "do not distribute across 16 sharers"},
	{"chunk groups do not split across channels", colReduceScatter,
		CollectiveParams{Sharers: 8, Fanout: 3, ChunkLines: 16, PayloadLines: 16 * 8 * 4}, 16,
		"do not split across 3 ring channels"},
	{"small machine still works", colProdCons, CollectiveParams{Fanout: 3}, 4, ""},
}

// TestCollectiveValidate is the table-driven error-text regression for the
// degenerate-parameter sweep: every bad combination yields a one-line
// diagnostic naming the offending knob; zero values are always valid.
func TestCollectiveValidate(t *testing.T) {
	for _, tc := range collectiveCases {
		t.Run(tc.name, func(t *testing.T) {
			err := collectiveBuilders[tc.kind](tc.p).Validate(tc.cores)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid params rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("degenerate params validated cleanly")
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("diagnostic is not a single line: %q", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzCollectiveParams turns fuzz bytes into a collective and its five
// parameters and holds Validate and Build to one contract at 16 and 64
// cores: a refusal is one line, and accepted parameters build a stream on
// every core that does not panic, touches only line-aligned addresses, and
// reaches as many barriers as every other core's. Parameters whose streams
// outgrow the op budget are accepted unchecked.
func FuzzCollectiveParams(f *testing.F) {
	for _, tc := range collectiveCases {
		p := tc.p
		f.Add(uint8(tc.kind), int16(p.Sharers), int16(p.Fanout), int16(p.ChunkLines), int16(p.PayloadLines), int16(p.Iters))
	}
	f.Fuzz(func(t *testing.T, kind uint8, sharers, fanout, chunk, payload, iters int16) {
		p := CollectiveParams{Sharers: int(sharers), Fanout: int(fanout), ChunkLines: int(chunk),
			PayloadLines: int(payload), Iters: int(iters)}
		wl := collectiveBuilders[int(kind)%len(collectiveBuilders)](p)
		for _, cores := range []int{16, 64} {
			if err := wl.Validate(cores); err != nil {
				if strings.Contains(err.Error(), "\n") {
					t.Fatalf("%s %+v at %d cores: diagnostic is not a single line: %q", wl.Name, p, cores, err)
				}
				continue
			}
			budget, want := 1<<20, -1
			for core := 0; core < cores; core++ {
				s, barriers := wl.Build(core, cores, ScaleTiny), 0
				for op := s.Next(); op.Kind != OpEnd; op = s.Next() {
					if budget--; budget == 0 {
						return
					}
					switch {
					case op.Kind == OpBarrier:
						barriers++
					case (op.Kind == OpLoad || op.Kind == OpStore) && op.Addr%noc.LineBytes != 0:
						t.Fatalf("%s %+v at %d cores: core %d touches unaligned %#x", wl.Name, p, cores, core, op.Addr)
					}
				}
				if want >= 0 && barriers != want {
					t.Fatalf("%s %+v at %d cores: core %d reaches %d barriers, core 0 %d", wl.Name, p, cores, core, barriers, want)
				}
				want = barriers
			}
		}
	})
}

// TestCollectiveBuildPanicsUnvalidated: Build must fail loudly, not emit a
// silently empty stream, if an entry point skipped Validate.
func TestCollectiveBuildPanicsUnvalidated(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Build with unvalidated degenerate params did not panic")
		}
		if !strings.Contains(r.(string), "unvalidated") {
			t.Fatalf("panic message %q does not explain the contract", r)
		}
	}()
	AllReduce(CollectiveParams{Sharers: 32}).Build(0, 16, ScaleTiny)
}

// TestSegRandRejectsDegenerateSpan: the segment machinery itself refuses a
// zero-span random segment instead of spinning on an empty range.
func TestSegRandRejectsDegenerateSpan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("segRand with span 0 did not panic")
		}
	}()
	newSegStream([]segment{{kind: segRand, base: sharedBase, span: 0, n: 5}}).Next()
}

// TestAllReduceRingNeighborSharing: with one ring channel, rank 5 reads only
// its ring predecessor's buffer and writes only its own — the neighbor-only
// traffic that makes rings unicast (and honestly push-free).
func TestAllReduceRingNeighborSharing(t *testing.T) {
	p, err := CollectiveParams{}.resolve(colAllReduce, 16, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	loads, stores := collect(t, AllReduce(CollectiveParams{}), 5)
	if len(loads) == 0 || len(stores) == 0 {
		t.Fatal("rank 5 issued no traffic")
	}
	for _, a := range loads {
		if !inBuf(a, 4, p.payload) {
			t.Fatalf("allreduce rank 5 load %#x outside predecessor buffer 4", a)
		}
	}
	for _, a := range stores {
		if !inBuf(a, 5, p.payload) {
			t.Fatalf("allreduce rank 5 store %#x outside own buffer", a)
		}
	}
}

// TestBroadcastTreeSharing: children read exactly their parent's buffer —
// internal ranks relay into their own, leaves write nothing.
func TestBroadcastTreeSharing(t *testing.T) {
	p, err := CollectiveParams{}.resolve(colBroadcast, 16, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 3 is internal (children 13..15 at radix 4): reads root, relays.
	loads, stores := collect(t, Broadcast(CollectiveParams{}), 3)
	if len(loads) == 0 || len(stores) == 0 {
		t.Fatal("internal rank 3 issued no traffic")
	}
	for _, a := range loads {
		if !inBuf(a, 0, p.payload) {
			t.Fatalf("broadcast rank 3 load %#x outside parent (root) buffer", a)
		}
	}
	for _, a := range stores {
		if !inBuf(a, 3, p.payload) {
			t.Fatalf("broadcast rank 3 store %#x outside own relay buffer", a)
		}
	}
	// Rank 10 is a leaf (parent 2): pure consumer.
	loads, stores = collect(t, Broadcast(CollectiveParams{}), 10)
	if len(loads) == 0 {
		t.Fatal("leaf rank 10 issued no loads")
	}
	if len(stores) != 0 {
		t.Fatalf("leaf rank 10 issued %d stores; leaves must only consume", len(stores))
	}
	for _, a := range loads {
		if !inBuf(a, 2, p.payload) {
			t.Fatalf("broadcast leaf 10 load %#x outside parent buffer 2", a)
		}
	}
}

// TestProdConsGroupSharing: producers only write their group's double
// buffers, consumers only read them, and groups never touch each other's
// queues.
func TestProdConsGroupSharing(t *testing.T) {
	p, err := CollectiveParams{}.resolve(colProdCons, 16, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	groupBuf := func(a uint64, group int) bool {
		return inBuf(a, group*2, p.payload) || inBuf(a, group*2+1, p.payload)
	}
	// Rank 0: group 0's producer.
	loads, stores := collect(t, ProdCons(CollectiveParams{}), 0)
	if len(loads) != 0 {
		t.Fatalf("producer rank 0 issued %d loads; producers only fill", len(loads))
	}
	if len(stores) == 0 {
		t.Fatal("producer rank 0 issued no stores")
	}
	for _, a := range stores {
		if !groupBuf(a, 0) {
			t.Fatalf("prodcons producer store %#x outside group 0's queue", a)
		}
	}
	// Rank 6: a consumer in group 1.
	loads, stores = collect(t, ProdCons(CollectiveParams{}), 6)
	if len(stores) != 0 {
		t.Fatalf("consumer rank 6 issued %d stores; consumers only read", len(stores))
	}
	if len(loads) == 0 {
		t.Fatal("consumer rank 6 issued no loads")
	}
	for _, a := range loads {
		if !groupBuf(a, 1) {
			t.Fatalf("prodcons consumer load %#x outside group 1's queue", a)
		}
		if groupBuf(a, 0) {
			t.Fatalf("prodcons consumer load %#x leaked into group 0's queue", a)
		}
	}
}

// TestCollectiveParamsSignature: the memo identity distinguishes every knob.
func TestCollectiveParamsSignature(t *testing.T) {
	base := CollectiveParams{}
	variants := []CollectiveParams{
		{Sharers: 8}, {Fanout: 2}, {ChunkLines: 8}, {PayloadLines: 512}, {Iters: 7},
	}
	seen := map[string]bool{base.sig(): true}
	for _, v := range variants {
		if seen[v.sig()] {
			t.Errorf("params %+v collide on signature %q", v, v.sig())
		}
		seen[v.sig()] = true
	}
	if Broadcast(CollectiveParams{Fanout: 2}).Params == Broadcast(CollectiveParams{Fanout: 4}).Params {
		t.Error("same-name collectives with different fanout share a Params signature")
	}
}

// chunkedStreams is the FNV-1a digest of every core's ops, in core order,
// of each collective at tiny scale, recorded while a producer's or
// consumer's pass was built chunk by chunk.
var chunkedStreams = map[string]uint64{
	"allreduce 16": 0x9748ccc7fbe6cb12, "broadcast 16": 0x3edd2dafc8b4d2e8,
	"reducescatter 16": 0x1c8a2866f3424db8, "prodcons 16": 0xfc3845302ae2d2b5,
	"allreduce 64": 0xd97e729ba5e05197, "broadcast 64": 0xf22514253e6743e6,
	"reducescatter 64": 0xa69cb4d2e4488384, "prodcons 64": 0xa5c7bc4ad4eeaeec,
}

// TestCollectivePassesMatchChunks: a producer's or consumer's pass over a
// buffer is one scan, and its op stream is the one the same pass cut into
// chunk-sized scans emits. For each collective at 16 and 64 cores, every
// core's stream is compared op by op with the stream of its segments,
// every scan longer than a chunk cut into chunks (a copy step's scans are a
// chunk each already), and all of them with the streams recorded while
// passes were built chunk by chunk.
func TestCollectivePassesMatchChunks(t *testing.T) {
	for _, cores := range []int{16, 64} {
		for _, wl := range Collectives() {
			cut, h := 0, fnv.New64a()
			for core := range cores {
				segs := wl.Build(core, cores, ScaleTiny).(*segStream).segs
				var chunked []segment
				for _, s := range segs {
					if s.kind != segScan || s.lines <= defaultChunkLines {
						chunked = append(chunked, s)
						continue
					}
					if s.lines%defaultChunkLines != 0 || s.stride != 0 || s.base2 != 0 || s.skipDenom != 0 {
						t.Fatalf("%s core %d of %d: a pass %+v that is not whole plain chunks", wl.Name, core, cores, s)
					}
					for off := 0; off < s.lines; off += defaultChunkLines {
						c := s
						c.base, c.lines = s.base+uint64(off)*noc.LineBytes, defaultChunkLines
						chunked = append(chunked, c)
					}
					cut++
				}
				got := drain(t, newSegStream(segs), 2_000_000)
				want := drain(t, newSegStream(chunked), 2_000_000)
				if len(got) != len(want) {
					t.Fatalf("%s core %d of %d: %d ops, %d cut into chunks", wl.Name, core, cores, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s core %d of %d: op %d is %+v, %+v cut into chunks", wl.Name, core, cores, i, got[i], want[i])
					}
					fmt.Fprintf(h, "%d %d %d %#x\n", core, got[i].Kind, got[i].N, got[i].Addr)
				}
			}
			if cut == 0 {
				t.Fatalf("%s at %d cores: no pass longer than a chunk", wl.Name, cores)
			}
			name := fmt.Sprintf("%s %d", wl.Name, cores)
			if got, want := h.Sum64(), chunkedStreams[name]; got != want {
				t.Fatalf("%s: the streams digest to %#x, recorded %#x while passes were built chunk by chunk", name, got, want)
			}
		}
	}
}
