package workload

import (
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

// TestCollectiveValidate is the table-driven error-text regression for the
// degenerate-parameter sweep: every bad combination yields a one-line
// diagnostic naming the offending knob; zero values are always valid.
func TestCollectiveValidate(t *testing.T) {
	build := map[string]func(CollectiveParams) Workload{
		"allreduce": AllReduce, "broadcast": Broadcast,
		"reducescatter": ReduceScatter, "prodcons": ProdCons,
	}
	cases := []struct {
		name  string
		kind  string
		p     CollectiveParams
		cores int
		want  string // "" = must validate cleanly
	}{
		{"allreduce defaults", "allreduce", CollectiveParams{}, 16, ""},
		{"broadcast defaults", "broadcast", CollectiveParams{}, 16, ""},
		{"reducescatter defaults", "reducescatter", CollectiveParams{}, 16, ""},
		{"prodcons defaults", "prodcons", CollectiveParams{}, 16, ""},
		{"explicit consistent params", "allreduce",
			CollectiveParams{Sharers: 8, Fanout: 2, ChunkLines: 8, PayloadLines: 256, Iters: 2}, 16, ""},
		{"negative sharers", "allreduce", CollectiveParams{Sharers: -1}, 16, "Sharers -1 is negative"},
		{"negative fanout", "broadcast", CollectiveParams{Fanout: -4}, 16, "Fanout -4 is negative"},
		{"negative chunk", "prodcons", CollectiveParams{ChunkLines: -16}, 16, "ChunkLines -16 is negative"},
		{"negative payload", "reducescatter", CollectiveParams{PayloadLines: -256}, 16, "PayloadLines -256 is negative"},
		{"zero-iteration loop", "allreduce", CollectiveParams{Iters: -3}, 16, "Iters -3 is negative"},
		{"sharers exceed cores", "allreduce", CollectiveParams{Sharers: 32}, 16, "32 sharers exceed the 16-core machine"},
		{"one sharer cannot ring", "allreduce", CollectiveParams{Sharers: 1}, 16, "below the minimum 2"},
		{"broadcast radix one", "broadcast", CollectiveParams{Fanout: 1}, 16, "must be at least 2"},
		{"too many ring channels", "allreduce", CollectiveParams{Sharers: 4, Fanout: 4}, 16, "ring channels"},
		{"prodcons group mismatch", "prodcons", CollectiveParams{Sharers: 16, Fanout: 2}, 16,
			"do not split into groups of 3"},
		{"prodcons too few for one group", "prodcons", CollectiveParams{Sharers: 2}, 16, "below the minimum 4"},
		{"chunk does not divide payload", "broadcast", CollectiveParams{ChunkLines: 7, PayloadLines: 100}, 16,
			"chunk size 7 lines does not divide the 100-line payload"},
		{"chunks do not distribute across sharers", "allreduce",
			CollectiveParams{Sharers: 16, ChunkLines: 16, PayloadLines: 16 * 8}, 16, "do not distribute across 16 sharers"},
		{"chunk groups do not split across channels", "reducescatter",
			CollectiveParams{Sharers: 8, Fanout: 3, ChunkLines: 16, PayloadLines: 16 * 8 * 4}, 16,
			"do not split across 3 ring channels"},
		{"small machine still works", "prodcons", CollectiveParams{Fanout: 3}, 4, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := build[tc.kind](tc.p).Validate(tc.cores)
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
