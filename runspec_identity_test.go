package pushmulticast

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
)

// identityCases are the runs whose identities must not depend on whether
// NewRun formatted them or remembered them: every ExampleRunSpecs entry, a
// hand-written fault plan (pushsim's -faultplan, which no RunSpec carries), a
// warm-start fork, and two collective variants that share a name.
func identityCases(t *testing.T) map[string]ResolvedRun {
	t.Helper()
	runs := map[string]ResolvedRun{}
	resolve := func(name string, s RunSpec, lookup func(string) ([]byte, bool)) {
		r, err := s.Resolve(lookup)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs[name] = r
	}
	for _, tc := range ExampleRunSpecs() {
		resolve(tc.Name, tc.Spec, nil)
	}
	cold := ExampleRunSpecs()[0].Spec
	donor := []byte("donor snapshot bytes: only their hash reaches the identity")
	warm := cold
	warm.WarmStart = "d0"
	resolve("warm-start", warm, func(string) ([]byte, bool) { return donor, true })
	for _, fanout := range []int{2, 4} {
		s := cold
		s.Workload = WorkloadSpec{Name: "broadcast", Fanout: fanout}
		resolve(fmt.Sprintf("broadcast-fanout-%d", fanout), s, nil)
	}
	planned := runs["cold"]
	planned.Config.Faults = &FaultPlan{Seed: 3, Faults: []Fault{{Kind: FaultLinkStall, Node: 5, Port: 1, From: 100, To: 500}}}
	runs["fault-plan"] = NewRun(planned.Config, planned.Workload, planned.Scale, nil)
	return runs
}

// derivedIdentity re-derives a run's identity from its parts: the FNV-1a of
// the configuration's %+v text (fault plan left out), the fault plan's %+v
// text, the workload's name and parameters, each followed by a zero byte,
// then the scale byte and the donor's content hash, little-endian.
func derivedIdentity(r ResolvedRun) string {
	cfg, faults := r.Config, ""
	if cfg.Faults != nil {
		faults = fmt.Sprintf("%+v", *cfg.Faults)
	}
	cfg.Faults = nil
	h := fnv.New64a()
	for _, part := range []string{fmt.Sprintf("%+v", cfg), faults, r.Workload.Name, r.Workload.Params} {
		h.Write(append([]byte(part), 0))
	}
	var snap uint64
	if len(r.Donor) > 0 {
		snap = SnapshotHash(r.Donor)
	}
	tail := []byte{byte(r.Scale)}
	for i := 0; i < 8; i++ {
		tail = append(tail, byte(snap>>(8*i)))
	}
	h.Write(tail)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestIdentityRememberedEqualsFormatted pins that remembering NewRun's
// formatting pass changes no identity: for each case, the run built with an
// empty cache (one pass) and the run built again from the warm cache (no
// pass) have equal memo keys, and both identities equal the one re-derived
// here from the %+v text.
func TestIdentityRememberedEqualsFormatted(t *testing.T) {
	seen := map[string]string{}
	for name, r := range identityCases(t) {
		ClearRunKeys()
		before := runKeysBuilt.Load()
		cold := NewRun(r.Config, r.Workload, r.Scale, r.Donor)
		warm := NewRun(r.Config, r.Workload, r.Scale, r.Donor)
		if passes := runKeysBuilt.Load() - before; passes != 1 {
			t.Errorf("%s: %d formatting passes for two identical NewRun calls, want 1", name, passes)
		}
		want := derivedIdentity(r)
		if cold.Identity() != want || warm.Identity() != want || r.Identity() != want {
			t.Errorf("%s: identity formatted %s, remembered %s, resolved %s; re-derived %s",
				name, cold.Identity(), warm.Identity(), r.Identity(), want)
		}
		if cold.key != warm.key {
			t.Errorf("%s: remembered memo key differs from the formatted one", name)
		}
		if other, dup := seen[want]; dup {
			t.Errorf("%s and %s share identity %s", name, other, want)
		}
		seen[want] = name
	}
	// The one identity the service docs quote: cachebw under OrdPush on the
	// tiny 16-core machine. It moves only when Config's %+v text does.
	if r := identityCases(t)["cold"]; r.Identity() != "400b4a79153a9b6a" {
		t.Errorf("cold cachebw/OrdPush tiny/16 identity %s, want 400b4a79153a9b6a", r.Identity())
	}
}

// TestNewRunWarmAllocates0 pins the cost of a resubmitted run: once its
// configuration is remembered, NewRun is a map lookup and allocates nothing.
func TestNewRunWarmAllocates0(t *testing.T) {
	r := identityCases(t)["cold"]
	NewRun(r.Config, r.Workload, r.Scale, nil)
	if n := testing.AllocsPerRun(100, func() { NewRun(r.Config, r.Workload, r.Scale, nil) }); n != 0 {
		t.Errorf("warm NewRun allocates %v times, want 0", n)
	}
}

// TestExecuteHitAllocates0 pins that a completed memo entry is answered
// without copying the run to the heap: Execute builds its simulation closure
// only for a miss or a join.
func TestExecuteHitAllocates0(t *testing.T) {
	ClearRunMemo()
	t.Cleanup(ClearRunMemo)
	r := identityCases(t)["cold"]
	if _, _, err := memoized(context.Background(), r.key, func(context.Context) (Results, error) {
		return Results{Cycles: 7}, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if res, hit, err := r.Execute(ctx); err != nil || !hit || res.Cycles != 7 {
			t.Fatalf("Execute = %d cycles, hit %v, %v; want the memo's 7, a hit", res.Cycles, hit, err)
		}
	}); n != 0 {
		t.Errorf("Execute of a completed run allocates %v times, want 0", n)
	}
}

// TestNewRunConcurrentIdentity builds runs of one configuration from several
// goroutines at once, starting from an empty cache so they race on the
// formatting pass and its insertion, and from a full one so they race on the
// eviction. Run it with -race: every identity must be the re-derived one.
func TestNewRunConcurrentIdentity(t *testing.T) {
	r := identityCases(t)["chaos+lossy"]
	want := derivedIdentity(r)
	for _, fill := range []int{0, runKeysCapacity} {
		ClearRunKeys()
		cfg := r.Config
		for i := 0; i < fill; i++ {
			cfg.TimeWindow = 1 + i
			NewRun(cfg, r.Workload, r.Scale, nil)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if id := NewRun(r.Config, r.Workload, r.Scale, nil).Identity(); id != want {
						t.Errorf("concurrent NewRun identity %s, want %s", id, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		runKeys.Lock()
		held := len(runKeys.m)
		runKeys.Unlock()
		if held > runKeysCapacity {
			t.Errorf("runKeys holds %d passes, bound %d", held, runKeysCapacity)
		}
	}
}
