package pushmulticast

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"
)

// identityCases are the runs whose identities must not depend on whether
// NewRun formatted them or read them off a memo entry: every ExampleRunSpecs
// entry, a
// hand-written fault plan (pushsim's -faultplan, which no RunSpec carries), a
// warm-start fork, and two collective variants that share a name.
func identityCases(t *testing.T) map[string]ResolvedRun {
	t.Helper()
	runs := map[string]ResolvedRun{}
	resolve := func(name string, s RunSpec, lookup func(string) ([]byte, uint64, bool)) {
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
	resolve("warm-start", warm, func(string) ([]byte, uint64, bool) { return donor, SnapshotHash(donor), true })
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

// holdInFlight enters r in the campaign memo as a run in flight and returns
// the function that completes it (with a made-up result, so nothing is
// simulated).
func holdInFlight(t *testing.T, r ResolvedRun) (complete func()) {
	t.Helper()
	release, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := memoized(context.Background(), r.key(), r.Identity(), func(context.Context) (Results, error) {
			<-release
			return Results{Cycles: 7}, nil
		}); err != nil {
			t.Error(err)
		}
	}()
	for {
		if e, _ := memoLookup(r.key()); e != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return func() { close(release); <-done }
}

// TestIdentityRememberedEqualsFormatted pins that reading an identity off
// the memo changes none: for each case, the run built with the memo empty
// (one formatting pass), built again while its entry is in flight and once
// it completed (no pass), has one memo key, and every identity equals the
// one re-derived here from the %+v text.
func TestIdentityRememberedEqualsFormatted(t *testing.T) {
	ClearRunMemo()
	t.Cleanup(ClearRunMemo)
	seen := map[string]string{}
	for name, r := range identityCases(t) {
		ClearRunMemo()
		before := identitiesFormatted.Load()
		formatted := NewRun(r.Config, r.Workload, r.Scale, r.Donor)
		complete := holdInFlight(t, formatted)
		inFlight := NewRun(r.Config, r.Workload, r.Scale, r.Donor)
		complete()
		completed := NewRun(r.Config, r.Workload, r.Scale, r.Donor)
		if passes := identitiesFormatted.Load() - before; passes != 1 {
			t.Errorf("%s: %d formatting passes for a run built before, during and after its memo entry, want 1", name, passes)
		}
		want := derivedIdentity(r)
		for _, got := range []ResolvedRun{r, formatted, inFlight, completed} {
			if got.Identity() != want {
				t.Errorf("%s: identity resolved %s, formatted %s, in flight %s, completed %s; re-derived %s",
					name, r.Identity(), formatted.Identity(), inFlight.Identity(), completed.Identity(), want)
				break
			}
		}
		if formatted.key() != inFlight.key() || formatted.key() != completed.key() || formatted.key() != r.key() {
			t.Errorf("%s: a memo-held run's key differs from the formatted one", name)
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

// TestNewRunWarmAllocates0 pins the cost of a resubmitted run: once the memo
// holds it, in flight or completed, NewRun is a map lookup that formats
// nothing and allocates nothing.
func TestNewRunWarmAllocates0(t *testing.T) {
	ClearRunMemo()
	t.Cleanup(ClearRunMemo)
	r := identityCases(t)["cold"]
	check := func(state string) {
		before := identitiesFormatted.Load()
		if n := testing.AllocsPerRun(100, func() { NewRun(r.Config, r.Workload, r.Scale, nil) }); n != 0 {
			t.Errorf("NewRun of a run %s allocates %v times, want 0", state, n)
		}
		if passes := identitiesFormatted.Load() - before; passes != 0 {
			t.Errorf("NewRun of a run %s formatted %d times, want 0", state, passes)
		}
	}
	complete := holdInFlight(t, r)
	check("in flight")
	complete()
	check("completed")
}

// TestNewRunCountsNoHit pins that reading an identity off the memo is not a
// lookup for results: it counts no hit and no miss, and leaves the entry's
// LRU position where it was, so a shrink still evicts the older run.
func TestNewRunCountsNoHit(t *testing.T) {
	ClearRunMemo()
	prev := SetRunMemoCapacity(0)
	t.Cleanup(func() { SetRunMemoCapacity(prev); ClearRunMemo() })
	cases := identityCases(t)
	older, newer := cases["cold"], cases["chaos+lossy"]
	holdInFlight(t, older)()
	holdInFlight(t, newer)()
	stats := RunMemoStats()
	for i := 0; i < 10; i++ {
		NewRun(older.Config, older.Workload, older.Scale, nil)
	}
	if got := RunMemoStats(); got != stats {
		t.Errorf("NewRun of a memo-held run moved the memo's counters: %+v, was %+v", got, stats)
	}
	SetRunMemoCapacity(1)
	if _, done := memoLookup(older.key()); done {
		t.Error("the older run survived a shrink to 1: NewRun moved it to the LRU front")
	}
	if _, done := memoLookup(newer.key()); !done {
		t.Error("the newer run was evicted by a shrink to 1")
	}
}

// TestResolveCarriesLookupHash pins that a warm start is hashed where its
// bytes enter the process, not again at resolve: the run carries the hash
// the lookup handed over, whatever it is, and its identity is built from it.
func TestResolveCarriesLookupHash(t *testing.T) {
	spec := ExampleRunSpecs()[0].Spec
	spec.WarmStart = "d0"
	donor := []byte("donor snapshot bytes")
	for _, hash := range []uint64{SnapshotHash(donor), 0x5eed} {
		r, err := spec.Resolve(func(string) ([]byte, uint64, bool) { return donor, hash, true })
		if err != nil {
			t.Fatal(err)
		}
		if r.DonorHash() != hash {
			t.Errorf("resolved run carries donor hash %#x, the lookup handed over %#x", r.DonorHash(), hash)
		}
		if hash == SnapshotHash(donor) && r.Identity() != RunIdentity(r.Config, r.Workload, r.Scale, donor) {
			t.Errorf("warm identity %s through the lookup's hash, %s through RunIdentity", r.Identity(), RunIdentity(r.Config, r.Workload, r.Scale, donor))
		}
	}
}

// TestExecuteHitAllocates0 pins that a completed memo entry is answered
// without copying the run to the heap: Execute builds its simulation closure
// only for a miss or a join.
func TestExecuteHitAllocates0(t *testing.T) {
	ClearRunMemo()
	t.Cleanup(ClearRunMemo)
	r := identityCases(t)["cold"]
	holdInFlight(t, r)()
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
// goroutines while the memo's entry for it goes through its whole life: a
// real Execute puts it in flight and completes it, a shrink evicts it, and
// ClearRunMemo drops it. Run it with -race: every identity must be the
// re-derived one, whether formatted or read off the entry.
func TestNewRunConcurrentIdentity(t *testing.T) {
	ClearRunMemo()
	prev := SetRunMemoCapacity(0)
	t.Cleanup(func() { SetRunMemoCapacity(prev); ClearRunMemo() })
	cases := identityCases(t)
	r, filler := cases["collective-params"], cases["cold"]
	want := derivedIdentity(r)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if id := NewRun(r.Config, r.Workload, r.Scale, nil).Identity(); id != want {
					t.Errorf("concurrent NewRun identity %s, want %s", id, want)
					return
				}
			}
		}()
	}
	ctx := context.Background()
	if _, hit, err := r.Execute(ctx); err != nil || hit {
		t.Errorf("first Execute: hit %v, %v; want a miss", hit, err)
	}
	holdInFlight(t, filler)() // the newer entry: a shrink to 1 evicts r
	SetRunMemoCapacity(1)
	SetRunMemoCapacity(0)
	if _, hit, err := r.Execute(ctx); err != nil || hit {
		t.Errorf("Execute after eviction: hit %v, %v; want a miss", hit, err)
	}
	ClearRunMemo()
	close(stop)
	wg.Wait()
}
