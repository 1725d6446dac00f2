package pushmulticast

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"pushmulticast/internal/workload"
)

// TestMemoLRUEviction pins the bounded-memo contract: the least-recently-used
// completed entry is evicted once the bound is exceeded, the eviction counter
// records it, and a later lookup of the evicted key re-simulates to
// byte-identical Results (fresh Stats bundle, same counters) — determinism
// makes eviction invisible except for the re-run cost.
func TestMemoLRUEviction(t *testing.T) {
	ClearRunMemo()
	prev := SetRunMemoCapacity(2)
	t.Cleanup(func() { SetRunMemoCapacity(prev); ClearRunMemo() })
	wlA, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	wlB, err := workload.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	wlC, err := workload.ByName("mv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(Default16()).WithScheme(Baseline())
	ctx := context.Background()
	resA1, hit, err := NewRun(cfg, wlA, ScaleTiny, nil).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first run of A reported a memo hit")
	}
	if _, _, err := NewRun(cfg, wlB, ScaleTiny, nil).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	// C exceeds the bound of 2; A is the least recently used and must go.
	if _, _, err := NewRun(cfg, wlC, ScaleTiny, nil).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	st := RunMemoStats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d after exceeding a bound of 2 by one; want 1", st.Evictions)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d; want 2 (the bound)", st.Entries)
	}
	keyA := NewRun(cfg, wlA, ScaleTiny, nil).key()
	runMemo.Lock()
	_, stillThere := runMemo.m[keyA]
	runMemo.Unlock()
	if stillThere {
		t.Fatal("least-recently-used entry A survived eviction")
	}
	// B must still be cached: a hit, same Stats bundle by pointer.
	resB, hitB, err := NewRun(cfg, wlB, ScaleTiny, nil).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !hitB {
		t.Fatal("B was evicted; only A (the LRU entry) should have been")
	}
	_ = resB
	// Re-running the evicted key re-simulates (miss, fresh Stats bundle) to
	// byte-identical results.
	resA2, hitA2, err := NewRun(cfg, wlA, ScaleTiny, nil).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hitA2 {
		t.Fatal("evicted key A reported a memo hit; want a re-simulation")
	}
	if resA1.Stats == resA2.Stats {
		t.Fatal("re-run of evicted A returned the old Stats bundle pointer; the entry was not really evicted")
	}
	if resA1.Cycles != resA2.Cycles || resA1.TraceHash != resA2.TraceHash ||
		resA1.TraceEvents != resA2.TraceEvents {
		t.Fatalf("re-simulation of evicted A diverged: cycles %d vs %d, trace %#x/%d vs %#x/%d",
			resA1.Cycles, resA2.Cycles, resA1.TraceHash, resA1.TraceEvents, resA2.TraceHash, resA2.TraceEvents)
	}
	if !reflect.DeepEqual(resA1.Stats, resA2.Stats) {
		t.Fatal("re-simulation of evicted A produced different counters")
	}
}

// TestMemoInFlightPinned drives the singleflight protocol directly with a
// controllable run function: an in-flight entry is not on the LRU list and
// must survive any amount of eviction pressure; its waiters are released with
// the run's results once it completes.
func TestMemoInFlightPinned(t *testing.T) {
	ClearRunMemo()
	prev := SetRunMemoCapacity(1)
	t.Cleanup(func() { SetRunMemoCapacity(prev); ClearRunMemo() })
	slowKey := memoKey{workload: "slow"}
	release := make(chan struct{})
	type out struct {
		res Results
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, _, err := memoized(context.Background(), slowKey, "", func(context.Context) (Results, error) {
			<-release
			return Results{Cycles: 42}, nil
		})
		done <- out{res, err}
	}()
	// Wait for the in-flight entry to appear.
	for {
		runMemo.Lock()
		_, ok := runMemo.m[slowKey]
		runMemo.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Hammer the memo with completed entries; the bound is 1, so every new
	// completion evicts the previous one — but never the pinned in-flight run.
	for i := 0; i < 8; i++ {
		key := memoKey{workload: fmt.Sprintf("filler-%d", i)}
		if _, _, err := memoized(context.Background(), key, "", func(context.Context) (Results, error) {
			return Results{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	runMemo.Lock()
	_, ok := runMemo.m[slowKey]
	runMemo.Unlock()
	if !ok {
		t.Fatal("in-flight entry was evicted by LRU pressure; it must be pinned until completion")
	}
	close(release)
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.res.Cycles != 42 {
		t.Fatalf("waiter got Cycles=%d; want the run's 42", got.res.Cycles)
	}
}

// TestMemoLastWaiterCancelsRun pins the refcounted cancellation protocol: two
// waiters join one in-flight run; the first to cancel returns promptly and
// the run keeps going, and only when the second (last) waiter cancels is the
// run's own context fired.
func TestMemoLastWaiterCancelsRun(t *testing.T) {
	ClearRunMemo()
	t.Cleanup(ClearRunMemo)
	key := memoKey{workload: "last-waiter"}
	runCanceled := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	type out struct{ err error }
	first := make(chan out, 1)
	go func() {
		_, _, err := memoized(ctx1, key, "", func(runCtx context.Context) (Results, error) {
			<-runCtx.Done()
			close(runCanceled)
			return Results{}, fmt.Errorf("%w: aborted", ErrCanceled)
		})
		first <- out{err}
	}()
	for {
		runMemo.Lock()
		_, ok := runMemo.m[key]
		runMemo.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	second := make(chan out, 1)
	go func() {
		_, _, err := memoized(ctx2, key, "", func(context.Context) (Results, error) {
			t.Error("joining an in-flight entry started a second simulation")
			return Results{}, nil
		})
		second <- out{err}
	}()
	// Wait until the second caller has registered its reference.
	for {
		runMemo.Lock()
		refs := runMemo.m[key].refs
		runMemo.Unlock()
		if refs == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel1()
	if got := <-first; !errors.Is(got.err, ErrCanceled) {
		t.Fatalf("first canceled waiter got %v; want ErrCanceled", got.err)
	}
	select {
	case <-runCanceled:
		t.Fatal("run was aborted while a waiter was still interested in it")
	case <-time.After(50 * time.Millisecond):
	}
	cancel2()
	if got := <-second; !errors.Is(got.err, ErrCanceled) {
		t.Fatalf("second canceled waiter got %v; want ErrCanceled", got.err)
	}
	select {
	case <-runCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("run context was never canceled after the last waiter left")
	}
}

// TestCancelReturnsPromptly256 is the regression for the cancellation gap: a
// canceled 256-core run must stop at the next cancellation barrier and return
// a wrapped ErrCanceled within a small multiple of the poll period — not
// simulate to completion for a caller that is gone.
func TestCancelReturnsPromptly256(t *testing.T) {
	wl, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(Default256()).WithScheme(OrdPush())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type out struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan out, 1)
	start := time.Now()
	go func() {
		_, err := RunWorkloadCtx(ctx, cfg, wl, ScaleTiny)
		done <- out{err, time.Since(start)}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case got := <-done:
		if !errors.Is(got.err, ErrCanceled) {
			t.Fatalf("canceled 256-core run returned %v; want a wrapped ErrCanceled", got.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled 256-core run did not return within 30s; cancellation is not being polled")
	}
}

// TestCampaignRunDedup covers the exported simd entry point: concurrent
// identical CampaignRun calls share one simulation, exactly one miss is
// recorded, and every caller reports the correct hit flag.
func TestCampaignRunDedup(t *testing.T) {
	ClearRunMemo()
	t.Cleanup(ClearRunMemo)
	wl, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(Default16()).WithScheme(PushAck())
	const callers = 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	misses := 0
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := CampaignRun(context.Background(), cfg, wl, ScaleTiny)
			if err != nil {
				t.Error(err)
				return
			}
			if !hit {
				mu.Lock()
				misses++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if misses != 1 {
		t.Fatalf("%d callers reported a miss; exactly 1 must have started the simulation", misses)
	}
	if st := RunMemoStats(); st.Misses != 1 {
		t.Fatalf("memo recorded %d misses for %d identical concurrent calls; want 1", st.Misses, callers)
	}
}

// TestRunIdentityStable pins the run-identity contract the simd service keys
// its response cache by: deterministic across calls, sensitive to every key
// component (config, workload, scale, warm-start donor), insensitive to
// fault-plan pointer identity.
func TestRunIdentityStable(t *testing.T) {
	wlA, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	wlB, err := workload.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
	id := RunIdentity(cfg, wlA, ScaleTiny, nil)
	if id != RunIdentity(cfg, wlA, ScaleTiny, nil) {
		t.Fatal("RunIdentity is not deterministic")
	}
	if id == RunIdentity(cfg, wlB, ScaleTiny, nil) {
		t.Fatal("workload does not separate run identities")
	}
	if id == RunIdentity(cfg, wlA, ScaleQuick, nil) {
		t.Fatal("scale does not separate run identities")
	}
	other := cfg.WithScheme(PushAck())
	if id == RunIdentity(other, wlA, ScaleTiny, nil) {
		t.Fatal("scheme does not separate run identities")
	}
	if id == RunIdentity(cfg, wlA, ScaleTiny, []byte("snapshot")) {
		t.Fatal("warm-start donor does not separate run identities")
	}
}

// TestWithDefaultsHostBudget is the oversubscription regression: whatever
// Parallelism asks for — defaulted, modest, absurd, negative — the resolved
// value lies in [1, GOMAXPROCS], so a campaign never schedules more
// simulations (one goroutine each) than the host has processors. The
// explicit path used to skip the clamp entirely.
func TestWithDefaultsHostBudget(t *testing.T) {
	maxProcs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name        string
		parallelism int
	}{
		{"all-defaulted", 0},
		{"explicit-modest", 1},
		{"oversubscribed-parallelism", 4 * maxProcs},
		{"negative-parallelism", -3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := ExpOptions{Parallelism: tc.parallelism}.withDefaults()
			if o.Parallelism < 1 || o.Parallelism > maxProcs {
				t.Fatalf("Parallelism resolved to %d on a GOMAXPROCS=%d host", o.Parallelism, maxProcs)
			}
			// An explicit in-budget request must be honored, not shrunk.
			if tc.parallelism > 0 && tc.parallelism <= maxProcs && o.Parallelism != tc.parallelism {
				t.Fatalf("in-budget explicit Parallelism %d was changed to %d", tc.parallelism, o.Parallelism)
			}
		})
	}
}

// TestExecuteAllCanceledBeforeStart pins the fan-out's cancellation edge: a
// context that fired before any run started drains every run unrun, and that
// must surface as a wrapped ErrCanceled — it used to return a full set of
// zero Results and a nil error.
func TestExecuteAllCanceledBeforeStart(t *testing.T) {
	wl, err := workload.ByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := []ResolvedRun{NewRun(cfg, wl, ScaleTiny, nil), NewRun(cfg.WithScheme(Baseline()), wl, ScaleTiny, nil)}
	res, err := executeAll(ctx, 2, runs, func(i int) string { return fmt.Sprint(i) })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("executeAll under a fired context returned %v, %v; want a wrapped ErrCanceled", res, err)
	}
}
