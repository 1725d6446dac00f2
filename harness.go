package pushmulticast

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"pushmulticast/internal/workload"
)

// ExpOptions controls the experiment harness.
type ExpOptions struct {
	// Scale selects workload input sizing. ScaleQuick (the default) pairs
	// scaled-down caches with scaled-down inputs so the paper's pressure
	// ratios are preserved at a fraction of the runtime; ScaleFull uses
	// the unscaled Table I machine.
	Scale Scale
	// Cores is 16 (default), 64, or 256; anything else is an error from every
	// figure.
	Cores int
	// Workloads restricts the workload set (nil = figure default).
	Workloads []string
	// Parallelism bounds concurrent simulations, each on one goroutine; it
	// is clamped into [1, GOMAXPROCS] (0 = GOMAXPROCS).
	Parallelism int
	// Check enables the runtime invariant checker on every simulation in
	// the campaign (tier-1 tests and short campaigns; leave off for
	// benchmarking — the checker adds per-cycle work).
	Check bool
	// Faults, when non-nil, enables the deterministic fault-injection layer
	// on every simulation in the campaign (see FaultPlan).
	Faults *FaultPlan
}

func (o ExpOptions) withDefaults() ExpOptions {
	if o.Cores == 0 {
		o.Cores = 16
	}
	if budget := runtime.GOMAXPROCS(0); o.Parallelism <= 0 || o.Parallelism > budget {
		o.Parallelism = budget
	}
	return o
}

// baseConfig returns the machine for the options: full caches at ScaleFull,
// quick-scaled otherwise. An unsupported core count is a one-line error.
func (o ExpOptions) baseConfig() (Config, error) {
	cfg, err := machineFor(o.Cores, o.Scale)
	if err != nil {
		return cfg, err
	}
	cfg.Check = o.Check
	cfg.Faults = o.Faults
	return cfg, nil
}

// pickWorkloads resolves the workload set.
func (o ExpOptions) pickWorkloads(def []Workload) ([]Workload, error) {
	if len(o.Workloads) == 0 {
		return def, nil
	}
	var out []Workload
	for _, name := range o.Workloads {
		wl, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, wl)
	}
	return out, nil
}

// runMemo caches completed runs across the whole campaign (experiment
// figures and the simd service alike), keyed by the full configuration plus
// workload and scale: several exp_* figures share identical baseline runs,
// and the kernel's determinism guarantees a cached Results is
// indistinguishable from a fresh one. Entries are shared read-only —
// Results.Stats points at one bundle, and figure code must not mutate it.
// Each key is simulated exactly once: a goroutine arriving while the run is
// in flight waits on the entry instead of duplicating the work.
//
// Completed entries live on a size-bounded LRU list (lru front = most
// recent); the memo used to grow without bound, pinning every distinct run's
// full Results forever — a real leak for a long-lived daemon. In-flight
// entries are not on the list and therefore can never be evicted; eviction
// only unlinks an entry from the map, so waiters holding the entry pointer
// are never broken — an evicted key simply re-simulates on next lookup, and
// determinism makes the re-run byte-identical.
var runMemo struct {
	sync.Mutex
	m   map[memoKey]*memoEntry
	lru *list.List // completed entries only; front = most recently used
	cap int        // 0 = DefaultRunMemoCapacity; set via SetRunMemoCapacity
	// Campaign-level counters (see RunMemoStats). A hit is a lookup that
	// found an entry, completed or in flight; a miss starts a simulation.
	hits, misses, evictions uint64
}

// DefaultRunMemoCapacity bounds the completed-run memo when
// SetRunMemoCapacity was never called. Sized for campaign reuse (every
// figure of the paper's evaluation fits with room to spare) while keeping a
// long-lived daemon's footprint bounded: a full Results bundle is a few
// hundred KB at 256 cores.
const DefaultRunMemoCapacity = 512

// SetRunMemoCapacity bounds the number of completed runs the campaign memo
// retains (least-recently-used eviction; in-flight runs are pinned and never
// count against the bound). n <= 0 restores DefaultRunMemoCapacity. It
// returns the previous bound. Shrinking evicts immediately.
func SetRunMemoCapacity(n int) int {
	runMemo.Lock()
	defer runMemo.Unlock()
	prev := runMemo.cap
	if prev == 0 {
		prev = DefaultRunMemoCapacity
	}
	if n <= 0 {
		n = DefaultRunMemoCapacity
	}
	runMemo.cap = n
	evictLocked()
	return prev
}

// MemoStats is the campaign memo's observability snapshot (see /metrics in
// the simd service).
type MemoStats struct {
	// Hits counts lookups that found an entry — completed or joined in
	// flight; Misses counts lookups that started a simulation. Evictions
	// counts completed entries dropped by the LRU bound.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Entries is the completed-entry count; InFlight the pinned running runs.
	Entries  int `json:"entries"`
	InFlight int `json:"in_flight"`
}

// RunMemoStats returns the campaign memo's counters. ClearRunMemo resets
// them.
func RunMemoStats() MemoStats {
	runMemo.Lock()
	defer runMemo.Unlock()
	s := MemoStats{Hits: runMemo.hits, Misses: runMemo.misses, Evictions: runMemo.evictions}
	if runMemo.lru != nil {
		s.Entries = runMemo.lru.Len()
	}
	s.InFlight = len(runMemo.m) - s.Entries
	return s
}

// evictLocked drops least-recently-used completed entries until the memo is
// within its bound. In-flight entries are not on the list, so a running
// simulation — and every waiter parked on it — is immune.
func evictLocked() {
	if runMemo.lru == nil {
		return
	}
	max := runMemo.cap
	if max == 0 {
		max = DefaultRunMemoCapacity
	}
	for runMemo.lru.Len() > max {
		back := runMemo.lru.Back()
		old := back.Value.(*memoEntry)
		runMemo.lru.Remove(back)
		old.elem = nil
		delete(runMemo.m, old.key)
		runMemo.evictions++
	}
}

// memoEntry is one in-flight or completed run; done closes when res/err are
// final. id is the run's identity, so NewRun answers a run the memo holds
// without formatting it again.
type memoEntry struct {
	key  memoKey
	id   string
	done chan struct{}
	res  Results
	err  error
	// refs counts waiters interested in an in-flight run and cancel aborts
	// it (both guarded by the runMemo mutex; cancel is nil once the run
	// settles). The simulation executes under its own context, detached from
	// any single waiter: a canceled request only stops the machine loop when
	// it was the LAST waiter — concurrent identical requests neither kill
	// each other's shared run nor keep a run alive after everyone left.
	refs   int
	cancel context.CancelFunc
	// elem is the entry's LRU position; nil while in flight (pinned — an
	// in-flight entry can never be evicted) and again after eviction.
	elem *list.Element
	// ans is the completed run's wire answer, rendered on the first lookup
	// that asks for it and shared read-only afterwards.
	ans *RunAnswer
}

// ClearRunMemo empties the campaign-level run memo and resets its counters
// (tests). In-flight runs complete normally and release their waiters; their
// entries are simply no longer found by later lookups.
func ClearRunMemo() {
	runMemo.Lock()
	runMemo.m = nil
	runMemo.lru = nil
	runMemo.hits, runMemo.misses, runMemo.evictions = 0, 0, 0
	runMemo.Unlock()
}

// memoized runs the singleflight-and-cache protocol for one key (see
// ResolvedRun.Execute): it returns the cached Results of an identical
// earlier run, or simulates and caches, and concurrent callers with the same
// key share one simulation. Failed runs are not cached: the entry is dropped before its
// waiters are released, so a later retry re-simulates. The hit return is
// true when the lookup found an existing entry (completed, or joined in
// flight). The simulation executes on its own goroutine under a
// context detached from any individual caller; every caller — the one that
// started the run included — waits on the entry or on its own ctx, whichever
// fires first, so a canceled caller returns promptly while the run keeps
// going for the remaining waiters and is aborted only when the last one
// abandons it.
func memoized(ctx context.Context, key memoKey, id string, run func(context.Context) (Results, error)) (Results, bool, error) {
	runMemo.Lock()
	if runMemo.m == nil {
		runMemo.m = make(map[memoKey]*memoEntry)
		runMemo.lru = list.New()
	}
	if e, ok := runMemo.m[key]; ok {
		runMemo.hits++
		if e.elem != nil {
			// Completed: res/err are final (published under this mutex).
			runMemo.lru.MoveToFront(e.elem)
			runMemo.Unlock()
			return e.res, true, e.err
		}
		e.refs++
		runMemo.Unlock()
		return waitMemo(ctx, e, true)
	}
	runMemo.misses++
	// The run's context carries the first caller's values but not its
	// cancellation: it is canceled when the last interested waiter leaves,
	// not when any one of them does.
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	e := &memoEntry{key: key, id: id, done: make(chan struct{}), refs: 1, cancel: cancel}
	runMemo.m[key] = e
	runMemo.Unlock()
	go func() {
		res, err := run(runCtx)
		cancel() // release the context's resources; res/err are already final
		runMemo.Lock()
		e.res, e.err = res, err
		e.cancel = nil
		if runMemo.m[e.key] == e { // may have been cleared mid-flight
			if err != nil {
				delete(runMemo.m, e.key)
			} else {
				e.elem = runMemo.lru.PushFront(e)
				evictLocked()
			}
		}
		close(e.done)
		runMemo.Unlock()
	}()
	return waitMemo(ctx, e, false)
}

// memoFinished answers a key whose run completed (see ResolvedRun.Execute):
// the lookup counts as a hit and refreshes the entry's LRU position, as
// memoized's own completed branch does. Completed entries are successful:
// a failed run leaves the memo before its waiters are released.
func memoFinished(key memoKey) (Results, bool) {
	runMemo.Lock()
	defer runMemo.Unlock()
	e, ok := runMemo.m[key]
	if !ok || e.elem == nil {
		return Results{}, false
	}
	runMemo.hits++
	runMemo.lru.MoveToFront(e.elem)
	return e.res, true
}

// memoAnswer returns the wire answer of r if its entry completed (see
// ResolvedRun.Answered), rendering it on the first call. Like memoIdentity it
// is not a hit: RunAnswer.Hit counts one when the answer is served.
func memoAnswer(r ResolvedRun) (*RunAnswer, bool) {
	key := r.key()
	runMemo.Lock()
	defer runMemo.Unlock()
	e, ok := runMemo.m[key]
	if !ok || e.elem == nil {
		return nil, false
	}
	if e.ans == nil {
		rec := r.Record(e.res, true, nil)
		line, _ := json.Marshal(rec) // a RunRecord always marshals
		e.ans = &RunAnswer{Record: rec, Line: append(line, '\n'), e: e}
	}
	return e.ans, true
}

// memoHit counts a hit on a completed entry and refreshes its LRU position,
// as memoFinished does. An entry evicted or cleared since it was looked up
// still counts: its answer was served from the memo.
func memoHit(e *memoEntry) {
	runMemo.Lock()
	runMemo.hits++
	if e.elem != nil {
		runMemo.lru.MoveToFront(e.elem) // a no-op once ClearRunMemo replaced the list
	}
	runMemo.Unlock()
}

// memoIdentity returns the identity of a run the memo holds, completed or in
// flight. It is not a hit: it counts nothing and moves no LRU position.
func memoIdentity(key memoKey) (string, bool) {
	runMemo.Lock()
	defer runMemo.Unlock()
	e, ok := runMemo.m[key]
	if !ok {
		return "", false
	}
	return e.id, true
}

// waitMemo parks one caller on an in-flight entry. A caller whose own
// context fires first drops its reference — the last to leave cancels the
// run — and returns a wrapped ErrCanceled without waiting for the machine
// loop to notice.
func waitMemo(ctx context.Context, e *memoEntry, hit bool) (Results, bool, error) {
	select {
	case <-e.done:
		return e.res, hit, e.err
	case <-ctx.Done():
		runMemo.Lock()
		e.refs--
		if e.refs == 0 && e.cancel != nil {
			e.cancel()
		}
		runMemo.Unlock()
		return Results{}, hit, fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx))
	}
}

// CampaignRun simulates through the campaign memo. It is a thin wrapper kept
// for callers that hold an assembled configuration: NewRun(...).Execute.
func CampaignRun(ctx context.Context, cfg Config, wl Workload, sc Scale) (Results, bool, error) {
	return NewRun(cfg, wl, sc, nil).Execute(ctx)
}

// RunIdentity returns a run's deterministic identity. It is a thin wrapper
// kept for callers that hold an assembled configuration:
// NewRun(...).Identity; snap is the warm-start donor, empty for a cold run.
func RunIdentity(cfg Config, wl Workload, sc Scale, snap []byte) string {
	return NewRun(cfg, wl, sc, snap).Identity()
}

// executeAll executes the runs on at most workers goroutines — never more
// simulations in flight than that — and returns their results in run order.
// It joins the distinct errors, each prefixed with label(i): a broken
// configuration tends to sink every run the same way, and one copy per cause
// reads better than len(runs) copies. After the first failure, or once ctx
// fires, the remaining runs drain unrun; a ctx that fired before any run
// could fail is still an error (wrapped ErrCanceled), never a silent set of
// empty results.
func executeAll(ctx context.Context, workers int, runs []ResolvedRun, label func(i int) string) ([]Results, error) {
	var (
		mu   sync.Mutex
		errs []error
		seen = make(map[string]bool)
		wg   sync.WaitGroup
	)
	results := make([]Results, len(runs))
	jobs := make(chan int)
	for w := 0; w < min(workers, len(runs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				mu.Lock()
				stop := len(errs) > 0
				mu.Unlock()
				if stop || ctx.Err() != nil {
					continue
				}
				res, _, err := runs[i].Execute(ctx)
				results[i] = res
				if err != nil {
					mu.Lock()
					if msg := err.Error(); !seen[msg] {
						seen[msg] = true
						errs = append(errs, fmt.Errorf("%s: %w", label(i), err))
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range runs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if len(errs) == 0 && ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx))
	}
	return results, errors.Join(errs...)
}

// speedup returns baseline-cycles / scheme-cycles. A zero cycle count on
// either side marks a broken run; it is reported as an error instead of
// silently producing a 0 (or Inf) that would poison campaign geomeans.
func speedup(base, scheme Results) (float64, error) {
	if base.Cycles == 0 || scheme.Cycles == 0 {
		return 0, fmt.Errorf("speedup %s/%s: zero cycle count (base %s=%d, scheme %s=%d)",
			scheme.Scheme, scheme.Workload, base.Scheme, base.Cycles, scheme.Scheme, scheme.Cycles)
	}
	return float64(base.Cycles) / float64(scheme.Cycles), nil
}

// geomean returns the geometric mean of the values. An empty slice or any
// non-positive or non-finite value is an error: a single poisoned input
// (0 from a broken run, NaN/Inf from a bad ratio) would otherwise corrupt
// the campaign summary silently.
func geomean(vals []float64) (float64, error) {
	if len(vals) == 0 {
		return 0, errors.New("geomean of no values")
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return 0, fmt.Errorf("geomean: non-positive or non-finite input %v in %v", v, vals)
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals))), nil
}

// Quantile returns the q-quantile (0..1) of sorted samples, linearly
// interpolating between the two nearest ranks and rounding to the nearest
// integer. Truncating to the lower rank instead would bias high quantiles
// (P99 on a handful of samples) toward the smaller neighbour. Exported for
// the simd service's per-tenant wait-time quantiles; the experiment figures
// use it for the paper's gap distributions.
func Quantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	// Clamp the quantile to [0, 1]; a NaN q (e.g. 0/0 from an upstream
	// ratio) would otherwise flow through int(NaN), whose value is
	// platform-dependent.
	if math.IsNaN(q) || q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo < 0 {
		return sorted[0]
	}
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	a, b := float64(sorted[lo]), float64(sorted[lo+1])
	return uint64(a + (b-a)*frac + 0.5)
}

func sortU64(v []uint64) []uint64 {
	out := append([]uint64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
