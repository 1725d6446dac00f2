package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pushmulticast"
	"pushmulticast/internal/snapshot"
)

// Options configures a shard coordinator. Zero values select defaults sized
// for a local replica cluster.
type Options struct {
	// Workers lists the replica base URLs shards dispatch to (e.g.
	// "http://127.0.0.1:18081"). At least one is required.
	Workers []string
	// ShardSize groups this many runs per shard (0 = 1). Smaller shards
	// rebalance faster after a replica dies; larger ones amortize dispatch.
	ShardSize int
	// MaxRetries bounds remote re-dispatches per shard beyond the first
	// attempt (0 = 4). An exhausted shard degrades to local execution.
	MaxRetries int
	// Timeout bounds one dispatch attempt end to end (0 = 2m). A worker that
	// goes silent mid-shard is abandoned at the timeout and the shard
	// reassigned.
	Timeout time.Duration
	// BackoffBase/BackoffMax shape the exponential backoff between retries
	// (0 = 100ms / 5s). Each delay is jittered uniformly in [d/2, d) so a
	// burst of failed shards does not re-dispatch in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HealthInterval is the /healthz probe period (0 = 2s); ProbeTimeout
	// bounds one probe (0 = 1s). A probe failure opens the replica's circuit
	// (no shards are assigned to it); a later success closes it again.
	HealthInterval time.Duration
	ProbeTimeout   time.Duration
	// Journal records completed runs for crash resume and deduplication
	// (nil = a fresh memory-only journal).
	Journal *Journal
	// Local executes one run in-process — the bottom of the degradation
	// ladder, used when no replica is healthy or a shard exhausted its
	// retries. Required.
	Local func(ctx context.Context, tenant string, u Unit) RunRecord
	// Logf reports recoveries, reassignments, and degradations loudly
	// (nil = silent).
	Logf func(format string, args ...any)
}

// replica is one worker endpoint with its circuit state.
type replica struct {
	url     string
	healthy atomic.Bool
	// mu guards snapSent and serializes donor uploads to this replica, so
	// concurrent shards of one warm campaign upload the donor exactly once.
	mu sync.Mutex
	// snapSent is the content hash of the last warm-start donor uploaded to
	// this replica (0 = none).
	snapSent uint64
}

// Coordinator dispatches campaign shards across worker replicas with retry,
// reassignment, health-driven circuit breaking, local degradation, and
// journaled crash resume. One Coordinator serves many campaigns; create with
// New and Close on shutdown.
type Coordinator struct {
	opts     Options
	replicas []*replica
	client   *http.Client
	journal  *Journal
	rr       atomic.Uint64 // round-robin cursor over healthy replicas

	stop     chan struct{}
	healthWG sync.WaitGroup

	// Cumulative counters for /metrics (see Metrics).
	dispatched    atomic.Uint64
	retries       atomic.Uint64
	reassigned    atomic.Uint64
	degradedLocal atomic.Uint64
	recovered     atomic.Uint64
	conflicts     atomic.Uint64

	waitMu sync.Mutex
	waits  []uint64 // per-shard wall times (ns), bounded ring
}

// shardWaitSamples bounds the per-shard wait history backing the quantiles.
const shardWaitSamples = 512

// New builds a coordinator over the replica set and starts its health-probe
// loop. Close stops the loop.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("shard: no worker replicas configured")
	}
	if opts.Local == nil {
		return nil, fmt.Errorf("shard: no local executor configured (the degradation ladder needs a bottom rung)")
	}
	if opts.ShardSize <= 0 {
		opts.ShardSize = 1
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 4
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Minute
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 100 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 2 * time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = time.Second
	}
	if opts.Journal == nil {
		opts.Journal = NewMemJournal()
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		opts:    opts,
		client:  &http.Client{}, // per-attempt deadlines come from Timeout
		journal: opts.Journal,
		stop:    make(chan struct{}),
	}
	for _, url := range opts.Workers {
		r := &replica{url: url}
		r.healthy.Store(true) // optimistic: the first dispatch or probe decides
		c.replicas = append(c.replicas, r)
	}
	c.healthWG.Add(1)
	go c.healthLoop()
	return c, nil
}

// Close stops the health-probe loop. In-flight Run calls finish normally.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.healthWG.Wait()
}

// Journal returns the coordinator's journal (for metrics and tests).
func (c *Coordinator) Journal() *Journal { return c.journal }

// RunStats summarizes one campaign's trip through the coordinator: how many
// shards it split into, how many runs were recovered from the journal versus
// freshly computed, and what the fault-tolerance machinery had to do to get
// them. The tags are the campaign summary line's keys.
type RunStats struct {
	Shards        int `json:"shards,omitempty"`
	Recovered     int `json:"recovered,omitempty"`  // runs served from the journal without dispatch
	Recomputed    int `json:"recomputed,omitempty"` // runs freshly computed (dispatched or degraded)
	Retries       int `json:"shard_retries,omitempty"`
	Reassigned    int `json:"shard_reassigned,omitempty"`
	DegradedLocal int `json:"degraded_local,omitempty"` // shards executed in-process
}

// Run distributes a campaign's units across the replica set and streams
// merged records through emit (recovered reports a journal recovery), in
// completion order. snap, when non-empty, is the warm-start donor snapshot
// every unit's spec references; it is uploaded to a replica before that
// replica's first dispatch. Run returns when every unit has been emitted
// exactly once — recovered from the journal, computed remotely, computed
// locally, or (only when ctx fires) synthesized as canceled.
func (c *Coordinator) Run(ctx context.Context, tenant string, units []Unit, snap []byte, emit func(rec RunRecord, recovered bool)) RunStats {
	var st RunStats
	var mu sync.Mutex // guards st and emitted
	emitted := make(map[string]bool, len(units))

	// Journal recovery first: completed runs never re-dispatch. Loud by
	// contract — a resumed campaign says what it skipped.
	var pending []Unit
	for _, u := range units {
		if rec, ok := c.journal.Lookup(u.RunID); ok {
			rec.Cached = true
			emitted[u.RunID] = true
			st.Recovered++
			c.recovered.Add(1)
			emit(rec, true)
			continue
		}
		pending = append(pending, u)
	}
	if st.Recovered > 0 {
		c.opts.Logf("shard: recovered %d of %d runs from journal; recomputing %d", st.Recovered, len(units), len(pending))
	}
	if len(pending) == 0 {
		return st
	}

	snapHash := uint64(0)
	if len(snap) > 0 {
		snapHash = snapshot.Hash(snap)
	}

	// Chunk the pending units into shards and dispatch them over a bounded
	// pool. Each shard completes independently: merged records stream out as
	// they land, deduplicated by run identity.
	shards := chunk(pending, c.opts.ShardSize)
	st.Shards = len(shards)
	sem := make(chan struct{}, max(2, 2*len(c.replicas))) // shards in flight at once
	var wg sync.WaitGroup
	for _, sh := range shards {
		sh := sh
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ids := make([]string, len(sh))
			for i, u := range sh {
				ids[i] = u.RunID
			}
			sid := ID(snapHash, ids)
			start := time.Now()
			recs, outcome := c.runShard(ctx, sid, tenant, sh, snap, snapHash)
			c.recordWait(time.Since(start))
			mu.Lock()
			st.Retries += outcome.retries
			st.Reassigned += outcome.reassigned
			if outcome.degraded {
				st.DegradedLocal++
			}
			for _, rec := range recs {
				if emitted[rec.ID] {
					continue // a retried shard can never double-count
				}
				emitted[rec.ID] = true
				st.Recomputed++
				if rec.Error == "" {
					if _, err := c.journal.Commit(rec); err != nil {
						c.conflicts.Add(1)
						c.opts.Logf("shard %s: %v", sid, err)
					}
				}
				rec.Cached = false
				emit(rec, false)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	// A fired campaign context may leave units unemitted; account for every
	// one of them so the caller's summary always adds up.
	mu.Lock()
	defer mu.Unlock()
	for _, u := range units {
		if !emitted[u.RunID] {
			emitted[u.RunID] = true
			st.Recomputed++
			emit(canceledRecords(ctx, []Unit{u})[0], false)
		}
	}
	return st
}

// shardOutcome reports how one shard's dispatch went.
type shardOutcome struct {
	retries    int
	reassigned int
	degraded   bool
}

// runShard walks one shard down the degradation ladder: dispatch to a
// healthy replica, retry with backoff and reassignment on failure, and
// degrade to local execution when no replica is healthy or the retry budget
// is spent. It always returns one record per unit.
func (c *Coordinator) runShard(ctx context.Context, sid, tenant string, units []Unit, snap []byte, snapHash uint64) ([]RunRecord, shardOutcome) {
	var out shardOutcome
	var prev *replica
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if ctx.Err() != nil {
			return canceledRecords(ctx, units), out
		}
		w := c.pick(prev)
		if w == nil {
			break // no healthy replica: fall through to local
		}
		if attempt > 0 {
			out.retries++
			c.retries.Add(1)
			if w != prev {
				out.reassigned++
				c.reassigned.Add(1)
				c.opts.Logf("shard %s: reassigned to %s after %v", sid, w.url, lastErr)
			}
			if !c.backoff(ctx, attempt) {
				return c.cancelledOrLocal(ctx, tenant, units, &out)
			}
		}
		recs, retryable, err := c.dispatch(ctx, w, sid, tenant, units, snap, snapHash)
		if err == nil {
			return recs, out
		}
		lastErr = err
		if !retryable {
			c.opts.Logf("shard %s: permanent dispatch failure on %s: %v", sid, w.url, err)
			return failedRecords(units, fmt.Sprintf("shard: %v", err), false), out
		}
		prev = w
	}
	return c.cancelledOrLocal(ctx, tenant, units, &out)
}

// cancelledOrLocal is the ladder's bottom: canceled records when the
// campaign context fired, local execution otherwise.
func (c *Coordinator) cancelledOrLocal(ctx context.Context, tenant string, units []Unit, out *shardOutcome) ([]RunRecord, shardOutcome) {
	if ctx.Err() != nil {
		return canceledRecords(ctx, units), *out
	}
	out.degraded = true
	c.degradedLocal.Add(1)
	c.opts.Logf("shard: no healthy replica (or retries exhausted) for %d runs; degrading to local execution", len(units))
	recs := make([]RunRecord, 0, len(units))
	for _, u := range units {
		recs = append(recs, c.opts.Local(ctx, tenant, u))
	}
	return recs, *out
}

// canceledRecords synthesizes a canceled record per unit.
func canceledRecords(ctx context.Context, units []Unit) []RunRecord {
	return failedRecords(units, fmt.Sprintf("shard: campaign canceled: %v", context.Cause(ctx)), true)
}

// failedRecords synthesizes one failed (or canceled) record per unit.
func failedRecords(units []Unit, msg string, canceled bool) []RunRecord {
	recs := make([]RunRecord, len(units))
	for i, u := range units {
		recs[i] = RunRecord{ID: u.RunID, Scheme: u.Scheme, Workload: u.Workload, Error: msg, Canceled: canceled}
	}
	return recs
}

// dispatch sends one shard to one replica and parses the result. retryable
// distinguishes transient failures (transport errors, timeouts, 429, 5xx,
// partial or errored results) from permanent ones (validation 4xx) — only
// the former reassign; the latter would fail identically everywhere.
func (c *Coordinator) dispatch(ctx context.Context, w *replica, sid, tenant string, units []Unit, snap []byte, snapHash uint64) (recs []RunRecord, retryable bool, err error) {
	c.dispatched.Add(1)
	actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	if len(snap) > 0 {
		if err := c.ensureSnapshot(actx, w, snap, snapHash); err != nil {
			w.healthy.Store(false)
			return nil, true, fmt.Errorf("warm-start upload to %s: %v", w.url, err)
		}
	}
	req := Request{ShardID: sid, Tenant: tenant, Runs: make([]json.RawMessage, len(units))}
	for i, u := range units {
		req.Runs[i] = u.Spec
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, w.url+"/shards", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		// Transport failure or timeout: the replica is gone or wedged. Open
		// its circuit; the health loop closes it again when /healthz answers.
		w.healthy.Store(false)
		return nil, true, fmt.Errorf("dispatch to %s: %v", w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		line := fmt.Errorf("worker %s: HTTP %d: %s", w.url, resp.StatusCode, bytes.TrimSpace(msg))
		switch {
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			// An explicit live refusal (over quota, queue full, draining):
			// transient, and the worker answered — do not open its circuit,
			// or a lone replica's momentary backpressure would needlessly
			// degrade the whole campaign to local execution.
			return nil, true, line
		case resp.StatusCode == http.StatusConflict:
			// The worker lost the warm-start donor (restart or eviction):
			// forget that we sent it so the retry re-uploads first.
			w.mu.Lock()
			w.snapSent = 0
			w.mu.Unlock()
			return nil, true, line
		case resp.StatusCode >= 500:
			w.healthy.Store(false)
			return nil, true, line
		default:
			return nil, false, line // a 4xx re-validates identically everywhere
		}
	}
	var sr Response
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		w.healthy.Store(false) // truncated mid-response: the worker died on us
		return nil, true, fmt.Errorf("worker %s: shard response: %v", w.url, err)
	}
	byID := make(map[string]RunRecord, len(sr.Results))
	for _, rec := range sr.Results {
		byID[rec.ID] = rec
	}
	recs = make([]RunRecord, 0, len(units))
	for _, u := range units {
		rec, ok := byID[u.RunID]
		if !ok {
			return nil, true, fmt.Errorf("worker %s: shard response missing run %s", w.url, u.RunID)
		}
		if rec.Error != "" {
			// A worker that cancels mid-drain (or fails a run) fails the
			// whole attempt: dedup on the retry makes recomputation safe.
			return nil, true, fmt.Errorf("worker %s: run %s: %s", w.url, u.RunID, rec.Error)
		}
		recs = append(recs, rec)
	}
	return recs, false, nil
}

// ensureSnapshot uploads the warm-start donor to the replica once per donor.
// The replica's lock is held across the upload so concurrent shards of one
// warm campaign send the bytes exactly once (the worker deduplicates by
// content hash anyway; this just saves the redundant transfers).
func (c *Coordinator) ensureSnapshot(ctx context.Context, w *replica, snap []byte, snapHash uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.snapSent == snapHash {
		return nil
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/snapshots", bytes.NewReader(snap))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	w.snapSent = snapHash
	return nil
}

// pick returns the next healthy replica in round-robin order, preferring one
// different from prev when a choice exists. nil means none is healthy.
func (c *Coordinator) pick(prev *replica) *replica {
	var healthy []*replica
	for _, r := range c.replicas {
		if r.healthy.Load() {
			healthy = append(healthy, r)
		}
	}
	if len(healthy) == 0 {
		return nil
	}
	start := int(c.rr.Add(1)-1) % len(healthy)
	for i := 0; i < len(healthy); i++ {
		r := healthy[(start+i)%len(healthy)]
		if r != prev || len(healthy) == 1 {
			return r
		}
	}
	return healthy[start]
}

// backoff sleeps the jittered exponential delay for the attempt, returning
// false if ctx fired first. Delays grow BackoffBase × 2^(attempt-1), capped
// at BackoffMax, jittered uniformly into [d/2, d).
func (c *Coordinator) backoff(ctx context.Context, attempt int) bool {
	d := c.opts.BackoffBase << (attempt - 1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	half := int64(d / 2)
	if half > 0 {
		d = time.Duration(half + rand.Int63n(half))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// healthLoop probes every replica's /healthz on the configured interval. A
// failing probe opens the replica's circuit; a succeeding one closes it —
// the only way a replica marked down by a failed dispatch comes back.
func (c *Coordinator) healthLoop() {
	defer c.healthWG.Done()
	ticker := time.NewTicker(c.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			for _, r := range c.replicas {
				was := r.healthy.Load()
				now := c.probe(r)
				r.healthy.Store(now)
				if was != now {
					c.opts.Logf("shard: replica %s is now %s", r.url, map[bool]string{true: "healthy", false: "unhealthy"}[now])
				}
			}
		}
	}
}

// probe checks one replica's /healthz within ProbeTimeout.
func (c *Coordinator) probe(r *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// recordWait appends one per-shard wall-time sample to the bounded ring.
func (c *Coordinator) recordWait(d time.Duration) {
	c.waitMu.Lock()
	defer c.waitMu.Unlock()
	c.waits = append(c.waits, uint64(d))
	if len(c.waits) > shardWaitSamples {
		c.waits = c.waits[len(c.waits)-shardWaitSamples:]
	}
}

// WorkerHealth is one replica's circuit state for /metrics.
type WorkerHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// Metrics is the coordinator's observability snapshot: cumulative dispatch,
// retry, reassignment, degradation, recovery, and conflict counters, replica
// circuit states, and per-shard wait quantiles (nanoseconds) over recent
// history — enough for a chaos test to assert that recovery actually
// happened rather than silent recompute.
type Metrics struct {
	Dispatched     uint64         `json:"dispatched"`
	Retries        uint64         `json:"retries"`
	Reassigned     uint64         `json:"reassigned"`
	DegradedLocal  uint64         `json:"degraded_local"`
	Recovered      uint64         `json:"recovered"`
	Conflicts      uint64         `json:"conflicts"`
	Workers        []WorkerHealth `json:"workers"`
	ShardWaitP50Ns uint64         `json:"shard_wait_p50_ns"`
	ShardWaitP90Ns uint64         `json:"shard_wait_p90_ns"`
	ShardWaitP99Ns uint64         `json:"shard_wait_p99_ns"`
}

// Metrics returns the coordinator's cumulative counters and health states.
func (c *Coordinator) Metrics() Metrics {
	m := Metrics{
		Dispatched:    c.dispatched.Load(),
		Retries:       c.retries.Load(),
		Reassigned:    c.reassigned.Load(),
		DegradedLocal: c.degradedLocal.Load(),
		Recovered:     c.recovered.Load(),
		Conflicts:     c.conflicts.Load(),
	}
	for _, r := range c.replicas {
		m.Workers = append(m.Workers, WorkerHealth{URL: r.url, Healthy: r.healthy.Load()})
	}
	c.waitMu.Lock()
	sorted := append([]uint64(nil), c.waits...)
	c.waitMu.Unlock()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	m.ShardWaitP50Ns = pushmulticast.Quantile(sorted, 0.50)
	m.ShardWaitP90Ns = pushmulticast.Quantile(sorted, 0.90)
	m.ShardWaitP99Ns = pushmulticast.Quantile(sorted, 0.99)
	return m
}

// chunk partitions units into shards of at most size each.
func chunk(units []Unit, size int) [][]Unit {
	var out [][]Unit
	for len(units) > size {
		out = append(out, units[:size])
		units = units[size:]
	}
	if len(units) > 0 {
		out = append(out, units)
	}
	return out
}
