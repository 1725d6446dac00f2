package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a shard coordinator. Zero values select defaults sized
// for a local replica cluster.
type Options struct {
	// Workers lists the replica base URLs shards dispatch to (e.g.
	// "http://127.0.0.1:18081"). With none, every shard comes back Degraded.
	Workers []string
	// MaxRetries bounds remote re-dispatches per shard beyond the first
	// attempt (0 = 4). An exhausted shard comes back Degraded.
	MaxRetries int
	// Timeout bounds one dispatch attempt end to end (0 = 2m). A worker that
	// goes silent mid-shard is abandoned at the timeout and the shard
	// reassigned.
	Timeout time.Duration
	// HealthInterval is the /healthz probe period (0 = 2s). A probe failure
	// opens the replica's circuit (no shards are assigned to it); a later
	// success closes it again.
	HealthInterval time.Duration
	// Logf reports reassignments and degradations loudly (nil = silent).
	Logf func(format string, args ...any)
}

// Retries back off backoffBase × 2^(attempt-1), capped at backoffMax, each
// delay jittered uniformly into [d/2, d) so a burst of failed shards does not
// re-dispatch in lockstep; probeTimeout bounds one /healthz probe.
const (
	backoffBase  = 100 * time.Millisecond
	backoffMax   = 5 * time.Second
	probeTimeout = time.Second
)

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

// Coordinator dispatches shards across worker replicas with retry,
// reassignment and health-driven circuit breaking. It is a stateless
// dispatcher: it holds replica circuit state and counters, never a record — a
// caller hands Do one shard and owns what comes back. One Coordinator serves
// many campaigns; create with New and Close on shutdown.
type Coordinator struct {
	opts     Options
	replicas []*replica
	client   *http.Client
	rr       atomic.Uint64 // round-robin cursor over healthy replicas

	stop     chan struct{}
	healthWG sync.WaitGroup

	// Cumulative counters for /metrics (see Metrics).
	dispatched    atomic.Uint64
	retries       atomic.Uint64
	reassigned    atomic.Uint64
	degradedLocal atomic.Uint64
}

// New builds a coordinator over the replica set and starts its health-probe
// loop. Close stops the loop.
func New(opts Options) *Coordinator {
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 4
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Minute
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 2 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		opts:   opts,
		client: &http.Client{}, // per-attempt deadlines come from Timeout
		stop:   make(chan struct{}),
	}
	for _, url := range opts.Workers {
		r := &replica{url: url}
		r.healthy.Store(true) // optimistic: the first dispatch or probe decides
		c.replicas = append(c.replicas, r)
	}
	c.healthWG.Add(1)
	go c.healthLoop()
	return c
}

// Close stops the health-probe loop. In-flight Do calls finish normally.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.healthWG.Wait()
}

// Outcome reports how one shard's trip down the ladder went.
type Outcome struct {
	Retries    int
	Reassigned int
	// Degraded means no replica took the shard (none healthy, or the retry
	// budget is spent): Do returned no records and the caller computes them.
	Degraded bool
}

// Do walks one shard down the dispatch ladder: send it to a healthy replica,
// retry with backoff and reassignment on failure, and give it back Degraded
// when no replica is healthy or the retry budget is spent. snap, when
// non-empty, is the warm-start donor every unit's spec references and
// snapHash its content hash (snapshot.Hash, which the caller already holds);
// the donor is uploaded to a replica before that replica's first dispatch.
// Unless Degraded, Do returns one record per unit: the replica's, synthesized
// failures after a permanent refusal, or canceled ones once ctx has fired.
func (c *Coordinator) Do(ctx context.Context, tenant string, units []Unit, snap []byte, snapHash uint64) ([]RunRecord, Outcome) {
	ids := make([]string, len(units))
	for i, u := range units {
		ids[i] = u.RunID
	}
	sid := ID(snapHash, ids)

	var out Outcome
	var prev *replica
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if ctx.Err() != nil {
			break
		}
		w := c.pick(prev)
		if w == nil {
			break // no healthy replica
		}
		if attempt > 0 {
			out.Retries++
			c.retries.Add(1)
			if w != prev {
				out.Reassigned++
				c.reassigned.Add(1)
				c.opts.Logf("shard %s: reassigned to %s after %v", sid, w.url, lastErr)
			}
			if !backoff(ctx, attempt) {
				break
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
	if ctx.Err() != nil {
		return failedRecords(units, fmt.Sprintf("shard: campaign canceled: %v", context.Cause(ctx)), true), out
	}
	out.Degraded = true
	c.degradedLocal.Add(1)
	c.opts.Logf("shard %s: no healthy replica (or retries exhausted) for %d runs; degrading to local execution", sid, len(units))
	return nil, out
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
	resp, err := c.post(actx, w.url+"/shards", "application/json", body)
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
		rec.Cached = false // memo state is the replica's detail, not the campaign's
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
	resp, err := c.post(ctx, w.url+"/snapshots", "application/octet-stream", snap)
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

// post sends one request body to a replica.
func (c *Coordinator) post(ctx context.Context, url, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.client.Do(req)
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
// false if ctx fired first.
func backoff(ctx context.Context, attempt int) bool {
	d := backoffBase << (attempt - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
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

// probe checks one replica's /healthz within probeTimeout.
func (c *Coordinator) probe(r *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
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

// WorkerHealth is one replica's circuit state for /metrics.
type WorkerHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// Metrics is the dispatcher's observability snapshot: cumulative dispatch,
// retry, reassignment and degradation counters and replica circuit states —
// enough for a chaos test to assert that the fault-tolerance machinery
// actually fired.
type Metrics struct {
	Dispatched    uint64         `json:"dispatched"`
	Retries       uint64         `json:"retries"`
	Reassigned    uint64         `json:"reassigned"`
	DegradedLocal uint64         `json:"degraded_local"`
	Workers       []WorkerHealth `json:"workers"`
}

// Metrics returns the coordinator's cumulative counters and health states.
func (c *Coordinator) Metrics() Metrics {
	m := Metrics{
		Dispatched:    c.dispatched.Load(),
		Retries:       c.retries.Load(),
		Reassigned:    c.reassigned.Load(),
		DegradedLocal: c.degradedLocal.Load(),
	}
	for _, r := range c.replicas {
		m.Workers = append(m.Workers, WorkerHealth{URL: r.url, Healthy: r.healthy.Load()})
	}
	return m
}
