package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pushmulticast"
	"pushmulticast/internal/shard"
)

// Options configures a campaign server. Zero values select sensible
// defaults for a single-host daemon.
type Options struct {
	// Workers bounds tasks in flight, whether a task simulates here (one
	// goroutine per simulation, so this is the host budget) or, on a
	// coordinator, waits on a replica. 0 = GOMAXPROCS, or on a coordinator
	// max(GOMAXPROCS, 2 per peer) so every replica has a shard queued behind
	// the one it is running.
	Workers int
	// MaxQueue bounds queued-but-not-running runs across all tenants
	// (0 = 1024). Submits past the bound fail fast with HTTP 503.
	MaxQueue int
	// MemoCapacity bounds the completed-run memo
	// (0 = pushmulticast.DefaultRunMemoCapacity).
	MemoCapacity int
	// TenantQuota bounds one tenant's in-flight (queued + running) runs
	// beyond fair round-robin (0 = unlimited). Over-quota submissions are
	// refused whole with HTTP 429 and a one-line diagnostic.
	TenantQuota int
	// Peers lists simd worker replica base URLs. Non-empty turns this daemon
	// into a shard coordinator: a campaign's tasks are shards, dispatched
	// across the replicas with retry and reassignment and simulated here when
	// no replica can take them; empty keeps every run on this process.
	Peers []string
	// ShardSize groups this many runs per dispatched shard (0 = 1). Smaller
	// shards rebalance faster after a replica dies; larger ones amortize
	// dispatch.
	ShardSize int
	// ShardRetries bounds remote re-dispatches per shard (0 = 4).
	ShardRetries int
	// ShardTimeout bounds one shard dispatch attempt (0 = 2m).
	ShardTimeout time.Duration
	// HealthInterval is the replica /healthz probe period (0 = 2s).
	HealthInterval time.Duration
	// JournalPath enables the crash-resume journal: completed run records
	// and uploaded snapshot identities are appended there, and a restarted
	// daemon serves journaled runs without recomputing them. Empty keeps a
	// memory-only store (GET /runs/{id} without persistence).
	JournalPath string
}

// maxSnapshotBytes bounds one snapshot upload.
const maxSnapshotBytes = 256 << 20

// shardWaitSamples bounds the per-shard wall-time history behind the
// coordinator's wait quantiles.
const shardWaitSamples = 512

// Server is the simd campaign service: expansion, dedup, fair scheduling,
// shard dispatch, and result journaling over the simulation harness. Create
// with New, mount Handler, and Close on shutdown.
type Server struct {
	sched *scheduler
	snaps *snapStore
	// store is the one holder of completed wire records and the one statement
	// of what may be served without computing (see shard.Journal).
	store     *shard.Journal
	coord     *shard.Coordinator // nil unless Peers configured
	shardSize int
	mux       *http.ServeMux
	start     time.Time

	completed       atomic.Uint64 // runs finished successfully
	canceled        atomic.Uint64 // runs ended by cancellation
	failed          atomic.Uint64 // runs ended by a simulation error
	recoveredServed atomic.Uint64 // runs answered by records a restart recovered
	conflicts       atomic.Uint64 // commits the store refused or failed to persist
	closing         atomic.Bool

	shardMu    sync.Mutex
	shardWaits waitRing // per-shard wall times
}

// New builds a campaign server and starts its worker pool. With Peers set it
// also starts the shard dispatcher and its replica health probes; with
// JournalPath set it loads the crash-resume journal, loudly reporting what a
// restart recovered.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = max(runtime.GOMAXPROCS(0), 2*len(opts.Peers))
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 1024
	}
	if opts.MemoCapacity > 0 {
		pushmulticast.SetRunMemoCapacity(opts.MemoCapacity)
	}
	store, err := shard.OpenJournal(opts.JournalPath)
	if err != nil {
		return nil, fmt.Errorf("serve: %v", err)
	}
	s := &Server{
		sched:     newScheduler(opts.Workers, opts.MaxQueue, opts.TenantQuota),
		snaps:     newSnapStore(),
		store:     store,
		shardSize: max(opts.ShardSize, 1),
		mux:       http.NewServeMux(),
		start:     time.Now(),
	}
	if st := store.Stats(); st.Runs > 0 || st.SkippedLines > 0 {
		log.Printf("serve: journal %s: recovered %d completed runs, %d snapshot identities (%d unparsable lines skipped); recovered runs will be served without recomputing",
			st.Path, st.Runs, st.Snapshots, st.SkippedLines)
	}
	if len(opts.Peers) > 0 {
		s.coord = shard.New(shard.Options{
			Workers:        opts.Peers,
			MaxRetries:     opts.ShardRetries,
			Timeout:        opts.ShardTimeout,
			HealthInterval: opts.HealthInterval,
			Logf:           log.Printf,
		})
	}
	s.mux.HandleFunc("POST /campaigns", s.handleCampaign)
	s.mux.HandleFunc("POST /shards", s.handleShard)
	s.mux.HandleFunc("GET /runs/{id}", s.handleRun)
	s.mux.HandleFunc("POST /snapshots", s.handleSnapshot)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the service down: new campaigns are refused immediately,
// in-flight tasks — simulating here or waiting on a replica — get the drain
// window to finish, and whatever is still running afterwards is canceled at
// its next cancellation barrier. Close returns once every worker has exited,
// and only then closes the store, so every record a task produced is
// committed to an open journal; the error reports a drain that had to
// hard-cancel.
func (s *Server) Close(drain time.Duration) error {
	s.closing.Store(true)
	clean := s.sched.stop(drain)
	if s.coord != nil {
		s.coord.Close()
	}
	s.store.Close()
	if !clean {
		return fmt.Errorf("serve: drain window (%s) expired; in-flight runs were canceled", drain)
	}
	return nil
}

// distribution is how a campaign's runs came to be: the summary line's
// accounting beyond the per-record flags. Shards, Recomputed and the three
// ladder counters are non-zero only on a coordinator; Recovered counts runs
// answered by records a restart recovered, on either role.
type distribution struct {
	Shards        int `json:"shards,omitempty"`
	Recovered     int `json:"recovered,omitempty"`  // runs served from the journal without computing
	Recomputed    int `json:"recomputed,omitempty"` // runs dispatched (or degraded to this process)
	Retries       int `json:"shard_retries,omitempty"`
	Reassigned    int `json:"shard_reassigned,omitempty"`
	DegradedLocal int `json:"degraded_local,omitempty"` // shards simulated in-process
}

// campaignSummary is the final NDJSON line of every campaign response, after
// one RunRecord line per run in completion order.
type campaignSummary struct {
	Summary  bool `json:"summary"`
	Runs     int  `json:"runs"`
	Cached   int  `json:"cached"`
	Failed   int  `json:"failed"`
	Canceled int  `json:"canceled"`
	distribution
}

// job is one run on its way through the pipeline, known by its identity: a
// run the memo answers carries the memo's answer (hit), any other the run a
// task will produce (run). wire is set on a coordinator only: the run
// description's bytes, which a replica resolves to the same identity.
type job struct {
	id   string
	run  *pushmulticast.ResolvedRun
	hit  *pushmulticast.RunAnswer
	wire json.RawMessage
}

// produced is what one task sends back: the records for its runs and how they
// came to be. hits is set only on the group submit answers itself: the memo's
// answers, which stream as the lines the memo rendered.
type produced struct {
	recs []runRecord
	hits []*pushmulticast.RunAnswer
	distribution
}

// handleCampaign validates, expands, schedules, and streams one campaign —
// the same pipeline on every daemon. The whole spec is validated before
// anything is queued: a bad spec is one HTTP 400 with a one-line diagnostic
// and zero side effects. The runs go through submit; a task is one run
// simulated here on a plain daemon, one shard walked down the dispatch ladder
// on a coordinator. Results stream back as NDJSON in completion order; a
// disconnected client cancels every run the campaign still has in flight
// (shared simulations keep running while any other request still waits on
// them).
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		httpError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	}
	var spec CampaignSpec
	if err := decodeStrict(r.Body, "campaign spec", &spec); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	jobs, err := spec.resolve(s.snaps.get, s.route)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	tenant := tenantOrDefault(spec.Tenant)
	per, produce := 1, s.simulate
	if s.coord != nil {
		per, produce = s.shardSize, func(ctx context.Context, group []job) produced { return s.dispatch(ctx, tenant, group) }
		for i := range jobs {
			if jobs[i].wire, err = json.Marshal(spec.run(i)); err != nil {
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("run %s: %v", jobs[i].id, oneLine(err)))
				return
			}
		}
	}
	out, n, err := s.submit(r.Context(), tenant, jobs, per, produce)
	if err != nil {
		httpError(w, refusalStatus(err), oneLine(err))
		return
	}
	line, sum := ndjson(w), campaignSummary{Summary: true}
	for range n {
		p := <-out
		for _, rec := range p.recs {
			sum.count(rec)
			line(rec)
		}
		if len(p.hits) > 0 {
			line(sum.lines(p.hits))
		}
		sum.add(p.distribution)
	}
	line(sum)
}

// submit is the one way runs reach the scheduler. Two kinds of run are
// answered without a task, a worker slot or a place in the queue: a run whose
// record a restart recovered, from the store — the serving rule, applied here
// for both roles and both endpoints — and a job that carries the memo's
// answer (see route), counted here as the memo hit it is. A run still in
// flight is joined by a task, like any other. The rest are queued under the
// tenant as tasks of per runs each, all or nothing — a campaign that cannot
// queue whole (bound or quota, both counted in runs) is refused whole, never
// half-run, and only then are the memo's answers settled, so a refused
// campaign counts no run completed and commits nothing. It returns the channel
// the answers arrive on in completion order and how many to receive. The
// channel is buffered to that count: a worker's send never blocks, so a
// caller that went away mid-stream cannot wedge a worker slot.
func (s *Server) submit(ctx context.Context, tenant string, jobs []job, per int, produce func(context.Context, []job) produced) (<-chan produced, int, error) {
	var served produced
	pending := jobs[:0] // jobs is the caller's to give: partitioned in place
	for _, j := range jobs {
		if rec, ok := s.store.Recovered(j.id); ok {
			served.recs = append(served.recs, rec)
		} else if j.hit != nil {
			j.hit.Hit()
			served.hits = append(served.hits, j.hit)
		} else {
			pending = append(pending, j)
		}
	}
	var tasks []*task
	out := make(chan produced, (len(pending)+per-1)/per+1)
	for len(pending) > 0 {
		group := pending[:min(per, len(pending))]
		pending = pending[len(group):]
		tasks = append(tasks, &task{
			tenant: tenant,
			ctx:    ctx,
			runs:   len(group),
			fn:     func(ctx context.Context) produced { return produce(ctx, group) },
			out:    out,
		})
	}
	if err := s.sched.submitAll(tasks); err != nil {
		return nil, 0, err
	}
	n := len(tasks)
	served.Recovered = len(served.recs)
	s.recoveredServed.Add(uint64(served.Recovered))
	for _, hit := range served.hits {
		s.settle(hit.Record)
	}
	if len(served.recs)+len(served.hits) > 0 {
		out <- served
		n++
	}
	return out, n, nil
}

// route makes a resolved run a job. On a process that simulates its runs
// itself, a run the memo holds completed keeps only the memo's answer, which
// counts as a hit only once submit serves it; any other run becomes a task's.
// A coordinator's runs are answered by its replicas, whose own submit looks.
func (s *Server) route(run pushmulticast.ResolvedRun) job {
	if s.coord == nil {
		if hit, ok := run.Answered(); ok {
			return job{id: run.Identity(), hit: hit}
		}
	}
	return taskJob(run)
}

// taskJob makes a resolved run the job of the task that will produce it.
func taskJob(run pushmulticast.ResolvedRun) job { return job{id: run.Identity(), run: &run} }

// simulate produces a task's records on this process, in the worker slot the
// task holds.
func (s *Server) simulate(ctx context.Context, jobs []job) produced {
	p := produced{recs: make([]runRecord, len(jobs))}
	for i, j := range jobs {
		res, hit, err := j.run.Execute(ctx)
		p.recs[i] = s.settle(j.run.Record(res, hit, err))
	}
	return p
}

// dispatch produces one shard's records on a coordinator: down the dispatch
// ladder, whose bottom rung — no replica healthy, or the retry budget spent —
// is this task simulating its own runs in the slot it already holds.
func (s *Server) dispatch(ctx context.Context, tenant string, jobs []job) produced {
	units := make([]shard.Unit, len(jobs))
	for i, j := range jobs {
		units[i] = shard.Unit{RunID: j.run.Identity(), Scheme: j.run.Config.Scheme.Name, Workload: j.run.Workload.Name, Spec: j.wire}
	}
	start := time.Now()
	// warm_start is campaign-level: every run shares one donor.
	recs, outcome := s.coord.Do(ctx, tenant, units, jobs[0].run.Donor, jobs[0].run.DonorHash())
	how := distribution{Shards: 1, Recomputed: len(jobs), Retries: outcome.Retries, Reassigned: outcome.Reassigned}
	if outcome.Degraded {
		how.DegradedLocal = 1
		recs = s.simulate(ctx, jobs).recs
	} else {
		for _, rec := range recs {
			s.settle(rec)
		}
	}
	s.shardMu.Lock()
	s.shardWaits.add(time.Since(start), shardWaitSamples)
	s.shardMu.Unlock()
	return produced{recs: recs, distribution: how}
}

// settle counts one finished record and commits an error-free one to the
// store, wherever it was computed.
func (s *Server) settle(rec runRecord) runRecord {
	switch {
	case rec.Canceled:
		s.canceled.Add(1)
	case rec.Error != "":
		s.failed.Add(1)
	default:
		s.completed.Add(1)
		if _, err := s.store.Commit(rec); err != nil {
			s.conflicts.Add(1)
			log.Printf("serve: %v", err)
		}
	}
	return rec
}

// add accumulates one task's accounting into the campaign's.
func (d *distribution) add(o distribution) {
	d.Shards += o.Shards
	d.Recovered += o.Recovered
	d.Recomputed += o.Recomputed
	d.Retries += o.Retries
	d.Reassigned += o.Reassigned
	d.DegradedLocal += o.DegradedLocal
}

// count tallies one streamed record into the summary.
func (sum *campaignSummary) count(rec runRecord) {
	sum.Runs++
	if rec.Cached {
		sum.Cached++
	}
	if rec.Canceled {
		sum.Canceled++
	} else if rec.Error != "" {
		sum.Failed++
	}
}

// lines joins the memo's rendered lines for a group of answers into one
// presized buffer, tallying each answer into the summary.
func (sum *campaignSummary) lines(hits []*pushmulticast.RunAnswer) []byte {
	size := 0
	for _, hit := range hits {
		size += len(hit.Line)
	}
	buf := make([]byte, 0, size)
	for _, hit := range hits {
		sum.count(hit.Record)
		buf = append(buf, hit.Line...)
	}
	return buf
}

// ndjson starts a campaign's NDJSON response — a line per run in completion
// order, then the summary — and returns its writer, which flushes after each
// value: a record or the summary is encoded as one line, and bytes already
// rendered as lines are written as they are.
func ndjson(w http.ResponseWriter) func(v any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	return func(v any) {
		if b, ok := v.([]byte); ok {
			w.Write(b)
		} else {
			enc.Encode(v)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// refusalStatus maps a scheduler refusal to its HTTP status: 429 for an
// over-quota tenant, 503 for a full queue or a shutdown.
func refusalStatus(err error) int {
	var oq overQuotaError
	if errors.As(err, &oq) {
		return http.StatusTooManyRequests
	}
	return http.StatusServiceUnavailable
}

// handleShard is the worker side of shard dispatch: POST /shards carries a
// shard of run descriptions; the worker resolves them and simulates them here
// through submit, one task a run (tenant quota applies — the coordinator
// treats a 429 as transient and backs off), and replies with the complete
// result set. A description whose warm-start donor is missing is HTTP 409 so
// the coordinator re-uploads and retries; any other validation failure is a
// permanent 400.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		httpError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	}
	var req shard.Request
	if err := decodeStrict(r.Body, "shard request", &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Runs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("shard %s: no runs", req.ShardID))
		return
	}
	jobs := make([]job, len(req.Runs))
	for i, raw := range req.Runs {
		// A run description, strictly decoded, resolves back into the run the
		// coordinator resolved it from.
		var run pushmulticast.ResolvedRun
		spec, err := pushmulticast.DecodeRunSpec(raw)
		if err == nil {
			run, err = spec.Resolve(s.snaps.get)
		}
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, pushmulticast.ErrDonorMissing) {
				// The donor was uploaded once but is gone (LRU eviction or a
				// worker restart): recoverable, not a spec defect.
				status = http.StatusConflict
			}
			httpError(w, status, fmt.Sprintf("shard %s run %d: %v", req.ShardID, i, err))
			return
		}
		jobs[i] = s.route(run)
	}
	out, n, err := s.submit(r.Context(), tenantOrDefault(req.Tenant), jobs, 1, s.simulate)
	if err != nil {
		httpError(w, refusalStatus(err), oneLine(err))
		return
	}
	resp := shard.Response{ShardID: req.ShardID, Results: make([]shard.RunRecord, 0, len(jobs))}
	for range n {
		p := <-out
		resp.Results = append(resp.Results, p.recs...)
		for _, hit := range p.hits {
			resp.Results = append(resp.Results, hit.Record)
		}
	}
	writeJSON(w, resp)
}

// handleRun serves a completed run record by identity.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.store.Lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("run %q not found (completed runs are journaled by identity; re-POST its campaign to regenerate)", r.PathValue("id")))
		return
	}
	writeJSON(w, rec)
}

// handleSnapshot accepts a warm-start donor snapshot upload (raw bytes) and
// returns its content id for use as a campaign's warm_start.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// A declared length within the bound sizes the buffer once: ReadFrom
	// regrows it only when less than bytes.MinRead is spare, which it never is
	// before the body ends. Reading one byte past the bound tells a larger
	// upload apart.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), maxSnapshotBytes)+bytes.MinRead))
	_, err := buf.ReadFrom(io.LimitReader(r.Body, maxSnapshotBytes+1))
	data := buf.Bytes()
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("snapshot upload: %v", oneLine(err)))
		return
	}
	if len(data) > maxSnapshotBytes {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("snapshot exceeds the %d-byte upload bound", maxSnapshotBytes))
		return
	}
	id, cycle, err := s.snaps.put(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.store.CommitSnapshot(id, cycle); err != nil {
		log.Printf("serve: %v", err)
	}
	writeJSON(w, map[string]any{"id": id, "cycle": cycle, "bytes": len(data)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":   "ok",
		"uptime_s": int64(time.Since(s.start).Seconds()),
	})
}

// journalMetrics is the crash-resume journal's /metrics contribution.
type journalMetrics struct {
	shard.JournalStats
	// RecoveredServed counts runs answered by records a restart recovered,
	// without recomputing — the loud proof a resume recovered rather than
	// redid.
	RecoveredServed uint64 `json:"recovered_served"`
}

// metrics is the GET /metrics schema.
type metrics struct {
	Scheduler schedStats              `json:"scheduler"`
	Memo      pushmulticast.MemoStats `json:"memo"`
	Runs      map[string]uint64       `json:"runs"`
	Snapshots int                     `json:"snapshots"`
	RunCache  int                     `json:"run_cache"` // records GET /runs/{id} can serve
	Journal   journalMetrics          `json:"journal"`
	// Shard is the coordinator's contribution; absent on plain workers.
	Shard *shardMetrics `json:"shard,omitempty"`
}

// shardMetrics is the dispatcher's counters and replica health, plus what the
// pipeline around it counts: runs answered by recovered records, refused
// commits, and per-shard wall-time quantiles (nanoseconds).
type shardMetrics struct {
	shard.Metrics
	Recovered      uint64 `json:"recovered"`
	Conflicts      uint64 `json:"conflicts"`
	ShardWaitP50Ns uint64 `json:"shard_wait_p50_ns"`
	ShardWaitP90Ns uint64 `json:"shard_wait_p90_ns"`
	ShardWaitP99Ns uint64 `json:"shard_wait_p99_ns"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	held := s.store.Stats()
	m := metrics{
		Scheduler: s.sched.stats(),
		Memo:      pushmulticast.RunMemoStats(),
		Runs: map[string]uint64{
			"completed": s.completed.Load(),
			"canceled":  s.canceled.Load(),
			"failed":    s.failed.Load(),
		},
		Snapshots: s.snaps.len(),
		RunCache:  held.Runs,
		Journal:   journalMetrics{held, s.recoveredServed.Load()},
	}
	if s.coord != nil {
		m.Shard = &shardMetrics{Metrics: s.coord.Metrics(), Recovered: m.Journal.RecoveredServed, Conflicts: s.conflicts.Load()}
		s.shardMu.Lock()
		m.Shard.ShardWaitP50Ns, m.Shard.ShardWaitP90Ns, m.Shard.ShardWaitP99Ns = s.shardWaits.quantiles()
		s.shardMu.Unlock()
	}
	writeJSON(w, m)
}

// httpError writes a one-line diagnostic with the given status. The body is
// exactly one line (newline-terminated), keeping the service's error
// contract greppable from shell scripts and CI alike.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintln(w, msg)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
