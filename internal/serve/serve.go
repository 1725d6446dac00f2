package serve

import (
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
	// Workers bounds concurrently executing simulations (0 = GOMAXPROCS).
	// Each simulation runs on one goroutine, so this is the host budget.
	Workers int
	// MaxQueue bounds queued-but-not-running tasks across all tenants
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
	// into a shard coordinator: campaigns are split into shards and
	// dispatched across the replicas with retry, reassignment, and local
	// degradation; empty keeps every run on this process.
	Peers []string
	// ShardSize groups this many runs per dispatched shard (0 = 1).
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
	// memory-only journal (dedup without persistence).
	JournalPath string
}

// maxSnapshotBytes bounds one snapshot upload.
const maxSnapshotBytes = 256 << 20

// Server is the simd campaign service: expansion, dedup, fair scheduling,
// and result journaling over the simulation harness. Create with New, mount
// Handler, and Close on shutdown.
type Server struct {
	sched   *scheduler
	snaps   *snapStore
	journal *shard.Journal
	coord   *shard.Coordinator // nil unless Peers configured
	// recovered is the journal's content at startup — the recovery set a
	// restarted worker serves without recomputing. It is immutable after New:
	// runs completed during this process's lifetime are served by the live
	// memo, not the journal, so memo hit accounting stays truthful.
	recovered map[string]shard.RunRecord
	mux       *http.ServeMux
	start     time.Time

	completed       atomic.Uint64 // runs finished successfully
	canceled        atomic.Uint64 // runs ended by cancellation
	failed          atomic.Uint64 // runs ended by a simulation error
	recoveredServed atomic.Uint64 // runs served from the startup journal
	closing         atomic.Bool
}

// New builds a campaign server and starts its worker pool. With Peers set it
// also starts the shard coordinator and its replica health probes; with
// JournalPath set it loads the crash-resume journal, loudly reporting what a
// restart recovered.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 1024
	}
	if opts.MemoCapacity > 0 {
		pushmulticast.SetRunMemoCapacity(opts.MemoCapacity)
	}
	journal := shard.NewMemJournal()
	if opts.JournalPath != "" {
		var err error
		if journal, err = shard.OpenJournal(opts.JournalPath); err != nil {
			return nil, fmt.Errorf("serve: %v", err)
		}
	}
	s := &Server{
		sched:     newScheduler(opts.Workers, opts.MaxQueue, opts.TenantQuota),
		snaps:     newSnapStore(),
		journal:   journal,
		recovered: journal.Seen(),
		mux:       http.NewServeMux(),
		start:     time.Now(),
	}
	if n := len(s.recovered); n > 0 || journal.Skipped() > 0 {
		log.Printf("serve: journal %s: recovered %d completed runs, %d snapshot identities (%d unparsable lines skipped); recovered runs will be served without recomputing",
			journal.Path(), n, journal.Snapshots(), journal.Skipped())
	}
	if len(opts.Peers) > 0 {
		coord, err := shard.New(shard.Options{
			Workers:        opts.Peers,
			ShardSize:      opts.ShardSize,
			MaxRetries:     opts.ShardRetries,
			Timeout:        opts.ShardTimeout,
			HealthInterval: opts.HealthInterval,
			Journal:        journal,
			Local:          s.localUnit,
			Logf:           log.Printf,
		})
		if err != nil {
			journal.Close()
			return nil, fmt.Errorf("serve: %v", err)
		}
		s.coord = coord
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
// in-flight runs get the drain window to finish, and whatever is still
// running afterwards is canceled at its next cancellation barrier. Close
// returns once every worker has exited; the error reports a drain that had
// to hard-cancel.
func (s *Server) Close(drain time.Duration) error {
	s.closing.Store(true)
	clean := s.sched.stop(drain)
	if s.coord != nil {
		s.coord.Close()
	}
	s.journal.Close()
	if !clean {
		return fmt.Errorf("serve: drain window (%s) expired; in-flight runs were canceled", drain)
	}
	return nil
}

// campaignSummary is the final NDJSON line of every campaign response, after
// one RunRecord line per run in completion order.
type campaignSummary struct {
	Summary  bool `json:"summary"`
	Runs     int  `json:"runs"`
	Cached   int  `json:"cached"`
	Failed   int  `json:"failed"`
	Canceled int  `json:"canceled"`
	// Distribution accounting, present only on coordinator responses.
	shard.RunStats
}

// handleCampaign validates, expands, schedules, and streams one campaign.
// The whole spec is validated before anything is queued: a bad spec is one
// HTTP 400 with a one-line diagnostic and zero side effects. Results stream
// back as NDJSON in completion order; a disconnected client cancels every
// run the campaign still has in flight (shared simulations keep running
// while any other request still waits on them).
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
	specs, runs, err := spec.resolve(s.snaps.get)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.coord != nil {
		s.streamShardedCampaign(w, r, spec, specs, runs)
		return
	}
	out, err := s.submit(r.Context(), tenantOrDefault(spec.Tenant), false, runs)
	if err != nil {
		httpError(w, refusalStatus(err), oneLine(err))
		return
	}
	st := newStream(w)
	for range runs {
		st.record(<-out)
	}
	st.finish()
}

// submit queues the runs under the tenant, all or nothing — a campaign that
// cannot queue whole (bound or quota) is refused whole, never half-run — and
// returns the channel their records arrive on in completion order. It is
// buffered to the batch size: a worker's send never blocks, so a caller that
// went away mid-stream cannot wedge a worker slot. exempt skips the tenant
// quota (degraded-local shard execution only).
func (s *Server) submit(ctx context.Context, tenant string, exempt bool, runs []pushmulticast.ResolvedRun) (<-chan runRecord, error) {
	out := make(chan runRecord, len(runs))
	tasks := make([]*task, len(runs))
	for i, run := range runs {
		tasks[i] = &task{
			tenant: tenant,
			ctx:    ctx,
			exempt: exempt,
			fn:     func(ctx context.Context) { out <- s.execute(ctx, run) },
		}
	}
	return out, s.sched.submitAll(tasks)
}

// stream writes one campaign's NDJSON response — a line per run in
// completion order, then the summary — flushing after every line.
type stream struct {
	mu      sync.Mutex // the sharded path records from shard goroutines
	enc     *json.Encoder
	flusher http.Flusher
	sum     campaignSummary
}

func newStream(w http.ResponseWriter) *stream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &stream{enc: json.NewEncoder(w), flusher: flusher, sum: campaignSummary{Summary: true}}
}

func (st *stream) record(rec runRecord) {
	st.sum.Runs++
	if rec.Cached {
		st.sum.Cached++
	}
	if rec.Canceled {
		st.sum.Canceled++
	} else if rec.Error != "" {
		st.sum.Failed++
	}
	st.line(rec)
}

func (st *stream) finish() { st.line(st.sum) }

func (st *stream) line(v any) {
	st.enc.Encode(v)
	if st.flusher != nil {
		st.flusher.Flush()
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

// streamShardedCampaign runs one campaign through the shard coordinator:
// every run becomes a dispatch unit carrying its own description's bytes, the
// coordinator shards and distributes them, and merged records stream back in
// completion order followed by a summary carrying the distribution
// accounting.
func (s *Server) streamShardedCampaign(w http.ResponseWriter, r *http.Request, spec CampaignSpec, specs []pushmulticast.RunSpec, runs []pushmulticast.ResolvedRun) {
	units := make([]shard.Unit, len(runs))
	for i, run := range runs {
		raw, err := json.Marshal(specs[i])
		if err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("run %s: %v", run.Identity(), oneLine(err)))
			return
		}
		units[i] = shard.Unit{RunID: run.Identity(), Scheme: run.Config.Scheme.Name, Workload: run.Workload.Name, Spec: raw}
	}
	// warm_start is campaign-level: every run shares one donor.
	st := newStream(w)
	st.sum.RunStats = s.coord.Run(r.Context(), tenantOrDefault(spec.Tenant), units, runs[0].Donor, func(rec shard.RunRecord, _ bool) {
		st.mu.Lock()
		defer st.mu.Unlock()
		st.record(rec)
	})
	st.finish()
}

// localUnit is the coordinator's degradation-ladder bottom: execute one
// dispatch unit on this process. The run still goes through the scheduler —
// quota-exempt, so the fallback that exists to survive replica loss cannot
// itself be refused — and through the same execute path as any other run.
func (s *Server) localUnit(ctx context.Context, tenant string, u shard.Unit) shard.RunRecord {
	run, err := s.resolveUnit(u.Spec)
	if err == nil {
		var out <-chan runRecord
		if out, err = s.submit(ctx, tenant, true, []pushmulticast.ResolvedRun{run}); err == nil {
			return <-out
		}
	}
	return shard.RunRecord{ID: u.RunID, Scheme: u.Scheme, Workload: u.Workload, Error: oneLine(err)}
}

// resolveUnit turns one dispatch unit's bytes — a run description, strictly
// decoded — back into the run the coordinator resolved it from.
func (s *Server) resolveUnit(raw []byte) (pushmulticast.ResolvedRun, error) {
	spec, err := pushmulticast.DecodeRunSpec(raw)
	if err != nil {
		return pushmulticast.ResolvedRun{}, err
	}
	return spec.Resolve(s.snaps.get)
}

// handleShard is the worker side of shard dispatch: POST /shards carries a
// shard of run descriptions; the worker resolves and executes them under its
// scheduler (tenant quota applies — the coordinator treats a 429 as
// transient and backs off) and replies with the complete result set. A
// description whose warm-start donor is missing is HTTP 409 so the
// coordinator re-uploads and retries; any other validation failure is a
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
	runs := make([]pushmulticast.ResolvedRun, len(req.Runs))
	for i, raw := range req.Runs {
		var err error
		if runs[i], err = s.resolveUnit(raw); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, pushmulticast.ErrDonorMissing) {
				// The donor was uploaded once but is gone (LRU eviction or a
				// worker restart): recoverable, not a spec defect.
				status = http.StatusConflict
			}
			httpError(w, status, fmt.Sprintf("shard %s run %d: %v", req.ShardID, i, err))
			return
		}
	}
	out, err := s.submit(r.Context(), tenantOrDefault(req.Tenant), false, runs)
	if err != nil {
		httpError(w, refusalStatus(err), oneLine(err))
		return
	}
	resp := shard.Response{ShardID: req.ShardID, Results: make([]shard.RunRecord, len(runs))}
	for i := range runs {
		resp.Results[i] = <-out
	}
	writeJSON(w, resp)
}

// execute runs one resolved run under the scheduler's context and returns
// its result record, journaling it on success.
func (s *Server) execute(ctx context.Context, run pushmulticast.ResolvedRun) runRecord {
	// Crash resume: a run the startup journal already holds is served from
	// it without recomputing — the loud recovery path a restarted worker
	// takes for every shard it had already finished.
	if rec, ok := s.recovered[run.Identity()]; ok {
		rec.Cached = true
		s.recoveredServed.Add(1)
		return rec
	}
	res, hit, err := run.Execute(ctx)
	rec := run.Record(res, hit, err)
	switch {
	case rec.Canceled:
		s.canceled.Add(1)
	case err != nil:
		s.failed.Add(1)
	default:
		s.completed.Add(1)
		if _, err := s.journal.Commit(rec); err != nil {
			log.Printf("serve: %v", err)
		}
	}
	return rec
}

// handleRun serves a completed run record by identity.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.journal.Lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("run %q not found (completed runs are journaled by identity; re-POST its campaign to regenerate)", r.PathValue("id")))
		return
	}
	writeJSON(w, rec)
}

// handleSnapshot accepts a warm-start donor snapshot upload (raw bytes) and
// returns its content id for use as a campaign's warm_start.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxSnapshotBytes+1))
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
	if err := s.journal.CommitSnapshot(id, cycle); err != nil {
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
	Path string `json:"path,omitempty"` // empty = memory-only
	Runs int    `json:"runs"`           // journaled completed runs
	// Snapshots counts journaled warm-start donor identities.
	Snapshots int `json:"snapshots"`
	// RecoveredServed counts runs served from the startup journal without
	// recomputing — the loud proof a resume recovered rather than redid.
	RecoveredServed uint64 `json:"recovered_served"`
	// SkippedLines counts unparsable journal lines ignored at load (a torn
	// final line from a crash mid-append is the expected case).
	SkippedLines int `json:"skipped_lines,omitempty"`
}

// metrics is the GET /metrics schema.
type metrics struct {
	Scheduler schedStats              `json:"scheduler"`
	Memo      pushmulticast.MemoStats `json:"memo"`
	Runs      map[string]uint64       `json:"runs"`
	Snapshots int                     `json:"snapshots"`
	RunCache  int                     `json:"run_cache"` // records GET /runs/{id} can serve
	Journal   journalMetrics          `json:"journal"`
	// Shard carries the coordinator's retry/reassignment/degradation
	// counters and per-shard wait quantiles; absent on plain workers.
	Shard *shard.Metrics `json:"shard,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := metrics{
		Scheduler: s.sched.stats(),
		Memo:      pushmulticast.RunMemoStats(),
		Runs: map[string]uint64{
			"completed": s.completed.Load(),
			"canceled":  s.canceled.Load(),
			"failed":    s.failed.Load(),
		},
		Snapshots: s.snaps.len(),
		RunCache:  s.journal.Runs(),
		Journal: journalMetrics{
			Path:            s.journal.Path(),
			Runs:            s.journal.Runs(),
			Snapshots:       s.journal.Snapshots(),
			RecoveredServed: s.recoveredServed.Load(),
			SkippedLines:    s.journal.Skipped(),
		},
	}
	if s.coord != nil {
		cm := s.coord.Metrics()
		m.Shard = &cm
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
