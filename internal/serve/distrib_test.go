package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushmulticast"
	"pushmulticast/internal/shard"
)

// distSpec is the distributed-path campaign: two runs (one per scheme) with
// tracing on, so byte-identical merging is checked down to the trace hash.
const distSpec = `{"scale":"tiny","schemes":["Baseline","OrdPush"],"workloads":[{"name":"cachebw"}],"trace_n":8}`

// baselineRecords computes the undistributed distSpec results once per test
// binary; every distributed test compares against the same ground truth.
var (
	baseOnce sync.Once
	baseRecs []runRecord
)

func baselineRecords(t *testing.T) []runRecord {
	t.Helper()
	baseOnce.Do(func() {
		_, ts := newTestServer(t, Options{Workers: 2})
		status, recs, sum := postCampaign(t, ts.URL, distSpec)
		if status != http.StatusOK || sum.Failed != 0 || sum.Canceled != 0 {
			t.Errorf("baseline campaign: status %d summary %+v", status, sum)
			return
		}
		baseRecs = recs
	})
	if baseRecs == nil {
		t.Fatal("baseline campaign failed")
	}
	return baseRecs
}

// startServer is newTestServer without the automatic cleanup — for tests
// that stop and restart a daemon mid-test to exercise crash resume.
func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

// recordMap indexes records by run identity with the Cached flag normalized
// away (whether a record came from a memo, a worker, or a journal is
// delivery detail; the simulation results must be identical).
func recordMap(recs []runRecord) map[string]runRecord {
	m := make(map[string]runRecord, len(recs))
	for _, r := range recs {
		r.Cached = false
		m[r.ID] = r
	}
	return m
}

// mustMatch requires the distributed records to equal the undistributed
// baseline run for run — cycles, instructions, flit counts, and trace hash.
func mustMatch(t *testing.T, base, got []runRecord) {
	t.Helper()
	bm, gm := recordMap(base), recordMap(got)
	if len(bm) != len(gm) {
		t.Fatalf("got %d distinct runs; baseline has %d", len(gm), len(bm))
	}
	for id, b := range bm {
		g, ok := gm[id]
		if !ok {
			t.Fatalf("run %s missing from distributed results", id)
		}
		if b.TraceHash == "" {
			t.Fatalf("baseline run %s has no trace hash; the comparison would be vacuous", id)
		}
		if g != b {
			t.Fatalf("run %s diverged:\n distributed %+v\n baseline    %+v", id, g, b)
		}
	}
}

// TestDistributedCampaignMatchesLocal runs the same campaign undistributed
// and through a two-replica coordinator and requires identical results —
// including trace hashes — with every run sharded out exactly once.
func TestDistributedCampaignMatchesLocal(t *testing.T) {
	base := baselineRecords(t)

	w1, ts1 := newTestServer(t, Options{Workers: 2})
	w2, ts2 := newTestServer(t, Options{Workers: 2})
	_, coordTS := newTestServer(t, Options{Workers: 2, Peers: []string{ts1.URL, ts2.URL}})

	status, got, sum := postCampaign(t, coordTS.URL, distSpec)
	if status != http.StatusOK {
		t.Fatalf("distributed campaign: status %d", status)
	}
	if sum.Failed != 0 || sum.Canceled != 0 {
		t.Fatalf("distributed campaign had failures: %+v", sum)
	}
	if sum.Shards != len(base) {
		t.Fatalf("summary shards = %d; want %d (one run per shard)", sum.Shards, len(base))
	}
	if sum.Recovered != 0 || sum.Recomputed != len(base) {
		t.Fatalf("fresh campaign recovered %d / recomputed %d; want 0 / %d", sum.Recovered, sum.Recomputed, len(base))
	}
	mustMatch(t, base, got)
	// Both replicas actually computed: the coordinator round-robins shards.
	for i, w := range []*Server{w1, w2} {
		if n := w.completed.Load(); n == 0 {
			t.Fatalf("worker %d completed no runs; shards were not distributed", i+1)
		}
	}
	// A campaign naming one run twice is refused whole here exactly as on a
	// plain daemon: merged by identity it used to stream 1 record and
	// "runs":1 from 2 computed shards, where a local daemon streamed 2.
	twice := `{"scale":"tiny","schemes":["OrdPush","ordpush"],"workloads":[{"name":"cachebw"}]}`
	before := w1.completed.Load() + w2.completed.Load()
	if status, _, _ := postCampaign(t, coordTS.URL, twice); status != http.StatusBadRequest {
		t.Fatalf("coordinator answered %d to a campaign naming one run twice; want 400", status)
	}
	if after := w1.completed.Load() + w2.completed.Load(); after != before {
		t.Fatalf("the refused campaign still ran %d shards", after-before)
	}
}

// killSwitch wraps a worker's handler with a SIGKILL simulation: once
// tripped — or immediately upon its first shard dispatch when killOnShard is
// set — every connection (shards and health probes alike) is severed without
// a response, exactly what a killed process looks like from the wire.
type killSwitch struct {
	h           http.Handler
	dead        atomic.Bool
	killOnShard atomic.Bool
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() || (r.URL.Path == "/shards" && k.killOnShard.Load()) {
		k.dead.Store(true)
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	k.h.ServeHTTP(w, r)
}

// TestDistributedWorkerDeathReassigns kills one of two replicas on its first
// shard dispatch (connection severed mid-request, as a SIGKILL would) and
// requires the campaign to complete with zero canceled or failed runs,
// byte-identical to the undistributed baseline, with the reassignment
// visible in the summary. Run with -race in CI.
func TestDistributedWorkerDeathReassigns(t *testing.T) {
	base := baselineRecords(t)

	_, ts1 := newTestServer(t, Options{Workers: 2})
	s2, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ks := &killSwitch{h: s2.Handler()}
	ks.killOnShard.Store(true)
	ts2 := httptest.NewServer(ks)
	t.Cleanup(func() {
		ts2.Close()
		if err := s2.Close(30 * time.Second); err != nil {
			t.Errorf("close: %v", err)
		}
	})

	// A long health interval keeps the probe loop out of the way: the dead
	// replica must be discovered by the failed dispatch itself, and must not
	// be resurrected mid-test.
	_, coordTS := newTestServer(t, Options{
		Workers:        2,
		Peers:          []string{ts1.URL, ts2.URL},
		HealthInterval: time.Minute,
	})

	status, got, sum := postCampaign(t, coordTS.URL, distSpec)
	if status != http.StatusOK {
		t.Fatalf("distributed campaign: status %d", status)
	}
	if sum.Failed != 0 || sum.Canceled != 0 {
		t.Fatalf("campaign did not survive the worker death: %+v", sum)
	}
	if sum.Reassigned == 0 {
		t.Fatalf("no shard was reassigned after the worker death: %+v", sum)
	}
	if sum.DegradedLocal != 0 {
		t.Fatalf("campaign degraded to local with a healthy replica available: %+v", sum)
	}
	mustMatch(t, base, got)
	if !ks.dead.Load() {
		t.Fatal("the killable worker was never dispatched to; the death path was not exercised")
	}
}

// TestCoordinatorJournalResume SIGKILL-simulates the coordinator between two
// identical campaigns: the restarted daemon (same journal path, memo
// cleared) must serve every run from the journal — recovering, not
// recomputing, and loudly saying so in the summary.
func TestCoordinatorJournalResume(t *testing.T) {
	_, wts := newTestServer(t, Options{Workers: 2})
	jp := filepath.Join(t.TempDir(), "coord.journal")
	opts := Options{Workers: 2, Peers: []string{wts.URL}, JournalPath: jp}

	s1, ts1 := startServer(t, opts)
	status, recs, sum := postCampaign(t, ts1.URL, distSpec)
	if status != http.StatusOK || sum.Failed != 0 || sum.Canceled != 0 {
		t.Fatalf("first campaign: status %d summary %+v", status, sum)
	}
	if sum.Recovered != 0 {
		t.Fatalf("fresh journal recovered %d runs", sum.Recovered)
	}
	// Abrupt stop: close without draining niceties, then wipe the memo so a
	// recovery could only come from the journal on disk.
	ts1.Close()
	if err := s1.Close(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	pushmulticast.ClearRunMemo()

	s2, ts2 := startServer(t, opts)
	t.Cleanup(func() {
		ts2.Close()
		if err := s2.Close(30 * time.Second); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	status, recs2, sum2 := postCampaign(t, ts2.URL, distSpec)
	if status != http.StatusOK {
		t.Fatalf("resumed campaign: status %d", status)
	}
	if sum2.Recovered != len(recs) || sum2.Recomputed != 0 {
		t.Fatalf("resumed summary recovered %d / recomputed %d; want %d / 0", sum2.Recovered, sum2.Recomputed, len(recs))
	}
	for _, rec := range recs2 {
		if !rec.Cached {
			t.Fatalf("recovered run %s not marked cached", rec.ID)
		}
	}
	mustMatch(t, recs, recs2)
	if st := pushmulticast.RunMemoStats(); st.Misses != 0 {
		t.Fatalf("memo misses = %d after resume; the journal must recover without recomputing", st.Misses)
	}
	// A campaign that adds one run to the recovered two: only the new run is
	// dispatched, and only the recovered ones are marked cached.
	wider := strings.Replace(distSpec, `"OrdPush"`, `"OrdPush","PushAck"`, 1)
	status, recs3, sum3 := postCampaign(t, ts2.URL, wider)
	if status != http.StatusOK || sum3.Failed != 0 || sum3.Canceled != 0 {
		t.Fatalf("widened campaign: status %d summary %+v", status, sum3)
	}
	if sum3.Recovered != 2 || sum3.Recomputed != 1 || sum3.Shards != 1 || sum3.Cached != 2 {
		t.Fatalf("widened summary %+v; want 2 recovered and cached, 1 recomputed in 1 shard", sum3)
	}
	old := recordMap(recs)
	for _, rec := range recs3 {
		if _, recovered := old[rec.ID]; rec.Cached != recovered {
			t.Fatalf("run %s (%s): cached=%v, recovered=%v", rec.ID, rec.Scheme, rec.Cached, recovered)
		}
	}
}

// TestWorkerJournalResume restarts a plain (coordinator-less) worker on the
// same journal path and requires the repeated campaign to be served from the
// startup journal: cached records, recovered_served in /metrics, and zero
// memo misses.
func TestWorkerJournalResume(t *testing.T) {
	pushmulticast.ClearRunMemo()
	jp := filepath.Join(t.TempDir(), "worker.journal")
	opts := Options{Workers: 2, JournalPath: jp}

	s1, ts1 := startServer(t, opts)
	status, recs, _ := postCampaign(t, ts1.URL, tiny16)
	if status != http.StatusOK || len(recs) != 1 || recs[0].Error != "" {
		t.Fatalf("first campaign: status %d recs %+v", status, recs)
	}
	ts1.Close()
	if err := s1.Close(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	pushmulticast.ClearRunMemo()

	s2, ts2 := startServer(t, opts)
	t.Cleanup(func() {
		ts2.Close()
		if err := s2.Close(30 * time.Second); err != nil {
			t.Errorf("close: %v", err)
		}
		pushmulticast.ClearRunMemo()
	})
	status, recs2, sum := postCampaign(t, ts2.URL, tiny16)
	if status != http.StatusOK || len(recs2) != 1 {
		t.Fatalf("resumed campaign: status %d recs %+v", status, recs2)
	}
	if !recs2[0].Cached || sum.Cached != 1 {
		t.Fatalf("resumed run not served from the journal: recs %+v summary %+v", recs2, sum)
	}
	if recs2[0].Cycles != recs[0].Cycles || recs2[0].TraceHash != recs[0].TraceHash {
		t.Fatalf("recovered record diverged: %+v vs %+v", recs2[0], recs[0])
	}
	var m metrics
	getJSON(t, ts2.URL+"/metrics", &m)
	if m.Journal.RecoveredServed < 1 {
		t.Fatalf("journal recovered_served = %d; want >= 1", m.Journal.RecoveredServed)
	}
	if m.Journal.Runs != 1 || m.Journal.Path != jp {
		t.Fatalf("journal metrics %+v; want 1 run at %s", m.Journal, jp)
	}
	if m.Memo.Misses != 0 {
		t.Fatalf("memo misses = %d after restart; the journal must serve without recomputing", m.Memo.Misses)
	}
}

// TestCampaignTenantQuota429 pins the admission contract on both roles: a
// campaign exceeding the tenant's in-flight bound is refused whole with HTTP
// 429, one exceeding the queue bound with 503, each with a one-line
// diagnostic and nothing simulated or dispatched; a campaign within the bound
// still succeeds. A coordinator's campaigns go through the same scheduler as
// a plain daemon's, so they meet the same bounds.
func TestCampaignTenantQuota429(t *testing.T) {
	replica, replicaTS := newTestServer(t, Options{Workers: 1})
	peers := []string{replicaTS.URL}
	twoRuns := `{"scale":"tiny","schemes":["Baseline","OrdPush"],"workloads":[{"name":"cachebw"}]}`
	for _, tc := range []struct {
		name   string
		opts   Options
		status int
		want   string
	}{
		{"plain daemon over quota", Options{Workers: 1, TenantQuota: 1}, http.StatusTooManyRequests, "over quota"},
		{"coordinator over quota", Options{Workers: 1, TenantQuota: 1, Peers: peers}, http.StatusTooManyRequests, "over quota"},
		{"plain daemon queue full", Options{Workers: 1, MaxQueue: 1}, http.StatusServiceUnavailable, "queue full"},
		{"coordinator queue full", Options{Workers: 1, MaxQueue: 1, Peers: peers}, http.StatusServiceUnavailable, "queue full"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.opts)
			before := replica.completed.Load()
			resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(twoRuns))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d body %q; want %d", resp.StatusCode, body, tc.status)
			}
			if !strings.HasSuffix(string(body), "\n") || strings.Count(string(body), "\n") != 1 {
				t.Fatalf("refusal body is not one line: %q", body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Fatalf("refusal body does not say %q: %q", tc.want, body)
			}
			if n := s.completed.Load() + replica.completed.Load() - before; n != 0 {
				t.Fatalf("the refused campaign still completed %d runs", n)
			}
			if s.coord != nil && s.coord.Metrics().Dispatched != 0 {
				t.Fatalf("the refused campaign was dispatched: %+v", s.coord.Metrics())
			}
			// Nothing was half-admitted: a within-bound campaign runs normally.
			status, recs, _ := postCampaign(t, ts.URL, tiny16)
			if status != http.StatusOK || len(recs) != 1 || recs[0].Error != "" {
				t.Fatalf("within-bound campaign after refusal: status %d recs %+v", status, recs)
			}
			var m metrics
			getJSON(t, ts.URL+"/metrics", &m)
			if q := tc.opts.TenantQuota; m.Scheduler.Quota != q || (q > 0 && m.Scheduler.QuotaRejected < 1) {
				t.Fatalf("scheduler metrics %+v; want quota %d with its rejection counted", m.Scheduler, q)
			}
			// The proof a campaign went through the scheduler on either role.
			if _, ok := m.Scheduler.Tenants["default"]; !ok {
				t.Fatalf("scheduler metrics list no wait history for tenant default: %+v", m.Scheduler)
			}
		})
	}
}

// TestShutdownDrainsShardedCampaign closes a coordinator while its campaign is
// mid-dispatch: Close must wait for the sharded tasks like any others and
// close the journal last, so every error-free record the client received is in
// the journal file, and no shard is refused by a scheduler that shut down
// under it.
func TestShutdownDrainsShardedCampaign(t *testing.T) {
	pushmulticast.ClearRunMemo()
	t.Cleanup(pushmulticast.ClearRunMemo)
	// A replica whose shards take 200ms and answer one record per run.
	dispatched := make(chan struct{}, 16)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req shard.Request
		if r.URL.Path != "/shards" || json.NewDecoder(r.Body).Decode(&req) != nil {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		dispatched <- struct{}{}
		time.Sleep(200 * time.Millisecond)
		resp := shard.Response{ShardID: req.ShardID}
		for _, raw := range req.Runs {
			spec, err := pushmulticast.DecodeRunSpec(raw)
			if err != nil {
				t.Error(err)
			}
			run, err := spec.Resolve(nil)
			if err != nil {
				t.Error(err)
			}
			resp.Results = append(resp.Results, runRecord{ID: run.Identity(), Scheme: spec.Scheme, Workload: spec.Workload.Name, Cycles: 1})
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer replica.Close()
	jp := filepath.Join(t.TempDir(), "coord.journal")
	// One worker slot: Close lands with one shard in flight and three queued.
	s, ts := startServer(t, Options{Workers: 1, Peers: []string{replica.URL}, JournalPath: jp, HealthInterval: time.Minute})
	defer ts.Close()
	closed := make(chan error, 1)
	go func() {
		<-dispatched
		closed <- s.Close(5 * time.Second)
	}()
	fourRuns := `{"scale":"tiny","schemes":["Baseline","OrdPush"],"workloads":[{"name":"cachebw"},{"name":"mv"}]}`
	status, recs, sum := postCampaign(t, ts.URL, fourRuns)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if status != http.StatusOK || len(recs) != 4 || sum.Failed != 0 || sum.Canceled != 0 {
		t.Fatalf("campaign under a draining close: status %d, %d records, summary %+v; want 4 clean runs", status, len(recs), sum)
	}
	j, err := shard.OpenJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, rec := range recs {
		if strings.Contains(rec.Error, "shutting down") {
			t.Fatalf("run %s was refused by the scheduler it was already in: %s", rec.ID, rec.Error)
		}
		if _, ok := j.Lookup(rec.ID); rec.Error == "" && !ok {
			t.Fatalf("run %s was acknowledged to the client but is not in the journal file", rec.ID)
		}
	}
}

// stallingCtx is a request context that stalls, in stop, the worker that
// cancels a run context derived from it: a derived context unregisters itself
// from a parent with an AfterFunc method by calling the stop function that
// method returned. It is never done.
type stallingCtx struct {
	context.Context
	done chan struct{}
	stop func() bool
}

func (c stallingCtx) Done() <-chan struct{}               { return c.done }
func (c stallingCtx) AfterFunc(func()) (stop func() bool) { return c.stop }

// TestQuotaReleasedBeforeAnswer pins that a task's runs stop counting
// against its tenant's quota before its answer reaches the stream, so a
// client that reads a finished campaign can resubmit at once under a quota of
// one. The worker used to send the answer first and release the quota after;
// here it stalls in between (when it cancels the run's context, whose parent
// holds it there if the answer is already waiting to be read), so the
// resubmit is refused whenever the order is wrong, not only when a race goes
// that way.
func TestQuotaReleasedBeforeAnswer(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, TenantQuota: 1})
	spec := CampaignSpec{Scale: "tiny", Schemes: []string{"OrdPush"}, Workloads: []pushmulticast.WorkloadSpec{{Name: "cachebw"}}}
	_, runs, err := spec.resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(context.Context, []job) produced { return produced{} }
	var out <-chan produced
	stored, cancelled, resubmitted := make(chan struct{}), make(chan struct{}), make(chan struct{})
	ctx := stallingCtx{Context: context.Background(), done: make(chan struct{}), stop: func() bool {
		close(cancelled)
		if len(out) > 0 { // answered before the quota was released
			<-resubmitted
		}
		return true
	}}
	out, _, err = s.submit(ctx, "t", []job{{run: &runs[0]}}, 1, func(ctx context.Context, group []job) produced {
		<-stored // out is set before the worker's stop reads it
		return answer(ctx, group)
	})
	if err != nil {
		t.Fatal(err)
	}
	close(stored)
	<-cancelled // so an answer sent before the cancel waits in out's buffer
	<-out
	_, _, err = s.submit(context.Background(), "t", []job{{run: &runs[0]}}, 1, answer)
	close(resubmitted)
	if err != nil {
		t.Fatalf("a resubmit right after the answer arrived: %v", err)
	}
}

// TestSchedulerTenantQuota table-drives the quota admission contract at the
// scheduler layer: all-or-nothing batches, per-tenant accounting in runs
// (whatever the task grouping), and tenant independence. Workers are zero so
// admitted tasks pin their in-flight counts deterministically.
func TestSchedulerTenantQuota(t *testing.T) {
	mk := func(tenant string, runs int) *task {
		return &task{tenant: tenant, ctx: context.Background(), runs: runs, fn: func(context.Context) produced { return produced{} }}
	}
	batch := func(tenant string, n int) []*task {
		out := make([]*task, n)
		for i := range out {
			out[i] = mk(tenant, 1)
		}
		return out
	}
	cases := []struct {
		name        string
		quota       int
		prior       []*task // admitted first; stays in flight (no workers)
		batch       []*task
		wantErr     bool
		then        []*task // submitted after batch, to prove all-or-nothing
		wantThenErr bool
	}{
		{name: "zero quota is unlimited", quota: 0, batch: batch("a", 5)},
		{name: "batch within quota", quota: 2, batch: batch("a", 2)},
		{name: "batch alone over quota", quota: 2, batch: batch("a", 3), wantErr: true},
		{name: "in-flight accumulates", quota: 2, prior: batch("a", 2), batch: batch("a", 1), wantErr: true},
		{name: "tenants are independent", quota: 1, prior: batch("a", 1), batch: batch("b", 1)},
		{name: "a shard counts its runs", quota: 3, prior: []*task{mk("a", 2)}, batch: []*task{mk("a", 2)}, wantErr: true, then: batch("a", 1)},
		{name: "refused batch admits nothing", quota: 1, batch: batch("a", 2), wantErr: true, then: batch("a", 1)},
		{name: "mixed-tenant batch blames the violator", quota: 1, batch: append(batch("a", 1), batch("b", 2)...), wantErr: true, then: batch("a", 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newScheduler(0, 64, tc.quota)
			defer s.stop(time.Second)
			if len(tc.prior) > 0 {
				if err := s.submitAll(tc.prior); err != nil {
					t.Fatalf("prior submit: %v", err)
				}
			}
			err := s.submitAll(tc.batch)
			if tc.wantErr {
				if err == nil {
					t.Fatal("over-quota batch was admitted")
				}
				var oq overQuotaError
				if !errors.As(err, &oq) {
					t.Fatalf("refusal is not a typed overQuotaError: %v", err)
				}
				if strings.Contains(err.Error(), "\n") {
					t.Fatalf("refusal is not one line: %q", err)
				}
			} else if err != nil {
				t.Fatalf("within-quota batch refused: %v", err)
			}
			if len(tc.then) > 0 {
				if err := s.submitAll(tc.then); (err != nil) != tc.wantThenErr {
					t.Fatalf("follow-up submit err = %v; wantErr %v", err, tc.wantThenErr)
				}
			}
		})
	}
	// The refusal line renders all four facts: tenant, in-flight, submitted,
	// bound — the greppable 429 contract.
	msg := overQuotaError{tenant: "acme", quota: 2, inflight: 2, want: 1}.Error()
	want := fmt.Sprintf("tenant %q over quota: %d in flight + %d submitted exceeds the per-tenant bound of %d", "acme", 2, 1, 2)
	if msg != want {
		t.Fatalf("refusal line %q; want %q", msg, want)
	}
}
