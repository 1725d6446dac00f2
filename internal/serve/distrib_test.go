package serve

import (
	"context"
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

// TestCampaignTenantQuota429 pins the over-quota HTTP contract: a campaign
// exceeding the tenant's in-flight bound is refused whole with HTTP 429 and
// a one-line diagnostic, and a within-quota campaign still succeeds.
func TestCampaignTenantQuota429(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, TenantQuota: 1})
	twoRuns := `{"scale":"tiny","schemes":["Baseline","OrdPush"],"workloads":[{"name":"cachebw"}]}`
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(twoRuns))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d body %q; want 429", resp.StatusCode, body)
	}
	if !strings.HasSuffix(string(body), "\n") || strings.Count(string(body), "\n") != 1 {
		t.Fatalf("429 body is not one line: %q", body)
	}
	if !strings.Contains(string(body), "over quota") {
		t.Fatalf("429 body does not name the quota: %q", body)
	}
	// Nothing was half-admitted: a within-quota campaign runs normally.
	status, recs, _ := postCampaign(t, ts.URL, tiny16)
	if status != http.StatusOK || len(recs) != 1 || recs[0].Error != "" {
		t.Fatalf("within-quota campaign after refusal: status %d recs %+v", status, recs)
	}
	var m metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Scheduler.Quota != 1 || m.Scheduler.QuotaRejected < 1 {
		t.Fatalf("scheduler metrics %+v; want quota 1 with >= 1 rejection", m.Scheduler)
	}
	_ = s
}

// TestSchedulerTenantQuota table-drives the quota admission contract at the
// scheduler layer: all-or-nothing batches, per-tenant accounting, exempt
// bypass, and tenant independence. Workers are zero so admitted tasks pin
// their in-flight counts deterministically.
func TestSchedulerTenantQuota(t *testing.T) {
	mk := func(tenant string, exempt bool) *task {
		return &task{tenant: tenant, ctx: context.Background(), exempt: exempt, fn: func(context.Context) {}}
	}
	batch := func(tenant string, n int) []*task {
		out := make([]*task, n)
		for i := range out {
			out[i] = mk(tenant, false)
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
		{name: "exempt bypasses quota", quota: 1, prior: batch("a", 1), batch: []*task{mk("a", true)}},
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
