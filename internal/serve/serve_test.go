package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pushmulticast"
	"pushmulticast/internal/snapshot"
)

// tiny16 is the smallest real campaign: one scheme, one workload, tiny
// inputs on the quick-scaled 16-core machine.
const tiny16 = `{"scale":"tiny","schemes":["OrdPush"],"workloads":[{"name":"cachebw"}]}`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	pushmulticast.ClearRunMemo()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(30 * time.Second); err != nil {
			t.Errorf("close: %v", err)
		}
		pushmulticast.ClearRunMemo()
	})
	return s, ts
}

// postCampaign POSTs a campaign body and returns the status, the per-run
// records, and the trailing summary.
func postCampaign(t *testing.T, url, body string) (int, []runRecord, campaignSummary) {
	t.Helper()
	resp, err := http.Post(url+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, campaignSummary{Summary: true}
	}
	var (
		recs []runRecord
		sum  campaignSummary
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"summary":true`)) {
			if err := json.Unmarshal(line, &sum); err != nil {
				t.Fatalf("summary line %q: %v", line, err)
			}
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("run line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, recs, sum
}

// TestCampaignDedupConcurrent fires N identical campaigns at the service
// concurrently and requires exactly one simulation: the memo records one
// miss, every response carries the same run identity and cycle count, and
// all but one response line was served from the memo. Run with -race in CI —
// this is the regression test for the service's dedup path end to end.
func TestCampaignDedupConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	const callers = 8
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		recs []runRecord
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, rs, sum := postCampaign(t, ts.URL, tiny16)
			if status != http.StatusOK {
				t.Errorf("status %d", status)
				return
			}
			if len(rs) != 1 || sum.Runs != 1 {
				t.Errorf("got %d records, summary %+v; want 1 run", len(rs), sum)
				return
			}
			mu.Lock()
			recs = append(recs, rs[0])
			mu.Unlock()
		}()
	}
	wg.Wait()
	if st := pushmulticast.RunMemoStats(); st.Misses != 1 {
		t.Fatalf("memo misses = %d for %d identical concurrent campaigns; exactly 1 simulation must have run", st.Misses, callers)
	}
	cached := 0
	for _, rec := range recs {
		if rec.Error != "" {
			t.Fatalf("run failed: %s", rec.Error)
		}
		if rec.ID != recs[0].ID || rec.Cycles != recs[0].Cycles {
			t.Fatalf("responses diverged: %+v vs %+v", rec, recs[0])
		}
		if rec.Cached {
			cached++
		}
	}
	if cached < callers-1 {
		t.Fatalf("only %d of %d responses were memo-served; at most one may have simulated", cached, callers)
	}
}

// TestCampaignRepeatIsCacheHit is the smoke-test contract: a repeated
// identical campaign is served from the memo ("cached":true) without a new
// simulation, and /metrics shows the hit.
func TestCampaignRepeatIsCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	if _, recs, _ := postCampaign(t, ts.URL, tiny16); len(recs) != 1 || recs[0].Error != "" {
		t.Fatalf("first campaign: %+v", recs)
	}
	_, recs, sum := postCampaign(t, ts.URL, tiny16)
	if len(recs) != 1 || !recs[0].Cached || sum.Cached != 1 {
		t.Fatalf("repeat campaign was not memo-served: recs %+v summary %+v", recs, sum)
	}
	var m metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Memo.Hits < 1 || m.Memo.Misses != 1 {
		t.Fatalf("metrics memo = %+v; want 1 miss and >= 1 hit", m.Memo)
	}
	if m.Runs["completed"] != 2 {
		t.Fatalf("metrics completed = %d; want 2", m.Runs["completed"])
	}
	// The completed run is retrievable by identity.
	var rec runRecord
	getJSON(t, ts.URL+"/runs/"+recs[0].ID, &rec)
	if rec.Cycles != recs[0].Cycles {
		t.Fatalf("GET /runs/%s = %+v; want cycles %d", recs[0].ID, rec, recs[0].Cycles)
	}
	_ = s
}

// donorSnapshot pauses the tiny16 campaign's one run at the given cycle and
// returns its snapshot: a warm-start donor the service accepts for tiny16.
func donorSnapshot(t *testing.T, cycle uint64) []byte {
	t.Helper()
	// Build the donor under the exact configuration the campaign will
	// resolve to, by resolving the same spec.
	spec := CampaignSpec{Scale: "tiny", Schemes: []string{"OrdPush"}, Workloads: []pushmulticast.WorkloadSpec{{Name: "cachebw"}}}
	jobs, err := spec.resolve(nil, taskJob)
	if err != nil {
		t.Fatal(err)
	}
	run := jobs[0].run
	m, err := pushmulticast.NewMachine(run.Config, run.Workload, run.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunTo(cycle); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestWarmResolveThroughStore pins that the donor is hashed once, at upload:
// a run resolved through snapStore.get carries the hash put computed, that
// hash is the stored bytes' SnapshotHash, and the run's identity is the one
// RunIdentity derives by hashing the bytes itself.
func TestWarmResolveThroughStore(t *testing.T) {
	snap := donorSnapshot(t, 2000)
	st := newSnapStore()
	id, _, err := st.put(snap)
	if err != nil {
		t.Fatal(err)
	}
	stored, hash, ok := st.get(id)
	if !ok || hash != pushmulticast.SnapshotHash(stored) || id != fmt.Sprintf("%016x", hash) {
		t.Fatalf("store holds %s with hash %#x (found %v); SnapshotHash of its bytes is %#x", id, hash, ok, pushmulticast.SnapshotHash(stored))
	}
	spec := CampaignSpec{Scale: "tiny", Schemes: []string{"OrdPush"}, Workloads: []pushmulticast.WorkloadSpec{{Name: "cachebw"}}, WarmStart: id}
	jobs, err := spec.resolve(st.get, taskJob)
	if err != nil {
		t.Fatal(err)
	}
	r := *jobs[0].run
	if r.DonorHash() != hash {
		t.Errorf("warm run carries donor hash %#x, the store handed over %#x", r.DonorHash(), hash)
	}
	if want := pushmulticast.RunIdentity(r.Config, r.Workload, r.Scale, snap); r.Identity() != want {
		t.Errorf("warm run resolved through the store is %s, RunIdentity says %s", r.Identity(), want)
	}
}

// TestCampaignMalformedSpecs table-drives the validation contract: every
// malformed spec — and every uploaded snapshot that could never restore — is
// HTTP 400 with a one-line diagnostic (exactly one newline, at the end) and
// zero scheduled work.
func TestCampaignMalformedSpecs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	snap := donorSnapshot(t, 2000)
	altered := bytes.Clone(snap)
	altered[len(altered)/2] ^= 0x40
	future, previous := bytes.Clone(snap), bytes.Clone(snap)
	future[8]++ // low byte of the format version, right after the 8-byte magic
	previous[8]--
	const campaigns, snapshots = "/campaigns", "/snapshots"
	type badCase struct {
		name string
		path string
		body string
		want string // substring of the diagnostic
	}
	cases := []badCase{
		{"snapshot-not-a-snapshot", snapshots, "not a snapshot", "snapshot"},
		{"snapshot-truncated", snapshots, string(snap[:len(snap)-9]), "snapshot"},
		{"snapshot-altered", snapshots, string(altered), "snapshot"},
		{"snapshot-future-version", snapshots, string(future), "snapshot"},
		{"snapshot-previous-version", snapshots, string(previous), fmt.Sprintf("snapshot format v%d, this build reads v%d", snapshot.Version-1, snapshot.Version)},
		{"invalid-json", campaigns, `{"schemes":`, "campaign spec"},
		{"unknown-field", campaigns, `{"scheems":["OrdPush"],"workloads":[{"name":"cachebw"}]}`, `unknown field "scheems"`},
		// The shard wire's singular keys are not campaign keys.
		{"run-spec-keys", campaigns, `{"scheme":"OrdPush","workload":{"name":"cachebw"}}`, `unknown field "scheme"`},
		{"no-schemes", campaigns, `{"workloads":[{"name":"cachebw"}]}`, "no schemes listed"},
		{"no-workloads", campaigns, `{"schemes":["OrdPush"]}`, "no workloads listed"},
		// One run named twice: a coordinator merges by identity and would
		// stream one record where a local daemon streams two.
		{"duplicate-run", campaigns, `{"scale":"tiny","schemes":["OrdPush","ordpush"],"workloads":[{"name":"cachebw"}]}`,
			"schemes[1] x workloads[0] (ordpush/cachebw) names the same run as schemes[0] x workloads[0] (OrdPush/cachebw)"},
	}
	// Every malformed run description pushsim refuses, as a one-run campaign.
	for _, tc := range pushmulticast.MalformedRunSpecs() {
		if tc.ExtraArgs != nil {
			continue // a flag spelling; cmd/pushsim runs it
		}
		body := tc.WithExtraJSON([]byte(campaignBody(t, tc.Spec)))
		cases = append(cases, badCase{tc.Name, campaigns, string(body), tc.Want})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, body %q; want 400", resp.StatusCode, body)
			}
			if n := strings.Count(string(body), "\n"); n != 1 || !strings.HasSuffix(string(body), "\n") {
				t.Fatalf("diagnostic is not one line (%d newlines): %q", n, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Fatalf("diagnostic %q does not mention %q", body, tc.want)
			}
		})
	}
	if st := pushmulticast.RunMemoStats(); st.Misses != 0 {
		t.Fatalf("malformed specs started %d simulations; want 0", st.Misses)
	}
}

// TestCampaignClientCancellation disconnects a client mid-run and requires
// the simulation to be canceled instead of simulated to completion: the
// canceled-run counter moves and the worker slot frees promptly.
func TestCampaignClientCancellation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// A 256-core run is far too slow to finish under this test; the request
	// context is canceled shortly after it starts.
	big := `{"cores":256,"scale":"tiny","schemes":["OrdPush"],"workloads":[{"name":"cachebw"}]}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/campaigns", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	<-done
	deadline := time.Now().Add(30 * time.Second)
	for {
		var m metrics
		getJSON(t, ts.URL+"/metrics", &m)
		if m.Runs["canceled"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled campaign never registered a canceled run: %+v", m.Runs)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSnapshotUploadReadsOnce pins that an upload declaring its length is
// read into one buffer of that size: the server allocates at most 1.5 times
// the snapshot to take it (least of three uploads), where reading to EOF
// regrew its buffer to several times that. An upload of undeclared length
// is read to the bound as before and stores the same snapshot.
func TestSnapshotUploadReadsOnce(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	snap := donorSnapshot(t, 4000)
	upload := func(body io.Reader) (uint64, string) {
		req := httptest.NewRequest(http.MethodPost, "/snapshots", body)
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusOK {
			t.Fatalf("upload: status %d: %s", w.Code, w.Body)
		}
		return after.TotalAlloc - before.TotalAlloc, w.Body.String()
	}
	least, reply := ^uint64(0), ""
	for range 3 {
		n, body := upload(bytes.NewReader(snap)) // sets the request's ContentLength
		least, reply = min(least, n), body
	}
	if least > uint64(len(snap))*3/2 {
		t.Errorf("a %d-byte upload allocated %d bytes; want at most 1.5x", len(snap), least)
	}
	if _, unsized := upload(io.MultiReader(bytes.NewReader(snap))); unsized != reply {
		t.Errorf("an upload of undeclared length replied %s; the sized one %s", unsized, reply)
	}
}

// TestSnapshotWarmStart uploads a warm donor snapshot and runs a campaign
// forked from it: the warm run succeeds, and its identity differs from the
// cold run of the same configuration (the memo separates them by donor
// content hash).
func TestSnapshotWarmStart(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	snap := donorSnapshot(t, 4000)
	resp, err := http.Post(ts.URL+"/snapshots", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		ID    string `json:"id"`
		Cycle uint64 `json:"cycle"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if up.ID == "" || up.Cycle == 0 {
		t.Fatalf("snapshot upload returned %+v", up)
	}
	warmBody := fmt.Sprintf(`{"scale":"tiny","warm_start":%q,"schemes":["OrdPush"],"workloads":[{"name":"cachebw"}]}`, up.ID)
	status, warmRecs, _ := postCampaign(t, ts.URL, warmBody)
	if status != http.StatusOK || len(warmRecs) != 1 || warmRecs[0].Error != "" {
		t.Fatalf("warm campaign: status %d recs %+v", status, warmRecs)
	}
	_, coldRecs, _ := postCampaign(t, ts.URL, tiny16)
	if warmRecs[0].ID == coldRecs[0].ID {
		t.Fatal("warm and cold runs of one configuration share a run identity")
	}
	// A crafted donor: a well-sealed container whose first decoded length
	// (the link-counter count after the "stats.all" marker) is 1<<62. It is
	// structurally a snapshot, so the upload is accepted; the fork then fails
	// as one run with a one-line error — it used to panic in the memo's
	// goroutine and take the daemon down — and the server keeps serving.
	crafted := bytes.Clone(snap)
	at := bytes.Index(crafted, []byte("stats.all")) + len("stats.all")
	binary.LittleEndian.PutUint64(crafted[at:], 1<<62)
	body := crafted[:len(crafted)-8]
	binary.LittleEndian.PutUint64(crafted[len(body):], pushmulticast.SnapshotHash(body))
	resp, err = http.Post(ts.URL+"/snapshots", "application/octet-stream", bytes.NewReader(crafted))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatalf("crafted upload (status %d): %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	warmBody = fmt.Sprintf(`{"scale":"tiny","warm_start":%q,"schemes":["OrdPush"],"workloads":[{"name":"cachebw"}]}`, up.ID)
	status, recs, _ := postCampaign(t, ts.URL, warmBody)
	if status != http.StatusOK || len(recs) != 1 || !strings.Contains(recs[0].Error, "snapshot corrupt") || strings.Contains(recs[0].Error, "\n") {
		t.Fatalf("fork from a crafted donor: status %d recs %+v; want one run with a one-line snapshot-corrupt error", status, recs)
	}
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server stopped answering /healthz after the crafted donor: %v", err)
	}
	resp.Body.Close()
}

// TestGracefulShutdownDrains starts a short campaign and closes the server
// with a generous drain: the in-flight run completes and Close reports a
// clean drain.
func TestGracefulShutdownDrains(t *testing.T) {
	pushmulticast.ClearRunMemo()
	t.Cleanup(pushmulticast.ClearRunMemo)
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, recs, _ := postCampaign(t, ts.URL, tiny16); status != http.StatusOK || len(recs) != 1 {
		t.Fatalf("campaign: status %d recs %+v", status, recs)
	}
	if err := s.Close(30 * time.Second); err != nil {
		t.Fatalf("clean close after an idle drain: %v", err)
	}
	// Campaigns after shutdown are refused with 503.
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(tiny16))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown campaign got %d; want 503", resp.StatusCode)
	}
}

// TestShutdownHardCancelsStragglers closes the server while a long run is
// in flight with a tiny drain window: Close must hard-cancel the run and
// return promptly with the drain-expired error rather than wait out the
// full simulation.
func TestShutdownHardCancelsStragglers(t *testing.T) {
	pushmulticast.ClearRunMemo()
	t.Cleanup(pushmulticast.ClearRunMemo)
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big := `{"cores":256,"scale":"tiny","schemes":["OrdPush"],"workloads":[{"name":"cachebw"}]}`
	go func() {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(big))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Wait for the run to occupy the worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := s.sched.stats(); st.Running >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	start := time.Now()
	err = s.Close(100 * time.Millisecond)
	if err == nil {
		t.Fatal("Close reported a clean drain while a 256-core run was in flight")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("Close took %s; hard-cancel must stop the run at its next cancellation barrier", elapsed)
	}
}

// TestSchedulerFairRoundRobin pins the per-tenant fairness property with a
// single worker: while tenant A's backlog holds the queue, a newly arrived
// tenant B task is dispatched before A's remaining backlog.
func TestSchedulerFairRoundRobin(t *testing.T) {
	sched := newScheduler(1, 64, 0)
	defer sched.stop(time.Second)
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	record := func(name string) func(context.Context) produced {
		return func(context.Context) produced {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return produced{}
		}
	}
	// The gate task occupies the single worker while the backlog builds.
	if err := sched.submitAll([]*task{&task{tenant: "a", ctx: context.Background(), runs: 1, fn: func(context.Context) produced { <-gate; return produced{} }}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a1", "a2", "a3"} {
		if err := sched.submitAll([]*task{&task{tenant: "a", ctx: context.Background(), runs: 1, fn: record(name)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.submitAll([]*task{&task{tenant: "b", ctx: context.Background(), runs: 1, fn: record("b1")}}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 4 tasks ran", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	posB := -1
	for i, name := range order {
		if name == "b1" {
			posB = i
		}
	}
	if posB < 0 || posB > 1 {
		t.Fatalf("tenant b's task ran at position %d of %v; fair round-robin must dispatch it ahead of tenant a's backlog", posB, order)
	}
}

// TestSchedulerTurnOrder pins the order itself: tenants with work take strict
// turns in the order they gained it, and one that drains drops out of the
// rotation without disturbing the others' order.
func TestSchedulerTurnOrder(t *testing.T) {
	sched := newScheduler(1, 64, 0)
	defer sched.stop(time.Second)
	gate := make(chan struct{})
	var order []string // written by the single worker, read after done
	var done sync.WaitGroup
	batch := func(tenant string, names ...string) {
		tasks := make([]*task, len(names))
		for i, name := range names {
			tasks[i] = &task{tenant: tenant, ctx: context.Background(), runs: 1, fn: func(context.Context) produced { order = append(order, name); done.Done(); return produced{} }}
		}
		done.Add(len(tasks))
		if err := sched.submitAll(tasks); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.submitAll([]*task{{tenant: "gate", ctx: context.Background(), runs: 1, fn: func(context.Context) produced { <-gate; return produced{} }}}); err != nil {
		t.Fatal(err)
	}
	batch("a", "a1", "a2", "a3")
	batch("b", "b1", "b2")
	batch("c", "c1")
	close(gate)
	done.Wait()
	if got, want := strings.Join(order, " "), "a1 b1 c1 a2 b2 a3"; got != want {
		t.Fatalf("dispatch order %q; want %q", got, want)
	}
}

// TestSchedulerForgetsIdleTenants runs 5000 one-run tenants through one
// scheduler: once idle it holds no tenant in the ring or the queues, wait
// histories for the most recently dispatched waitTenants only — the last
// tenant's quantiles still readable, the first one's gone — and a tenant that
// comes back is scheduled like a new one.
func TestSchedulerForgetsIdleTenants(t *testing.T) {
	const tenants = 5000
	sched := newScheduler(2, 64, 0)
	defer sched.stop(time.Second)
	var wg sync.WaitGroup
	run := func(tenant string) {
		wg.Add(1)
		if err := sched.submitAll([]*task{{tenant: tenant, ctx: context.Background(), runs: 1, fn: func(context.Context) produced { wg.Done(); return produced{} }}}); err != nil {
			t.Fatal(err)
		}
		wg.Wait() // one at a time: dispatch order is tenant order
	}
	for i := 0; i < tenants; i++ {
		run(fmt.Sprintf("t%04d", i))
	}
	sched.mu.Lock()
	ring, queues, waits := len(sched.ring), len(sched.queues), len(sched.waits)
	sched.mu.Unlock()
	if ring != 0 || queues != 0 || waits != waitTenants {
		t.Fatalf("idle scheduler after %d one-run tenants holds ring=%d queues=%d waits=%d; want 0, 0, %d", tenants, ring, queues, waits, waitTenants)
	}
	st := sched.stats()
	if _, ok := st.Tenants["t4999"]; !ok || len(st.Tenants) != waitTenants {
		t.Fatalf("stats lists %d tenants (last one present: %v); want the %d most recently dispatched", len(st.Tenants), ok, waitTenants)
	}
	if _, ok := st.Tenants["t0000"]; ok {
		t.Fatal("stats still lists the first of 5000 idle tenants")
	}
	run("t0000")
	if _, ok := sched.stats().Tenants["t0000"]; !ok {
		t.Fatal("a returning tenant's wait history was not recorded")
	}
}

// TestHealthz covers the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	var h struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthz status %q", h.Status)
	}
}

// campaignBody renders one run description as the one-run campaign that
// names it.
func campaignBody(t *testing.T, s pushmulticast.RunSpec) string {
	t.Helper()
	body, err := json.Marshal(CampaignSpec{
		Cores: s.Cores, Scale: s.Scale, Schemes: []string{s.Scheme}, Workloads: []pushmulticast.WorkloadSpec{s.Workload},
		Check: s.Check, TraceN: s.TraceN, Faults: s.Faults, WarmStart: s.WarmStart, Knobs: s.Knobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestCampaignAndShardUnitResolveLikeEveryFrontEnd is the service's half of
// the one-path contract (pushsim's half ranges over the same table): a
// one-run campaign body, and the shard unit bytes a coordinator would send
// for it, resolve to the same configuration and identity as the description
// resolved directly.
func TestCampaignAndShardUnitResolveLikeEveryFrontEnd(t *testing.T) {
	for _, tc := range pushmulticast.ExampleRunSpecs() {
		t.Run(tc.Name, func(t *testing.T) {
			want, err := tc.Spec.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			var spec CampaignSpec
			if err := decodeStrict(strings.NewReader(campaignBody(t, tc.Spec)), "campaign spec", &spec); err != nil {
				t.Fatal(err)
			}
			jobs, err := spec.resolve(nil, taskJob)
			if err != nil || len(jobs) != 1 {
				t.Fatalf("campaign resolved to %d runs: %v", len(jobs), err)
			}
			unit, err := json.Marshal(spec.run(0))
			if err != nil {
				t.Fatal(err)
			}
			fromUnit, err := pushmulticast.DecodeRunSpec(unit)
			if err != nil {
				t.Fatal(err)
			}
			onWorker, err := fromUnit.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]pushmulticast.ResolvedRun{"campaign body": *jobs[0].run, "shard unit": onWorker} {
				if got.Identity() != want.Identity() || !reflect.DeepEqual(got.Config, want.Config) {
					t.Errorf("%s resolved a different run:\n got  %+v\n want %+v", name, got.Config, want.Config)
				}
			}
		})
	}
}

// TestClearRunMemoForcesResimulation pins what the journal must not do: a
// record committed during this process's lifetime never short-circuits a
// simulation. After ClearRunMemo the same campaign simulates again and says
// so ("cached":false) — only the startup recovery set serves without running.
func TestClearRunMemoForcesResimulation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	if _, recs, _ := postCampaign(t, ts.URL, tiny16); len(recs) != 1 || recs[0].Error != "" {
		t.Fatalf("first campaign: %+v", recs)
	}
	pushmulticast.ClearRunMemo()
	_, recs, sum := postCampaign(t, ts.URL, tiny16)
	if len(recs) != 1 || recs[0].Cached || sum.Cached != 0 {
		t.Fatalf("campaign after ClearRunMemo was served without simulating: recs %+v summary %+v", recs, sum)
	}
	if st := pushmulticast.RunMemoStats(); st.Misses != 1 {
		t.Fatalf("memo misses after the clear = %d; want 1 fresh simulation", st.Misses)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d body %q", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
