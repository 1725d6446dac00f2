package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushmulticast/internal/snapshot"
)

// TestShardID pins the shard identity contract: order-insensitive over the
// member run IDs, sensitive to the snapshot content hash, and stable.
func TestShardID(t *testing.T) {
	a := ID(0, []string{"r1", "r2", "r3"})
	b := ID(0, []string{"r3", "r1", "r2"})
	if a != b {
		t.Fatalf("shard ID depends on run order: %s vs %s", a, b)
	}
	if c := ID(7, []string{"r1", "r2", "r3"}); c == a {
		t.Fatal("shard ID ignores the snapshot content hash")
	}
	if d := ID(0, []string{"r1", "r2"}); d == a {
		t.Fatal("shard ID ignores the member set")
	}
	if len(a) != 16 {
		t.Fatalf("shard ID %q is not 16 hex chars", a)
	}
}

// TestJournalRoundTrip covers the file-backed journal end to end: commits
// persist, a reopened journal serves them, duplicates and conflicts are
// classified, and failed or canceled records are never retained.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := RunRecord{ID: "run1", Scheme: "OrdPush", Workload: "cachebw", Cycles: 123, TraceHash: "0xabc"}
	if dup, err := j.Commit(rec); dup || err != nil {
		t.Fatalf("first commit: dup=%v err=%v", dup, err)
	}
	if dup, err := j.Commit(rec); !dup || err != nil {
		t.Fatalf("repeat commit: dup=%v err=%v; want dup, no error", dup, err)
	}
	bad := rec
	bad.Cycles = 999
	if _, err := j.Commit(bad); err == nil || !strings.Contains(err.Error(), "determinism violation") {
		t.Fatalf("conflicting recompute not reported: %v", err)
	}
	if _, err := j.Commit(RunRecord{ID: "failed", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Lookup("failed"); ok {
		t.Fatal("failed record was journaled")
	}
	if err := j.CommitSnapshot("cafe", 4000); err != nil {
		t.Fatal(err)
	}
	j.Close()

	re, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok := re.Lookup("run1")
	if !ok || got.Cycles != 123 || got.TraceHash != "0xabc" {
		t.Fatalf("reopened journal lost run1: %+v ok=%v", got, ok)
	}
	if re.Runs() != 1 || re.Snapshots() != 1 {
		t.Fatalf("reopened journal holds %d runs, %d snapshots; want 1 and 1", re.Runs(), re.Snapshots())
	}
}

// journalTails are the ways a journal file goes bad behind its last good
// record: a line truncated the way SIGKILL mid-write would, and a line longer
// than any reader's buffer (a lost newline is enough), with and without a
// newline of its own.
var journalTails = map[string]string{
	"torn":              `{"kind":"run","record":{"id":"torn","cy`,
	"long line":         strings.Repeat("x", 2<<20) + "\n",
	"long line at tail": strings.Repeat("x", 2<<20),
}

// TestJournalTornTail damages the tail of a journal: the bad line is skipped
// and counted, never fatal, the intact records before it load, and a record
// committed after the reopen is there on the next one — a bad line costs
// itself, not what is fsynced behind it.
func TestJournalTornTail(t *testing.T) {
	for name, tail := range journalTails {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.ndjson")
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Commit(RunRecord{ID: "ok1", Cycles: 10}); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Commit(RunRecord{ID: "ok2", Cycles: 20}); err != nil {
				t.Fatal(err)
			}
			j.Close()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tail)
			f.Close()
			re, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("damaged journal failed to open: %v", err)
			}
			if re.Runs() != 2 || re.Skipped() != 1 {
				t.Fatalf("damaged journal recovered %d runs, skipped %d lines; want 2 and 1", re.Runs(), re.Skipped())
			}
			if _, ok := re.Lookup("torn"); ok {
				t.Fatal("torn record leaked into the recovery set")
			}
			if _, err := re.Commit(RunRecord{ID: "after", Cycles: 30}); err != nil {
				t.Fatal(err)
			}
			re.Close()
			re2, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			if got, ok := re2.Lookup("after"); !ok || got.Cycles != 30 || re2.Runs() != 3 || re2.Skipped() != 1 {
				t.Fatalf("record committed behind the bad line: found=%v (%d runs, %d skipped); want it recovered, 3 runs, 1 skipped",
					ok, re2.Runs(), re2.Skipped())
			}
		})
	}
}

// FuzzJournalLoad feeds arbitrary bytes to OpenJournal as a journal file.
// Content is never an error and never a panic; what loads obeys Commit's own
// admission rule; and the journal still works: a record committed after the
// load is recovered by the next load, whatever the file held.
func FuzzJournalLoad(f *testing.F) {
	good := `{"kind":"run","record":{"id":"ok1","scheme":"OrdPush","workload":"cachebw","cycles":10}}` + "\n" +
		`{"kind":"snapshot","snapshot":"cafe","cycle":4000}` + "\n"
	f.Add([]byte(good))
	f.Add([]byte(`{"kind":"run","record":{"id":"","cycles":1}}` + "\n" + `{"kind":"run","record":{"id":"e","error":"boom"}}` + "\n" + `{"kind":"other"}`))
	for _, tail := range journalTails {
		f.Add([]byte(good + tail))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("journal content refused: %v", err)
		}
		for id, rec := range j.Seen() {
			if id == "" || rec.ID != id || rec.Error != "" {
				t.Fatalf("loaded a record Commit would refuse: key %q, %+v", id, rec)
			}
		}
		probe, held := j.Lookup("fuzz-probe")
		if !held {
			probe = RunRecord{ID: "fuzz-probe", Cycles: 7}
		}
		if dup, err := j.Commit(probe); err != nil || dup != held {
			t.Fatalf("commit after load: dup=%v err=%v; want dup=%v, no error", dup, err, held)
		}
		runs := j.Runs()
		j.Close()
		re, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got, ok := re.Lookup("fuzz-probe"); !ok || !sameOutcome(got, probe) || re.Runs() != runs {
			t.Fatalf("record committed after the load: found=%v %+v, %d runs; want %+v, %d runs", ok, got, re.Runs(), probe, runs)
		}
	})
}

// fakeUnit builds a toy dispatch unit whose spec carries only the run ID —
// the fake workers below echo deterministic results from it.
func fakeUnit(id string) Unit {
	spec, _ := json.Marshal(map[string]string{"run": id})
	return Unit{RunID: id, Scheme: "OrdPush", Workload: "cachebw", Spec: spec}
}

// fakeCycles is the fake workers' deterministic outcome for a run ID.
func fakeCycles(id string) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range []byte(id) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h%100000 + 1
}

// fakeWorker is a worker replica for coordinator tests: /shards computes
// deterministic records from the toy specs, /healthz answers ok, /snapshots
// remembers uploads. Behavior knobs simulate failure modes.
type fakeWorker struct {
	ts        *httptest.Server
	shards    atomic.Uint64 // /shards requests served
	snapshots atomic.Uint64 // /snapshots uploads accepted
	// fail503N makes the first N /shards attempts answer 503.
	fail503N atomic.Int64
	// fail429N makes the first N /shards attempts answer 429.
	fail429N atomic.Int64
	// fail400 makes every /shards attempt answer 400 (permanent).
	fail400 atomic.Bool
	// dead drops every request on the floor by closing the connection —
	// the SIGKILLed-worker simulation (both /shards and /healthz die).
	dead atomic.Bool
	// hang wedges /shards until the client gives up — the silent-worker
	// simulation (healthz still answers; only dispatches stall).
	hang atomic.Bool
	// needSnap makes /shards answer 409 until a snapshot was uploaded.
	needSnap atomic.Bool
}

func newFakeWorker(t *testing.T) *fakeWorker {
	w := &fakeWorker{}
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.dead.Load() {
			hj, ok := rw.(http.Hijacker)
			if !ok {
				panic("test server does not support hijack")
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprintln(rw, `{"status":"ok"}`)
		case "/snapshots":
			w.snapshots.Add(1)
			fmt.Fprintln(rw, `{"id":"cafe"}`)
		case "/shards":
			if w.hang.Load() {
				// Drain the body first: the HTTP/1 server only notices a
				// client disconnect (and cancels r.Context()) once the
				// request body has been consumed.
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				return
			}
			if w.fail503N.Add(-1) >= 0 {
				http.Error(rw, "injected 503", http.StatusServiceUnavailable)
				return
			}
			if w.fail429N.Add(-1) >= 0 {
				http.Error(rw, "tenant over quota", http.StatusTooManyRequests)
				return
			}
			if w.fail400.Load() {
				http.Error(rw, "injected validation failure", http.StatusBadRequest)
				return
			}
			if w.needSnap.Load() && w.snapshots.Load() == 0 {
				http.Error(rw, "warm_start snapshot not found", http.StatusConflict)
				return
			}
			var req Request
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			w.shards.Add(1)
			resp := Response{ShardID: req.ShardID}
			for _, raw := range req.Runs {
				var spec struct {
					Run string `json:"run"`
				}
				if err := json.Unmarshal(raw, &spec); err != nil {
					http.Error(rw, err.Error(), http.StatusBadRequest)
					return
				}
				resp.Results = append(resp.Results, RunRecord{
					ID: spec.Run, Scheme: "OrdPush", Workload: "cachebw",
					Cycles: fakeCycles(spec.Run), TraceHash: "0x" + spec.Run,
				})
			}
			json.NewEncoder(rw).Encode(resp)
		default:
			http.NotFound(rw, r)
		}
	}))
	t.Cleanup(w.ts.Close)
	return w
}

// fastOptions are coordinator options tuned for test latency.
func fastOptions(workers ...string) Options {
	return Options{
		Workers:        workers,
		MaxRetries:     3,
		Timeout:        5 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
		HealthInterval: 25 * time.Millisecond,
		ProbeTimeout:   250 * time.Millisecond,
		Local: func(ctx context.Context, tenant string, u Unit) RunRecord {
			return RunRecord{ID: u.RunID, Scheme: u.Scheme, Workload: u.Workload,
				Cycles: fakeCycles(u.RunID), TraceHash: "0x" + u.RunID}
		},
	}
}

// runUnits drives one campaign through the coordinator and collects the
// emitted records keyed by run ID.
func runUnits(t *testing.T, c *Coordinator, units []Unit, snap []byte) (map[string]RunRecord, RunStats) {
	t.Helper()
	var mu sync.Mutex
	got := make(map[string]RunRecord)
	st := c.Run(context.Background(), "test", units, snap, func(rec RunRecord, recovered bool) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := got[rec.ID]; dup {
			t.Errorf("run %s emitted twice", rec.ID)
		}
		got[rec.ID] = rec
	})
	return got, st
}

// TestCoordinatorDispatchMerge is the happy path: every unit comes back
// exactly once with the worker's deterministic outcome, spread across both
// replicas, Cached cleared on every dispatched record.
func TestCoordinatorDispatchMerge(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	c, err := New(fastOptions(w1.ts.URL, w2.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var units []Unit
	for i := 0; i < 8; i++ {
		units = append(units, fakeUnit(fmt.Sprintf("run%d", i)))
	}
	got, st := runUnits(t, c, units, nil)
	if len(got) != 8 || st.Recomputed != 8 || st.Recovered != 0 {
		t.Fatalf("got %d records, stats %+v; want 8 recomputed", len(got), st)
	}
	for id, rec := range got {
		if rec.Error != "" || rec.Cycles != fakeCycles(id) || rec.Cached {
			t.Fatalf("record %s wrong: %+v", id, rec)
		}
	}
	if w1.shards.Load() == 0 || w2.shards.Load() == 0 {
		t.Fatalf("round-robin did not spread shards: w1=%d w2=%d", w1.shards.Load(), w2.shards.Load())
	}
	if got, want := c.Journal().Runs(), 8; got != want {
		t.Fatalf("journal holds %d runs; want %d", got, want)
	}
}

// TestCoordinatorReassignsOnWorkerDeath kills one replica (connections drop
// dead, the SIGKILL simulation) and requires every shard to complete on the
// survivor, with the reassignment counted and the dead replica's circuit
// opened.
func TestCoordinatorReassignsOnWorkerDeath(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w2.dead.Store(true)
	opts := fastOptions(w1.ts.URL, w2.ts.URL)
	// Slow the probe so dispatch, not the health loop, discovers the death —
	// that is the reassignment path under test.
	opts.HealthInterval = 500 * time.Millisecond
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var units []Unit
	for i := 0; i < 6; i++ {
		units = append(units, fakeUnit(fmt.Sprintf("run%d", i)))
	}
	got, st := runUnits(t, c, units, nil)
	if len(got) != 6 {
		t.Fatalf("got %d records; want 6", len(got))
	}
	for id, rec := range got {
		if rec.Error != "" || rec.Cycles != fakeCycles(id) {
			t.Fatalf("record %s wrong: %+v", id, rec)
		}
	}
	if st.DegradedLocal > 0 {
		t.Fatalf("degraded to local with a healthy replica available: %+v", st)
	}
	m := c.Metrics()
	if m.Reassigned == 0 {
		t.Fatalf("no reassignment recorded after a worker died: %+v", m)
	}
	for _, wh := range m.Workers {
		if wh.URL == w2.ts.URL && wh.Healthy {
			t.Fatal("dead replica still marked healthy")
		}
	}
}

// TestCoordinatorDegradesToLocal kills every replica: the ladder's bottom
// executes all units in-process, correctly and exactly once.
func TestCoordinatorDegradesToLocal(t *testing.T) {
	w1 := newFakeWorker(t)
	w1.dead.Store(true)
	opts := fastOptions(w1.ts.URL)
	opts.MaxRetries = 1
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	units := []Unit{fakeUnit("a"), fakeUnit("b")}
	got, st := runUnits(t, c, units, nil)
	if len(got) != 2 || st.DegradedLocal == 0 {
		t.Fatalf("got %d records, stats %+v; want 2 via local degradation", len(got), st)
	}
	for id, rec := range got {
		if rec.Error != "" || rec.Cycles != fakeCycles(id) {
			t.Fatalf("local record %s wrong: %+v", id, rec)
		}
	}
	if m := c.Metrics(); m.DegradedLocal == 0 {
		t.Fatalf("degraded-local not counted: %+v", m)
	}
}

// TestCoordinatorRetries503And429 pins the retry classification: transient
// statuses are retried on the same cluster until they clear, and a 429 does
// not open the replica's circuit.
func TestCoordinatorRetries503And429(t *testing.T) {
	w1 := newFakeWorker(t)
	w1.fail503N.Store(1)
	w1.fail429N.Store(1)
	c, err := New(fastOptions(w1.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, st := runUnits(t, c, []Unit{fakeUnit("x")}, nil)
	if rec := got["x"]; rec.Error != "" || rec.Cycles != fakeCycles("x") {
		t.Fatalf("record after transient failures: %+v", rec)
	}
	if st.Retries < 2 {
		t.Fatalf("retries=%d; want >=2 (one per injected transient failure)", st.Retries)
	}
}

// TestCoordinatorPermanent400 pins the other side: a validation failure is
// not retried — one dispatch, synthesized error records for the shard.
func TestCoordinatorPermanent400(t *testing.T) {
	w1 := newFakeWorker(t)
	w1.fail400.Store(true)
	c, err := New(fastOptions(w1.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _ := runUnits(t, c, []Unit{fakeUnit("x")}, nil)
	rec := got["x"]
	if rec.Error == "" || !strings.Contains(rec.Error, "validation failure") {
		t.Fatalf("permanent failure not surfaced: %+v", rec)
	}
	if m := c.Metrics(); m.Dispatched != 1 || m.Retries != 0 {
		t.Fatalf("400 was retried: %+v", m)
	}
	if c.Journal().Runs() != 0 {
		t.Fatal("error record leaked into the journal")
	}
}

// TestCoordinatorJournalRecovery pre-commits one run and requires the
// coordinator to emit it as recovered without dispatching it, while the
// other unit still computes.
func TestCoordinatorJournalRecovery(t *testing.T) {
	w1 := newFakeWorker(t)
	j := NewMemJournal()
	if _, err := j.Commit(RunRecord{ID: "done", Scheme: "OrdPush", Workload: "cachebw", Cycles: 777}); err != nil {
		t.Fatal(err)
	}
	opts := fastOptions(w1.ts.URL)
	opts.Journal = j
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	recovered := make(map[string]bool)
	got := make(map[string]RunRecord)
	st := c.Run(context.Background(), "test", []Unit{fakeUnit("done"), fakeUnit("fresh")}, nil, func(rec RunRecord, rcv bool) {
		mu.Lock()
		defer mu.Unlock()
		got[rec.ID] = rec
		recovered[rec.ID] = rcv
	})
	if st.Recovered != 1 || st.Recomputed != 1 {
		t.Fatalf("stats %+v; want 1 recovered + 1 recomputed", st)
	}
	if !recovered["done"] || recovered["fresh"] {
		t.Fatalf("recovery flags wrong: %+v", recovered)
	}
	if rec := got["done"]; rec.Cycles != 777 || !rec.Cached {
		t.Fatalf("recovered record not served from the journal: %+v", rec)
	}
	if rec := got["fresh"]; rec.Cycles != fakeCycles("fresh") || rec.Cached {
		t.Fatalf("fresh record wrong: %+v", rec)
	}
}

// TestCoordinatorSnapshotUpload covers the warm-start path: the donor is
// uploaded to a replica before its first shard (once, not per shard), and a
// replica that lost it (409) gets a re-upload on the retry.
func TestCoordinatorSnapshotUpload(t *testing.T) {
	w1 := newFakeWorker(t)
	c, err := New(fastOptions(w1.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	snap := []byte("donor-bytes")
	units := []Unit{fakeUnit("a"), fakeUnit("b"), fakeUnit("c")}
	got, _ := runUnits(t, c, units, snap)
	if len(got) != 3 {
		t.Fatalf("got %d records; want 3", len(got))
	}
	if n := w1.snapshots.Load(); n != 1 {
		t.Fatalf("donor uploaded %d times for 3 shards; want exactly 1", n)
	}

	// A worker that answers 409 (donor lost) forces a re-upload.
	w2 := newFakeWorker(t)
	w2.needSnap.Store(true)
	c2, err := New(fastOptions(w2.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Pretend the donor was already sent so the first dispatch skips the
	// upload and hits the 409.
	c2.replicas[0].mu.Lock()
	c2.replicas[0].snapSent = snapshot.Hash(snap)
	c2.replicas[0].mu.Unlock()
	got2, _ := runUnits(t, c2, []Unit{fakeUnit("z")}, snap)
	if rec := got2["z"]; rec.Error != "" {
		t.Fatalf("409 recovery failed: %+v", rec)
	}
	if n := w2.snapshots.Load(); n != 1 {
		t.Fatalf("donor re-uploaded %d times after 409; want 1", n)
	}
}

// TestCoordinatorCancellation fires the campaign context and requires every
// unit to come back as a canceled record rather than hang or vanish.
func TestCoordinatorCancellation(t *testing.T) {
	w1 := newFakeWorker(t)
	w1.hang.Store(true) // dispatches stall; only cancellation can end them
	c, err := New(fastOptions(w1.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	got := make(map[string]RunRecord)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx, "test", []Unit{fakeUnit("a"), fakeUnit("b")}, nil, func(rec RunRecord, _ bool) {
			mu.Lock()
			got[rec.ID] = rec
			mu.Unlock()
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("got %d records after cancel; want 2", len(got))
	}
	for id, rec := range got {
		if !rec.Canceled || rec.Error == "" {
			t.Fatalf("record %s not marked canceled: %+v", id, rec)
		}
	}
}
