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
	// The serving rule: a record committed in this life is held, and answers
	// no run.
	if _, ok := j.Recovered("run1"); ok {
		t.Fatal("a record committed during this process's life was offered in place of a run")
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
	if re.Stats().Runs != 1 || re.Stats().Snapshots != 1 {
		t.Fatalf("reopened journal holds %d runs, %d snapshots; want 1 and 1", re.Stats().Runs, re.Stats().Snapshots)
	}
	// The other half of the rule: what the open loaded answers its run, marked
	// cached; what is committed after it does not.
	if got, ok := re.Recovered("run1"); !ok || !got.Cached || got.Cycles != 123 {
		t.Fatalf("reopened journal does not offer run1 as recovered: %+v ok=%v", got, ok)
	}
	if _, err := re.Commit(RunRecord{ID: "run2", Cycles: 5}); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Recovered("run2"); ok {
		t.Fatal("a record committed after the reopen was offered in place of a run")
	}
	if got, ok := re.Lookup("run2"); !ok || got.Cached {
		t.Fatalf("Lookup(run2) = %+v ok=%v; want the committed record, not marked cached", got, ok)
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
			if re.Stats().Runs != 2 || re.Stats().SkippedLines != 1 {
				t.Fatalf("damaged journal recovered %d runs, skipped %d lines; want 2 and 1", re.Stats().Runs, re.Stats().SkippedLines)
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
			if got, ok := re2.Lookup("after"); !ok || got.Cycles != 30 || re2.Stats().Runs != 3 || re2.Stats().SkippedLines != 1 {
				t.Fatalf("record committed behind the bad line: found=%v (%d runs, %d skipped); want it recovered, 3 runs, 1 skipped",
					ok, re2.Stats().Runs, re2.Stats().SkippedLines)
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
		for id, e := range j.seen {
			if id == "" || e.rec.ID != id || e.rec.Error != "" || !e.atOpen {
				t.Fatalf("loaded a record Commit would refuse, or one not marked recovered: key %q, %+v", id, e)
			}
		}
		probe, held := j.Lookup("fuzz-probe")
		if !held {
			probe = RunRecord{ID: "fuzz-probe", Cycles: 7}
		}
		if dup, err := j.Commit(probe); err != nil || dup != held {
			t.Fatalf("commit after load: dup=%v err=%v; want dup=%v, no error", dup, err, held)
		}
		runs := j.Stats().Runs
		j.Close()
		re, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got, ok := re.Lookup("fuzz-probe"); !ok || !sameOutcome(got, probe) || re.Stats().Runs != runs {
			t.Fatalf("record committed after the load: found=%v %+v, %d runs; want %+v, %d runs", ok, got, re.Stats().Runs, probe, runs)
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
	// cached marks every returned record memo-served, as a warm replica would.
	cached atomic.Bool
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
					Cycles: fakeCycles(spec.Run), TraceHash: "0x" + spec.Run, Cached: w.cached.Load(),
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

// fastOptions are coordinator options tuned for test latency (the backoff and
// probe bounds are constants: a retry here costs 50-100ms).
func fastOptions(workers ...string) Options {
	return Options{
		Workers:        workers,
		MaxRetries:     3,
		Timeout:        5 * time.Second,
		HealthInterval: 25 * time.Millisecond,
	}
}

// doShards sends each unit through Do as a shard of its own, the way a
// ShardSize-1 campaign's tasks would, and returns the records by run ID with
// the outcomes summed. A degraded shard contributes no record.
func doShards(t *testing.T, c *Coordinator, units []Unit, snap []byte) (map[string]RunRecord, Outcome, int) {
	t.Helper()
	got := make(map[string]RunRecord)
	var sum Outcome
	degraded := 0
	var snapHash uint64
	if len(snap) > 0 {
		snapHash = snapshot.Hash(snap)
	}
	for _, u := range units {
		recs, out := c.Do(context.Background(), "test", []Unit{u}, snap, snapHash)
		sum.Retries += out.Retries
		sum.Reassigned += out.Reassigned
		if out.Degraded {
			degraded++
			if recs != nil {
				t.Errorf("degraded shard %s still returned records: %+v", u.RunID, recs)
			}
			continue
		}
		if len(recs) != 1 || recs[0].ID != u.RunID {
			t.Fatalf("shard %s returned %+v; want exactly its one record", u.RunID, recs)
		}
		got[u.RunID] = recs[0]
	}
	return got, sum, degraded
}

// TestCoordinatorDispatchMerge is the happy path: a multi-unit shard comes
// back whole, one record per unit in unit order with the worker's
// deterministic outcome and Cached cleared, and single-unit shards spread
// across both replicas.
func TestCoordinatorDispatchMerge(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.cached.Store(true)
	w2.cached.Store(true)
	c := New(fastOptions(w1.ts.URL, w2.ts.URL))
	defer c.Close()
	var units []Unit
	for i := 0; i < 8; i++ {
		units = append(units, fakeUnit(fmt.Sprintf("run%d", i)))
	}
	recs, out := c.Do(context.Background(), "test", units[:4], nil, 0)
	if len(recs) != 4 || out != (Outcome{}) {
		t.Fatalf("4-unit shard returned %d records, outcome %+v; want 4 and a clean outcome", len(recs), out)
	}
	for i, rec := range recs {
		if rec.ID != units[i].RunID {
			t.Fatalf("record %d is %s; want unit order (%s)", i, rec.ID, units[i].RunID)
		}
	}
	got, _, degraded := doShards(t, c, units[4:], nil)
	if len(got) != 4 || degraded != 0 {
		t.Fatalf("got %d records, %d degraded; want 4 dispatched", len(got), degraded)
	}
	for _, rec := range recs {
		got[rec.ID] = rec
	}
	for id, rec := range got {
		if rec.Error != "" || rec.Cycles != fakeCycles(id) || rec.Cached {
			t.Fatalf("record %s wrong: %+v", id, rec)
		}
	}
	if w1.shards.Load() == 0 || w2.shards.Load() == 0 {
		t.Fatalf("round-robin did not spread shards: w1=%d w2=%d", w1.shards.Load(), w2.shards.Load())
	}
	if m := c.Metrics(); m.Dispatched != 5 {
		t.Fatalf("dispatched = %d; want 5 (one 4-unit shard + four singles)", m.Dispatched)
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
	c := New(opts)
	defer c.Close()
	var units []Unit
	for i := 0; i < 6; i++ {
		units = append(units, fakeUnit(fmt.Sprintf("run%d", i)))
	}
	got, out, degraded := doShards(t, c, units, nil)
	if len(got) != 6 {
		t.Fatalf("got %d records; want 6", len(got))
	}
	for id, rec := range got {
		if rec.Error != "" || rec.Cycles != fakeCycles(id) {
			t.Fatalf("record %s wrong: %+v", id, rec)
		}
	}
	if degraded > 0 {
		t.Fatalf("%d shards degraded with a healthy replica available", degraded)
	}
	m := c.Metrics()
	if m.Reassigned == 0 || out.Reassigned == 0 {
		t.Fatalf("no reassignment recorded after a worker died: outcome %+v metrics %+v", out, m)
	}
	for _, wh := range m.Workers {
		if wh.URL == w2.ts.URL && wh.Healthy {
			t.Fatal("dead replica still marked healthy")
		}
	}
}

// TestCoordinatorDegradesToLocal kills every replica: each shard comes back
// Degraded with no records — the caller's to compute — and is counted.
func TestCoordinatorDegradesToLocal(t *testing.T) {
	w1 := newFakeWorker(t)
	w1.dead.Store(true)
	opts := fastOptions(w1.ts.URL)
	opts.MaxRetries = 1
	c := New(opts)
	defer c.Close()
	got, _, degraded := doShards(t, c, []Unit{fakeUnit("a"), fakeUnit("b")}, nil)
	if len(got) != 0 || degraded != 2 {
		t.Fatalf("got %d records, %d degraded; want both shards handed back", len(got), degraded)
	}
	if m := c.Metrics(); m.DegradedLocal != 2 {
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
	c := New(fastOptions(w1.ts.URL))
	defer c.Close()
	got, out, _ := doShards(t, c, []Unit{fakeUnit("x")}, nil)
	if rec := got["x"]; rec.Error != "" || rec.Cycles != fakeCycles("x") {
		t.Fatalf("record after transient failures: %+v", rec)
	}
	if out.Retries < 2 {
		t.Fatalf("retries=%d; want >=2 (one per injected transient failure)", out.Retries)
	}
}

// TestCoordinatorPermanent400 pins the other side: a validation failure is
// not retried — one dispatch, synthesized error records for the shard.
func TestCoordinatorPermanent400(t *testing.T) {
	w1 := newFakeWorker(t)
	w1.fail400.Store(true)
	c := New(fastOptions(w1.ts.URL))
	defer c.Close()
	got, _, _ := doShards(t, c, []Unit{fakeUnit("x")}, nil)
	rec := got["x"]
	if rec.Error == "" || rec.Canceled || !strings.Contains(rec.Error, "validation failure") {
		t.Fatalf("permanent failure not surfaced: %+v", rec)
	}
	if m := c.Metrics(); m.Dispatched != 1 || m.Retries != 0 {
		t.Fatalf("400 was retried: %+v", m)
	}
}

// TestCoordinatorTakesDonorHash pins that Do hashes nothing: the shard is
// named by, and the replica's upload record holds, the hash the caller
// handed over, even one that is not the donor bytes' content hash.
func TestCoordinatorTakesDonorHash(t *testing.T) {
	w1 := newFakeWorker(t)
	c := New(fastOptions(w1.ts.URL))
	defer c.Close()
	snap := []byte("donor-bytes")
	const given = 0x5eed
	if given == snapshot.Hash(snap) {
		t.Fatal("the made-up hash is the real one; pick another")
	}
	recs, out := c.Do(context.Background(), "test", []Unit{fakeUnit("a")}, snap, given)
	if len(recs) != 1 || recs[0].Error != "" || out.Degraded {
		t.Fatalf("warm shard returned %+v, outcome %+v", recs, out)
	}
	c.replicas[0].mu.Lock()
	sent := c.replicas[0].snapSent
	c.replicas[0].mu.Unlock()
	if sent != given {
		t.Errorf("replica's donor recorded as %#x, the caller handed over %#x", sent, given)
	}
}

// TestCoordinatorSnapshotUpload covers the warm-start path: the donor is
// uploaded to a replica before its first shard (once, not per shard), and a
// replica that lost it (409) gets a re-upload on the retry.
func TestCoordinatorSnapshotUpload(t *testing.T) {
	w1 := newFakeWorker(t)
	c := New(fastOptions(w1.ts.URL))
	defer c.Close()
	snap := []byte("donor-bytes")
	units := []Unit{fakeUnit("a"), fakeUnit("b"), fakeUnit("c")}
	got, _, _ := doShards(t, c, units, snap)
	if len(got) != 3 {
		t.Fatalf("got %d records; want 3", len(got))
	}
	if n := w1.snapshots.Load(); n != 1 {
		t.Fatalf("donor uploaded %d times for 3 shards; want exactly 1", n)
	}

	// A worker that answers 409 (donor lost) forces a re-upload.
	w2 := newFakeWorker(t)
	w2.needSnap.Store(true)
	c2 := New(fastOptions(w2.ts.URL))
	defer c2.Close()
	// Pretend the donor was already sent so the first dispatch skips the
	// upload and hits the 409.
	c2.replicas[0].mu.Lock()
	c2.replicas[0].snapSent = snapshot.Hash(snap)
	c2.replicas[0].mu.Unlock()
	got2, _, _ := doShards(t, c2, []Unit{fakeUnit("z")}, snap)
	if rec := got2["z"]; rec.Error != "" {
		t.Fatalf("409 recovery failed: %+v", rec)
	}
	if n := w2.snapshots.Load(); n != 1 {
		t.Fatalf("donor re-uploaded %d times after 409; want 1", n)
	}
}

// TestCoordinatorCancellation fires the campaign context mid-dispatch and
// requires Do to return a canceled record per unit rather than hang, vanish,
// or hand the shard back as Degraded.
func TestCoordinatorCancellation(t *testing.T) {
	w1 := newFakeWorker(t)
	w1.hang.Store(true) // dispatches stall; only cancellation can end them
	c := New(fastOptions(w1.ts.URL))
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		recs []RunRecord
		out  Outcome
	}
	done := make(chan result, 1)
	go func() {
		recs, out := c.Do(ctx, "test", []Unit{fakeUnit("a"), fakeUnit("b")}, nil, 0)
		done <- result{recs, out}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	var got result
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Do did not return after cancellation")
	}
	if len(got.recs) != 2 || got.out.Degraded {
		t.Fatalf("got %d records, outcome %+v after cancel; want 2 canceled records", len(got.recs), got.out)
	}
	for _, rec := range got.recs {
		if !rec.Canceled || rec.Error == "" {
			t.Fatalf("record %s not marked canceled: %+v", rec.ID, rec)
		}
	}
}
