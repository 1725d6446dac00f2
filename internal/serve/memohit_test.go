package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pushmulticast"
)

// holdSlots occupies n worker slots with tasks that return only when the
// returned release is called (or the scheduler hard-cancels them), each
// under its own tenant so a quota cannot refuse them, and waits until all n
// run.
func holdSlots(t *testing.T, s *Server, n int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	for i := range n {
		hold := &task{tenant: fmt.Sprintf("gate-%d", i), ctx: context.Background(), runs: 1, fn: func(ctx context.Context) produced {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return produced{}
		}}
		if err := s.sched.submitAll([]*task{hold}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the held slots to run", func() bool { return s.sched.stats().Running == n })
	return func() { close(gate) }
}

// waitFor polls cond until it holds, failing the test after 60 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// tiny16Pair is tiny16 plus the same workload under Baseline: two runs.
const tiny16Pair = `{"scale":"tiny","schemes":["OrdPush","Baseline"],"workloads":[{"name":"cachebw"}]}`

// TestMemoHitsNeedNoWorkerSlot pins that a campaign whose runs the memo holds
// completed is answered by submit itself: it streams while simulations hold
// every worker slot, and it counts against neither the tenant quota nor the
// queue bound. The service used to queue each hit as a task and wait for a
// slot it never used.
func TestMemoHitsNeedNoWorkerSlot(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, TenantQuota: 1})
	// The quota admits one run at a time, so the two runs are simulated by
	// two one-run campaigns.
	for _, scheme := range []string{"OrdPush", "Baseline"} {
		body := strings.Replace(tiny16, "OrdPush", scheme, 1)
		if _, recs, _ := postCampaign(t, ts.URL, body); len(recs) != 1 || recs[0].Error != "" {
			t.Fatalf("cold %s campaign: %+v", scheme, recs)
		}
	}
	release := holdSlots(t, s, 2)
	defer release()
	type reply struct {
		status int
		recs   []runRecord
		sum    campaignSummary
	}
	// One hit the quota would admit anyway, then two it would not.
	for _, c := range []struct {
		body string
		runs int
	}{{tiny16, 1}, {tiny16Pair, 2}} {
		body, runs := c.body, c.runs
		done := make(chan reply, 1)
		go func() {
			status, recs, sum := postCampaign(t, ts.URL, body)
			done <- reply{status, recs, sum}
		}()
		select {
		case r := <-done:
			if r.status != http.StatusOK || len(r.recs) != runs || r.sum.Cached != runs {
				t.Fatalf("memo-hit campaign %s: status %d, records %+v, summary %+v; want %d cached records", body, r.status, r.recs, r.sum, runs)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("memo-hit campaign %s waited for a worker slot", body)
		}
	}
	var m metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Runs["completed"] != 5 || m.Scheduler.Running != 2 || m.Scheduler.QueueDepth != 0 {
		t.Fatalf("after the hits: completed %d, running %d, queued %d; want 5 completed and only the 2 held slots busy",
			m.Runs["completed"], m.Scheduler.Running, m.Scheduler.QueueDepth)
	}
}

// TestRefusedCampaignSettlesNoHit pins that answering memo hits in submit
// does not leak past a refusal: a campaign the queue bound refuses counts no
// hit as completed and commits nothing, while a campaign of hits alone is
// answered with the queue full.
func TestRefusedCampaignSettlesNoHit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxQueue: 1})
	if _, recs, _ := postCampaign(t, ts.URL, tiny16); len(recs) != 1 || recs[0].Error != "" {
		t.Fatalf("cold campaign: %+v", recs)
	}
	// One hit and two runs to simulate: two runs exceed the bound of one.
	mixed := `{"scale":"tiny","schemes":["OrdPush","Baseline","PushAck"],"workloads":[{"name":"cachebw"}]}`
	if status, _, _ := postCampaign(t, ts.URL, mixed); status != http.StatusServiceUnavailable {
		t.Fatalf("campaign past the queue bound: status %d, want 503", status)
	}
	var m metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Runs["completed"] != 1 || m.RunCache != 1 {
		t.Fatalf("after the refusal: completed %d, store %d; want the cold run's 1 and 1", m.Runs["completed"], m.RunCache)
	}
	// Fill the one slot and the one queue place; the hit still streams.
	release := holdSlots(t, s, 1)
	defer release()
	if err := s.sched.submitAll([]*task{{tenant: "queued", ctx: context.Background(), runs: 1, fn: func(context.Context) produced { return produced{} }}}); err != nil {
		t.Fatal(err)
	}
	status, recs, sum := postCampaign(t, ts.URL, tiny16)
	if status != http.StatusOK || len(recs) != 1 || !recs[0].Cached || sum.Cached != 1 {
		t.Fatalf("memo hit with the queue full: status %d, records %+v, summary %+v", status, recs, sum)
	}
}

// TestInFlightRunIsJoined pins that only a completed memo entry is answered
// in submit: a campaign naming a run still in flight is queued as a task that
// joins the simulation, and it streams nothing until that run ends.
func TestInFlightRunIsJoined(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	// A 256-core run is far too slow to finish under this test.
	big := `{"cores":256,"scale":"tiny","schemes":["OrdPush"],"workloads":[{"name":"cachebw"}]}`
	post := func(ctx context.Context, done chan<- int) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/campaigns", strings.NewReader(big))
		if err != nil {
			t.Error(err)
			done <- 0
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- 0 // canceled before the response started
			return
		}
		io.Copy(io.Discard, resp.Body) // the stream ends when the campaign does
		resp.Body.Close()
		done <- resp.StatusCode
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelA()
	defer cancelB()
	doneA, doneB := make(chan int, 1), make(chan int, 1)
	go post(ctxA, doneA)
	waitFor(t, "the first campaign's run to start", func() bool { return pushmulticast.RunMemoStats().InFlight == 1 })
	go post(ctxB, doneB)
	waitFor(t, "the second campaign to join the run", func() bool { return pushmulticast.RunMemoStats().Hits == 1 })
	if st := s.sched.stats(); st.Running != 2 {
		t.Errorf("%d tasks running; want 2, the run and the task that joined it", st.Running)
	}
	select {
	case <-doneB:
		t.Fatal("the campaign naming an in-flight run was answered before the run ended")
	default:
	}
	cancelA()
	cancelB()
	<-doneA
	<-doneB
	waitFor(t, "both runs to be canceled", func() bool {
		var m metrics
		getJSON(t, ts.URL+"/metrics", &m)
		return m.Runs["canceled"] == 2 && m.Memo.InFlight == 0
	})
}
