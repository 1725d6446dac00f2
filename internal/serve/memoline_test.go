package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pushmulticast"
)

// benchCampaign is the campaign-svc benchmark's 15-run campaign: three
// schemes by five workloads on the tiny 16-core machine, traced.
const benchCampaign = `{"tenant":"bench","cores":16,"scale":"tiny","schemes":["Baseline","PushAck","OrdPush"],"workloads":[{"name":"cachebw"},{"name":"bfs"},{"name":"blackscholes"},{"name":"swaptions"},{"name":"broadcast"}],"trace_n":8}`

// memoHitCampaignBytes is the least the server allocated, over three
// answers, for one all-hit benchCampaign served through a ResponseRecorder
// (TestMemoHitCampaignBytes; +5%), the recorder's own body buffer included.
// It was 40,016 bytes when every hit was kept as a resolved run, rebuilt as a
// record and encoded and flushed line by line, and 15,320 while a group's
// lines were joined into one buffer before they were written.
const memoHitCampaignBytes = 14776

// flushCounter is a ResponseRecorder that counts the flushes a body arrives
// in.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

func newCampaignRequest(body string) (*flushCounter, *http.Request) {
	return &flushCounter{ResponseRecorder: httptest.NewRecorder()}, httptest.NewRequest(http.MethodPost, "/campaigns", strings.NewReader(body))
}

// serveCampaign hands a campaign body straight to the server's handler and
// returns the recorded response, failing the test on any status but 200.
func serveCampaign(t *testing.T, s *Server, body string) *flushCounter {
	t.Helper()
	w, req := newCampaignRequest(body)
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("campaign %s: status %d: %s", body, w.Code, w.Body)
	}
	return w
}

// TestMemoHitCampaignBytes pins what the server allocates to answer the
// benchmark's campaign once the memo holds every run: the memo's rendered
// lines go out as they are, with no run, record or encoder per hit. The
// least of three answers is taken: MemStats counts every goroutine's
// allocations, and a stray one lands in a single reading now and then.
func TestMemoHitCampaignBytes(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's allocations are not the server's")
	}
	s, _ := newTestServer(t, Options{Workers: 2})
	serveCampaign(t, s, benchCampaign)
	least := ^uint64(0)
	for range 3 {
		w, req := newCampaignRequest(benchCampaign)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		if !strings.Contains(w.Body.String(), `{"summary":true,"runs":15,"cached":15,`) {
			t.Fatalf("the repeat was not answered by the memo whole: %s", w.Body)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d bytes for an all-hit 15-run campaign (recorded %d)", least, memoHitCampaignBytes)
	if least > memoHitCampaignBytes*105/100 {
		t.Fatalf("an all-hit 15-run campaign allocated %d bytes; recorded %d (+5%%)", least, memoHitCampaignBytes)
	}
}

// TestMemoHitLinesIdentical pins the bytes a memo hit streams: for the
// benchmark's campaign and every example run as a one-run campaign, the
// repeat's lines are json.Marshal(Record(res, true, nil)) and a newline per
// run, in run order, then the summary line as it always read; and the whole
// body arrives in at most two flushes, the hits' and the summary's. The
// largest machines are simulated only in a full, race-free run.
func TestMemoHitLinesIdentical(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 2})
	cases := []struct{ name, body string }{{"bench", benchCampaign}}
	for _, tc := range pushmulticast.ExampleRunSpecs() {
		if (testing.Short() || raceDetectorEnabled) && (tc.Spec.Cores > 16 || strings.EqualFold(tc.Spec.Scale, "full")) {
			continue
		}
		cases = append(cases, struct{ name, body string }{tc.Name, campaignBody(t, tc.Spec)})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serveCampaign(t, s, c.body)
			var spec CampaignSpec
			if err := decodeStrict(strings.NewReader(c.body), "campaign spec", &spec); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			for i := range spec.runs() {
				rs := spec.run(i)
				run, err := rs.Resolve(nil)
				if err != nil {
					t.Fatal(err)
				}
				res, hit, err := run.Execute(context.Background())
				if err != nil || !hit {
					t.Fatalf("the memo does not hold %s/%s after its campaign (%v)", rs.Scheme, rs.Workload.Name, err)
				}
				line, err := json.Marshal(run.Record(res, true, nil))
				if err != nil {
					t.Fatal(err)
				}
				want.Write(append(line, '\n'))
			}
			fmt.Fprintf(&want, "{\"summary\":true,\"runs\":%d,\"cached\":%d,\"failed\":0,\"canceled\":0}\n", spec.runs(), spec.runs())
			hit := serveCampaign(t, s, c.body)
			if got := hit.Body.String(); got != want.String() {
				t.Fatalf("memo-hit campaign streamed\n%s\nwant\n%s", got, want.String())
			}
			if hit.flushes > 2 {
				t.Fatalf("an all-hit campaign's body arrived in %d flushes; want at most 2", hit.flushes)
			}
		})
	}
}

// TestMemoHitCampaignRace serves hit campaigns while the memo shrinks to one
// entry, is cleared and takes a cold run of its own: a hit looked up before
// its entry is evicted or cleared is still served, and counted, from the
// answer it holds. Every response must be whole and carry the cold
// campaign's outcomes, cached or recomputed. Run under -race (CI's "Memo
// safety" step).
func TestMemoHitCampaignRace(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 2})
	defer pushmulticast.SetRunMemoCapacity(pushmulticast.SetRunMemoCapacity(0))
	// The wire line each run must stream, by identity and cached flag.
	want := map[string]map[bool]string{}
	sc := bufio.NewScanner(serveCampaign(t, s, tiny16Pair).Body)
	for sc.Scan() {
		var rec runRecord
		if bytes.HasPrefix(sc.Bytes(), []byte(`{"summary":true,`)) {
			continue
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		want[rec.ID] = map[bool]string{}
		for _, cached := range []bool{false, true} {
			rec.Cached = cached
			line, _ := json.Marshal(rec)
			want[rec.ID][cached] = string(line)
		}
	}
	cold, err := pushmulticast.RunSpec{Scale: "tiny", Scheme: "PushAck", Workload: pushmulticast.WorkloadSpec{Name: "cachebw"}}.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var served atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true) // before the wait: a failed wait below must not leave the callers running
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				w, req := newCampaignRequest(tiny16Pair)
				s.Handler().ServeHTTP(w, req)
				body := w.Body.String()
				lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
				if w.Code != http.StatusOK || len(lines) != 3 || !strings.HasPrefix(lines[2], `{"summary":true,"runs":2,`) || !strings.HasSuffix(lines[2], `"failed":0,"canceled":0}`) {
					t.Errorf("campaign: status %d, streamed %q", w.Code, body)
					return
				}
				for _, line := range lines[:2] {
					var rec runRecord
					if err := json.Unmarshal([]byte(line), &rec); err != nil || want[rec.ID][rec.Cached] != line {
						t.Errorf("run line %q (%v); want one of %v", line, err, want)
						return
					}
				}
				served.Add(1)
			}
		}()
	}
	waitFor(t, "hit campaigns to be served", func() bool { return served.Load() >= 3 })
	pushmulticast.SetRunMemoCapacity(1)
	waitFor(t, "campaigns under a one-entry memo", func() bool { return served.Load() >= 6 })
	pushmulticast.ClearRunMemo()
	if _, _, err := cold.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	pushmulticast.SetRunMemoCapacity(0)
	waitFor(t, "campaigns after the clear", func() bool { return served.Load() >= 9 })
	stop.Store(true)
	wg.Wait()
	if st := pushmulticast.RunMemoStats(); st.InFlight != 0 {
		t.Fatalf("memo %+v after every campaign ended; want nothing in flight", st)
	}
}
