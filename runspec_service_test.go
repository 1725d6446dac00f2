package pushmulticast_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pushmulticast"
	"pushmulticast/internal/serve"
)

// TestCampaignFormatsEachRunOnce shows the one identity end to end: between
// HTTP decode and the streamed record, each distinct configuration is
// formatted once. The cold campaign formats its 15 runs' configurations; the
// identical repeat formats none, because NewRun remembers each pass. The
// service used to format every run twice (RunIdentity while expanding, then
// the memo key again inside CampaignRun): 30 passes for these 15 runs, and
// 15 more on every repeat.
func TestCampaignFormatsEachRunOnce(t *testing.T) {
	pushmulticast.ClearRunMemo()
	t.Cleanup(pushmulticast.ClearRunMemo)
	s, err := serve.New(serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(30 * time.Second); err != nil {
			t.Error(err)
		}
	})
	const body = `{"scale":"tiny","schemes":["Baseline","PushAck","OrdPush"],
		"workloads":[{"name":"cachebw"},{"name":"bfs"},{"name":"mv"},{"name":"broadcast","fanout":4},{"name":"allreduce"}]}`
	pushmulticast.ClearRunKeys()
	for _, phase := range []struct {
		name   string
		cached string
		passes uint64
	}{{"cold", `"cached":0`, 15}, {"cached", `"cached":15`, 0}} {
		before := pushmulticast.RunKeysBuilt()
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"runs":15,`+phase.cached+`,"failed":0`) {
			t.Fatalf("%s campaign: status %d\n%s", phase.name, resp.StatusCode, out)
		}
		if built := pushmulticast.RunKeysBuilt() - before; built != phase.passes {
			t.Errorf("%s 15-run campaign formatted %d configurations; want %d", phase.name, built, phase.passes)
		}
	}
}
