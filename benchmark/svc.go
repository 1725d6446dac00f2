package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	pm "pushmulticast"
	"pushmulticast/internal/serve"
	"pushmulticast/internal/shard"
)

// svcWorkload drives the campaign service the way a client does: an
// in-process serve.Server behind a real loopback HTTP listener, one client,
// one connection, closed loop. A rep is four phases:
//
//	cold     ClearRunMemo, POST the campaign, every run simulates
//	cached   the same POST again cachedN times, every run is a memo hit
//	warmfork upload a donor snapshot, then one warm_start campaign per knob point
//	sharded  ClearRunMemo, the same campaign through a coordinator with one
//	         in-process replica, ShardSize 4 and a journal on disk
type svcWorkload struct {
	smoke  bool
	outDir string

	spec    []byte
	tenant  string
	runs    int // runs the campaign expands into
	cachedN int
	knobs   [][2]int // (tpc_threshold, time_window) points of the warm-start sweep
	donor   []byte
	// direct are the campaign's runs as simulation ops, for the traced run's
	// pool-utilisation probe and the layer counters the service's records
	// do not carry.
	direct []simOp

	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	reps   int
	// lastMetrics is GET /metrics as of the end of the last traced rep's
	// warm-fork phase.
	lastMetrics serverMetrics
}

const svcTraceN = 8

func (w *svcWorkload) name() string { return wlSvc }

// summaryLine is the last NDJSON line of a campaign response.
type summaryLine struct {
	Runs            int `json:"runs"`
	Cached          int `json:"cached"`
	Failed          int `json:"failed"`
	Canceled        int `json:"canceled"`
	Shards          int `json:"shards"`
	ShardRetries    int `json:"shard_retries"`
	ShardReassigned int `json:"shard_reassigned"`
	DegradedLocal   int `json:"degraded_local"`
}

// setup derives the campaign from the seed (workload and scheme order,
// tenant name), starts the server and builds the warm-start donor.
func (w *svcWorkload) setup(seed uint64) error {
	rng := rand.New(rand.NewSource(int64(seed)))
	workloads := []string{"cachebw", "bfs", "blackscholes", "swaptions", "broadcast"}
	schemes := []pm.Scheme{pm.Baseline(), pm.PushAck(), pm.OrdPush()}
	w.cachedN = 1000
	w.knobs = nil
	for _, tpc := range []int{2, 8, 16, 64, 128} {
		for _, tw := range []int{500, 1500} {
			w.knobs = append(w.knobs, [2]int{tpc, tw})
		}
	}
	if w.smoke {
		workloads = []string{"blackscholes", "swaptions"}
		schemes = []pm.Scheme{pm.Baseline(), pm.OrdPush()}
		w.cachedN = 10
		w.knobs = [][2]int{{2, 500}, {128, 1500}}
	}
	rng.Shuffle(len(workloads), func(i, j int) { workloads[i], workloads[j] = workloads[j], workloads[i] })
	rng.Shuffle(len(schemes), func(i, j int) { schemes[i], schemes[j] = schemes[j], schemes[i] })
	w.tenant = fmt.Sprintf("bench-%d-%04x", seed, rng.Intn(1<<16))

	type wlSpec struct {
		Name string `json:"name"`
	}
	spec := struct {
		Tenant    string   `json:"tenant"`
		Cores     int      `json:"cores"`
		Scale     string   `json:"scale"`
		Schemes   []string `json:"schemes"`
		Workloads []wlSpec `json:"workloads"`
		TraceN    int      `json:"trace_n"`
	}{Tenant: w.tenant, Cores: 16, Scale: "tiny", TraceN: svcTraceN}
	w.direct = nil
	for _, sch := range schemes {
		spec.Schemes = append(spec.Schemes, sch.Name)
		for _, name := range workloads {
			cfg := machine(16, sch, pm.ScaleTiny)
			cfg.TraceN = svcTraceN
			w.direct = append(w.direct, simOp{name: name + "/" + sch.Name, cfg: cfg, wl: mustWorkload(name), sc: pm.ScaleTiny, roundTripOf: -1})
		}
	}
	for _, name := range workloads {
		spec.Workloads = append(spec.Workloads, wlSpec{name})
	}
	w.runs = len(w.direct)
	var err error
	if w.spec, err = json.Marshal(spec); err != nil {
		return err
	}

	if w.srv, err = serve.New(serve.Options{Workers: poolWorkers}); err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}

	// The donor is the run every fork resumes: bfs is the workload whose
	// forks were measured to end at different cycles under different knobs
	// (cachebw and backprop forks all end at the donor's own cycle count,
	// which would prove nothing about forking).
	cfg := machine(16, pm.OrdPush(), pm.ScaleTiny)
	cfg.TraceN = svcTraceN
	bfs := mustWorkload("bfs")
	cold, err := pm.RunWorkload(cfg, bfs, pm.ScaleTiny)
	if err != nil {
		return fmt.Errorf("donor: %w", err)
	}
	m, err := pm.NewMachine(cfg, bfs, pm.ScaleTiny)
	if err != nil {
		return fmt.Errorf("donor: %w", err)
	}
	if err := m.RunTo(cold.Cycles * 9 / 10); err != nil {
		return fmt.Errorf("donor: %w", err)
	}
	if w.donor, err = m.Snapshot(); err != nil {
		return fmt.Errorf("donor: %w", err)
	}
	return os.MkdirAll(w.outDir, 0o755)
}

func (w *svcWorkload) teardown() {
	if w.ts != nil {
		w.ts.Close()
		w.srv.Close(5 * time.Second)
		w.client.CloseIdleConnections()
		w.ts, w.srv = nil, nil
	}
}

func (w *svcWorkload) kernelOp() simOp {
	for _, op := range w.direct {
		if op.cfg.Scheme.Name == pm.OrdPush().Name {
			return op
		}
	}
	return w.direct[0]
}

// campaignReply is one POST /campaigns exchange as the client saw it.
type campaignReply struct {
	recs        []shard.RunRecord
	sum         summaryLine
	firstRecord time.Duration // POST -> first record line
	total       time.Duration // POST -> summary line
}

// post submits a campaign and reads the NDJSON stream to its summary line.
func (w *svcWorkload) post(base string, body []byte, rec *recorder, parent int) (campaignReply, error) {
	var out campaignReply
	t0 := time.Now()
	sp := rec.begin("http.submit", parent)
	resp, err := w.client.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	rec.end(sp)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // the status is the error; the body only decorates it
		return out, fmt.Errorf("POST /campaigns: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	sp = rec.begin("http.stream", parent)
	defer rec.end(sp)
	sc := bufio.NewScanner(resp.Body) // record lines are a few hundred bytes
	sawSummary := false
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"summary":true`)) {
			if err := json.Unmarshal(line, &out.sum); err != nil {
				return out, fmt.Errorf("summary line %q: %w", line, err)
			}
			sawSummary = true
			continue
		}
		var r shard.RunRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return out, fmt.Errorf("record line %q: %w", line, err)
		}
		if len(out.recs) == 0 {
			out.firstRecord = time.Since(t0)
		}
		out.recs = append(out.recs, r)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	out.total = time.Since(t0)
	if !sawSummary {
		return out, fmt.Errorf("campaign stream ended without a summary line")
	}
	return out, nil
}

// recordKey is the part of a record that must agree between a cold, a
// cached and a sharded execution of one run identity.
func recordKey(r shard.RunRecord) string {
	return fmt.Sprintf("%s:%d/%d/%d/%s/%d", r.ID, r.Cycles, r.Instructions, r.NoCFlits, r.TraceHash, r.TraceEvents)
}

// checkReply verifies a campaign reply is complete and clean and, when want
// is non-nil, that every record equals the cold record of the same identity.
func (w *svcWorkload) checkReply(rep campaignReply, runs int, want map[string]string, wantCached bool) error {
	if rep.sum.Runs != runs || len(rep.recs) != runs {
		return fmt.Errorf("%d records, summary says %d, want %d", len(rep.recs), rep.sum.Runs, runs)
	}
	if rep.sum.Failed != 0 || rep.sum.Canceled != 0 {
		return fmt.Errorf("summary reports %d failed, %d canceled", rep.sum.Failed, rep.sum.Canceled)
	}
	for _, r := range rep.recs {
		if r.Error != "" {
			return fmt.Errorf("run %s (%s/%s): %s", r.ID, r.Workload, r.Scheme, r.Error)
		}
		if r.Cycles == 0 || r.TraceEvents == 0 {
			return fmt.Errorf("run %s (%s/%s) reports no cycles or no trace identity", r.ID, r.Workload, r.Scheme)
		}
		if want != nil {
			if coldKey, ok := want[r.ID]; !ok || coldKey != recordKey(r) {
				return fmt.Errorf("run %s: got %s, cold run gave %q", r.ID, recordKey(r), coldKey)
			}
			if r.Cached != wantCached {
				return fmt.Errorf("run %s: cached=%v, want %v", r.ID, r.Cached, wantCached)
			}
		}
	}
	return nil
}

func (w *svcWorkload) rep(rec *recorder, acc *layerAcc) repOut {
	out := repOut{phases: map[string][]float64{}}
	w.reps++
	repSpan := rec.begin("rep", 0)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	op := func(name string, f func(span int) error) {
		out.attempted++
		sp := rec.begin("op:"+name, repSpan)
		err := f(sp)
		rec.end(sp)
		if err != nil {
			out.fail("%s: %v", name, err)
		}
	}

	cold := map[string]string{}
	var pairs pairStats
	op("cold", func(sp int) error {
		pm.ClearRunMemo()
		reply, err := w.post(w.ts.URL, w.spec, rec, sp)
		if err != nil {
			return err
		}
		if err := w.checkReply(reply, w.runs, nil, false); err != nil {
			return err
		}
		keys := make([]string, 0, len(reply.recs))
		for _, r := range reply.recs {
			cold[r.ID] = recordKey(r)
			keys = append(keys, recordKey(r))
			out.cycles += r.Cycles
			out.flits += r.NoCFlits
			switch r.Scheme {
			case pm.Baseline().Name:
				pairs.add(r.Workload, false, r.Cycles, r.NoCFlits)
			case pm.OrdPush().Name:
				pairs.add(r.Workload, true, r.Cycles, r.NoCFlits)
			}
		}
		sort.Strings(keys)
		out.identity = strings.Join(keys, ";")
		out.simWall = reply.total.Seconds()
		out.phases["cold_s"] = []float64{reply.total.Seconds()}
		out.phases["first_record_s"] = []float64{reply.firstRecord.Seconds()}
		return nil
	})

	for i := 0; i < w.cachedN; i++ {
		op("cached", func(sp int) error {
			reply, err := w.post(w.ts.URL, w.spec, rec, sp)
			if err != nil {
				return err
			}
			out.phases["cached_s"] = append(out.phases["cached_s"], reply.total.Seconds())
			return w.checkReply(reply, w.runs, cold, true)
		})
	}

	forkStart := time.Now()
	var snapID string
	op("upload", func(sp int) error {
		us := rec.begin("http.snapshot_upload", sp)
		t := time.Now()
		resp, err := w.client.Post(w.ts.URL+"/snapshots", "application/octet-stream", bytes.NewReader(w.donor))
		if err != nil {
			rec.end(us)
			return err
		}
		defer resp.Body.Close()
		var up struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&up)
		rec.end(us)
		out.phases["upload_s"] = []float64{time.Since(t).Seconds()}
		if resp.StatusCode != http.StatusOK || err != nil || up.ID == "" {
			return fmt.Errorf("POST /snapshots: HTTP %d, id %q, %v", resp.StatusCode, up.ID, err)
		}
		snapID = up.ID
		return nil
	})
	forkCycles := map[uint64]bool{}
	for _, k := range w.knobs {
		op(fmt.Sprintf("warmfork tpc=%d tw=%d", k[0], k[1]), func(sp int) error {
			if snapID == "" {
				return fmt.Errorf("no donor snapshot on the server")
			}
			body := fmt.Sprintf(`{"tenant":%q,"cores":16,"scale":"tiny","schemes":[%q],"workloads":[{"name":"bfs"}],"trace_n":%d,"warm_start":%q,"knobs":{"tpc_threshold":%d,"time_window":%d}}`,
				w.tenant, pm.OrdPush().Name, svcTraceN, snapID, k[0], k[1])
			reply, err := w.post(w.ts.URL, []byte(body), rec, sp)
			if err != nil {
				return err
			}
			if err := w.checkReply(reply, 1, nil, false); err != nil {
				return err
			}
			forkCycles[reply.recs[0].Cycles] = true
			out.identity += fmt.Sprintf(";fork(%d,%d)=%d", k[0], k[1], reply.recs[0].Cycles)
			return nil
		})
	}
	out.phases["warmfork_s"] = []float64{time.Since(forkStart).Seconds()}
	// A sweep whose forks all end at the same cycle would pass every other
	// check without the knobs having reached the restored machine at all.
	op("warmfork sensitivity", func(int) error {
		if len(forkCycles) < 2 {
			return fmt.Errorf("%d knob points gave %d distinct cycle counts, want at least 2", len(w.knobs), len(forkCycles))
		}
		return nil
	})

	if rec != nil {
		// The memo counters restart with the next ClearRunMemo, so the traced
		// run reads the service's own view of them here.
		op("metrics", func(int) (err error) {
			w.lastMetrics, err = w.metrics()
			return err
		})
	}

	op("sharded", func(sp int) error {
		pm.ClearRunMemo()
		replica, err := serve.New(serve.Options{Workers: poolWorkers})
		if err != nil {
			return err
		}
		replicaTS := httptest.NewServer(replica.Handler())
		journal := filepath.Join(w.outDir, fmt.Sprintf("journal-%d-%d.ndjson", os.Getpid(), w.reps))
		defer os.Remove(journal)
		coord, err := serve.New(serve.Options{Workers: poolWorkers, Peers: []string{replicaTS.URL}, ShardSize: 4, JournalPath: journal})
		if err != nil {
			replicaTS.Close()
			replica.Close(time.Second)
			return err
		}
		coordTS := httptest.NewServer(coord.Handler())
		reply, err := w.post(coordTS.URL, w.spec, rec, sp)
		coordTS.Close()
		coord.Close(5 * time.Second)
		replicaTS.Close()
		replica.Close(5 * time.Second)
		if err != nil {
			return err
		}
		out.phases["sharded_s"] = []float64{reply.total.Seconds()}
		out.phases["shards"] = []float64{float64(reply.sum.Shards)}
		out.phases["shard_retries"] = []float64{float64(reply.sum.ShardRetries)}
		out.phases["shard_reassigned"] = []float64{float64(reply.sum.ShardReassigned)}
		out.phases["degraded_local"] = []float64{float64(reply.sum.DegradedLocal)}
		return w.checkReply(reply, w.runs, cold, false)
	})

	out.wall = time.Since(t0).Seconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rec.end(repSpan)
	out.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	out.speedup, out.flitRatio = pairs.ratios()
	return out
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Scheduler struct {
		Tenants map[string]struct {
			WaitP50Ns uint64 `json:"wait_p50_ns"`
			WaitP90Ns uint64 `json:"wait_p90_ns"`
		} `json:"tenants"`
	} `json:"scheduler"`
	Memo pm.MemoStats `json:"memo"`
}

func (w *svcWorkload) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := w.client.Get(w.ts.URL + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// reject400 times the round trip of a malformed spec, which the service must
// refuse whole with one line and HTTP 400.
func (w *svcWorkload) reject400(n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := w.client.Post(w.ts.URL+"/campaigns", "application/json", strings.NewReader(`{"schemes":["OrdPush"],"workloads":[{"name":"cachebw"}],"bogus":1}`))
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
		if resp.StatusCode != http.StatusBadRequest {
			return nil, fmt.Errorf("malformed spec answered HTTP %d, want 400", resp.StatusCode)
		}
	}
	return out, nil
}

// phaseSamples gathers one named phase's timings over reps.
func phaseSamples(outs []repOut, name string) []float64 {
	var v []float64
	for _, o := range outs {
		v = append(v, o.phases[name]...)
	}
	return v
}

// phaseMetrics are what ISSUE.md calls the service's end-to-end metrics: one
// number per phase of the rep. They carry a bound in metrics.go because
// wall_s, which sums four phases of 10-35% each, cannot show a regression of
// one of them.
func (w *svcWorkload) phaseMetrics(outs []repOut, vals map[string]float64) {
	vals["serve.cold_runs_per_s"] = ratio(float64(w.runs), median(phaseSamples(outs, "cold_s")))
	vals["serve.cached_campaign_p50_ms"] = median(phaseSamples(outs, "cached_s")) * 1e3
	vals["serve.warmfork_s"] = median(phaseSamples(outs, "warmfork_s"))
	vals["shard.sharded_runs_per_s"] = ratio(float64(w.runs), median(phaseSamples(outs, "sharded_s")))
}

// layerProbes fills the service's other per-layer metrics from the traced
// reps' phase timings, the server's own counters, and two probes: the
// campaign's runs executed directly (what the pool would take with no
// service around it) and a malformed spec's round trip.
func (w *svcWorkload) layerProbes(outs []repOut, acc *layerAcc, vals map[string]float64) error {
	phase := func(name string) []float64 { return phaseSamples(outs, name) }
	last := outs[len(outs)-1].phases
	cold, sharded, cached := median(phase("cold_s")), median(phase("sharded_s")), phase("cached_s")
	w.phaseMetrics(outs, vals)
	vals["serve.first_record_ms"] = median(phase("first_record_s")) * 1e3
	vals["serve.cached_campaign_p95_ms"] = quantile(cached, 0.95) * 1e3
	vals["serve.cached_record_us"] = ratio(median(cached)*1e6, float64(w.runs))
	vals["serve.snapshot_upload_mb_per_s"] = ratio(float64(len(w.donor))/1e6, median(phase("upload_s")))
	vals["shard.sharded_over_local_x"] = ratio(sharded, cold)
	for metric, key := range map[string]string{
		"shard.shards": "shards", "shard.retries": "shard_retries",
		"shard.reassigned": "shard_reassigned", "shard.degraded_local": "degraded_local",
	} {
		if v := last[key]; len(v) > 0 {
			vals[metric] = v[0]
		}
	}
	t := w.lastMetrics.Scheduler.Tenants[w.tenant]
	vals["serve.queue_wait_p50_ms"] = float64(t.WaitP50Ns) / 1e6
	vals["serve.queue_wait_p90_ms"] = float64(t.WaitP90Ns) / 1e6
	memo := w.lastMetrics.Memo
	vals["serve.memo_hit_ratio"] = ratio(float64(memo.Hits), float64(memo.Hits+memo.Misses))
	vals["harness.memo_hits"] = float64(memo.Hits)
	vals["harness.memo_misses"] = float64(memo.Misses)
	vals["harness.memo_evictions"] = float64(memo.Evictions)

	var direct float64
	for _, op := range w.direct {
		t0 := time.Now()
		if _, err := runSim(op, nil, 0, acc); err != nil {
			return fmt.Errorf("direct run %s: %w", op.name, err)
		}
		direct += time.Since(t0).Seconds()
	}
	vals["serve.pool_utilization"] = ratio(direct, poolWorkers*cold)

	rejects, err := w.reject400(50)
	if err != nil {
		return err
	}
	vals["serve.reject_400_us"] = median(rejects) * 1e6
	return nil
}
