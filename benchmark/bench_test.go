package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Minimal profile.proto writer for the synthetic profile below.

func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	b = pbVarint(b, uint64(field)<<3|2)
	return append(pbVarint(b, uint64(len(data))), data...)
}

func pbPacked(b []byte, field int, vals ...uint64) []byte {
	var p []byte
	for _, v := range vals {
		p = pbVarint(p, v)
	}
	return pbBytes(b, field, p)
}

// syntheticProfile encodes one sample per stack (leaf first), each weighing
// its entry in weights, with one location per function.
func syntheticProfile(t *testing.T, stacks [][]string, weights []int64) []byte {
	t.Helper()
	strs := []string{""}
	index := map[string]uint64{}
	var prof []byte
	id := func(fn string) uint64 {
		if i, ok := index[fn]; ok {
			return i
		}
		strs = append(strs, fn)
		i := uint64(len(strs) - 1) // function id == location id == string index
		index[fn] = i
		prof = pbBytes(prof, profFunction, pbUint(pbUint(nil, functionID, i), functionName, i))
		prof = pbBytes(prof, profLocation, pbBytes(pbUint(nil, locationID, i), locationLine, pbUint(nil, lineFunctionID, i)))
		return i
	}
	for i, stack := range stacks {
		var locs []uint64
		for _, fn := range stack {
			locs = append(locs, id(fn))
		}
		sample := pbPacked(nil, sampleLocationID, locs...)
		if i%2 == 0 { // both encodings of a repeated field must decode
			sample = pbPacked(sample, sampleValue, 1, uint64(weights[i]))
		} else {
			sample = pbUint(pbUint(sample, sampleValue, 1), sampleValue, uint64(weights[i]))
		}
		prof = pbBytes(prof, profSample, sample)
	}
	for _, s := range strs {
		prof = pbBytes(prof, profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileBuckets(t *testing.T) {
	stacks := [][]string{
		{"pushmulticast/internal/noc.(*Router).Tick", "pushmulticast/internal/sim.(*Engine).Step", "main.runSim"},
		{"pushmulticast/internal/sim.(*Engine).heapDown", "pushmulticast/internal/sim.(*Engine).Step"},
		{"runtime.mallocgc", "pushmulticast/internal/trace.(*Shard).Emit"},
		{"sync/atomic.(*Int64).Add", "pushmulticast/internal/noc.(*NI).Tick"},
		{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "pushmulticast/internal/serve.(*Server).handleCampaign", "net/http.HandlerFunc.ServeHTTP"},
		{"syscall.Syscall", "os.(*File).Sync", "pushmulticast/internal/shard.(*Journal).appendLocked"},
		{"pushmulticast.memoized.func1"},
		{"pushmulticast/internal/config.System.Validate", "pushmulticast/internal/core.Build"},
		{"net/http.(*conn).serve"},
		{"pushmulticast/internal/newlayer.Do"},
		{"main.(*svcWorkload).post"},
	}
	weights := []int64{40, 10, 8, 2, 6, 4, 5, 5, 10, 5, 5}
	samples, err := parseProfile(syntheticProfile(t, stacks, weights))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	got := layerShares(samples)
	want := map[string]float64{
		"noc": 0.40, "sim": 0.10, "goruntime": 0.10, "serve": 0.06, "shard": 0.04,
		"harness": 0.05, "core": 0.05, "other": 0.20,
	}
	sum := 0.0
	for _, layer := range profileLayers {
		if math.Abs(got[layer]-want[layer]) > 1e-9 {
			t.Errorf("layer %s: share %.4f, want %.4f", layer, got[layer], want[layer])
		}
		sum += got[layer]
	}
	if math.Abs(sum-1) > 1e-9 || len(got) != len(profileLayers) {
		t.Errorf("shares sum to %v over %d layers, want 1 over %d", sum, len(got), len(profileLayers))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	host := metric{Name: "wall_s", Better: "lower", Bound: 0.10, Kind: "host"}
	up := metric{Name: "rate", Better: "higher", Bound: 0.10, Kind: "host"}
	exact := metric{Name: "sim_cycles", Better: "lower", Bound: 0.05, Kind: "exact"}
	phase, _ := findMetric(perLayer, "serve.cached_campaign_p50_ms")
	unbounded, _ := findMetric(perLayer, "serve.cached_campaign_p95_ms")
	for _, tc := range []struct {
		name     string
		m        metric
		a, b     []float64
		sameCode bool
		want     string
	}{
		{"within bound", host, []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, false, "ok"},
		{"worse", host, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, false, "WORSE"},
		{"noisy", host, []float64{8, 10, 12}, []float64{9, 10.5, 13}, false, "unresolved"},
		{"noisy but every run better", host, []float64{8, 10, 12}, []float64{5, 6, 7}, false, "ok"},
		{"noisy, every run better, same code", host, []float64{8, 10, 12}, []float64{5, 6, 7}, true, "unresolved"},
		{"higher is better", up, []float64{100, 101, 99}, []float64{80, 81, 79}, false, "WORSE"},
		{"better is no regression", host, []float64{10}, []float64{6}, false, "ok"},
		{"same code reads 40% faster", host, []float64{10}, []float64{6}, true, "APART"},
		{"same code reads 40% slower", up, []float64{10}, []float64{6}, true, "WORSE"},
		{"same code within bound", up, []float64{10}, []float64{10.9}, true, "ok"},
		{"zero base", host, []float64{0}, []float64{3}, false, "NO BASE"},
		{"fell to zero", up, []float64{3}, []float64{0}, true, "NO BASE"},
		{"not a number", host, []float64{math.NaN()}, []float64{3}, true, "NO BASE"},
		{"exact equal", exact, []float64{7, 7}, []float64{7, 7}, false, "identical"},
		{"exact off by one", exact, []float64{7, 7}, []float64{7, 8}, true, "DIFFERS"},
		{"service phase slower", phase, []float64{0.50, 0.51, 0.49}, []float64{0.70, 0.71, 0.69}, false, "WORSE"},
		{"service phase on a workload without a service", phase, []float64{0}, []float64{0}, true, ""},
		{"service phase lost on one side", phase, []float64{0.5}, []float64{0}, false, "NO BASE"},
		{"per-layer row without a bound", unbounded, []float64{1}, []float64{9}, true, ""},
	} {
		if got := verdict(tc.m, tc.a, tc.b, tc.sameCode); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestQuantile pins the one quantile routine to the two uses it has: the
// driver's quartiles (above) and the p50/p95 of timing samples.
func TestQuantile(t *testing.T) {
	v := make([]float64, 99) // 1..99: rank q*100 is the value itself
	for i := range v {
		v[len(v)-1-i] = float64(i + 1)
	}
	for _, tc := range []struct {
		v    []float64
		q    float64
		want float64
	}{
		{v, 0.5, 50}, {v, 0.95, 95}, {v, 0.25, 25},
		{[]float64{4, 2}, 0.5, 3},
		{[]float64{2, 4}, 0.25, 1.5}, // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
		{[]float64{2, 4}, 0.75, 4.5},
		{[]float64{7}, 0.95, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(tc.v, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%d values, %v) = %v, want %v", len(tc.v), tc.q, got, tc.want)
		}
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks the contract's result line and the trace files.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			o := options{workload: name, seed: 3, seconds: 1, reps: 1, smoke: true, traced: traced, outDir: dir}
			w, err := newWorkload(name, o)
			if err != nil {
				t.Fatal(err)
			}
			r, err := measure(w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d: %v", name, traced, r.Correct, r.Failed, r.Attempted, r.Errors)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(resultLine(r)), &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", sortedKeys(line))
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, want %d", name, traced, len(r.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := r.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", name, traced, m.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v.Value)
				}
			}
			if !traced {
				// The bounded per-layer rows ride along in the report but stay
				// out of the result line, whose metrics are checked above.
				for _, m := range perLayer {
					v, ok := r.Phases[m.Name]
					if want := m.Bound > 0 && name == wlSvc; ok != want || (want && !(v.Value > 0)) {
						t.Errorf("%s: untraced phase row %s = %+v (present %v, want %v)", name, m.Name, v, ok, want)
					}
				}
				continue
			}
			sum := 0.0
			for _, layer := range profileLayers {
				sum += r.Metrics[layer+".cpu_share"].Value
			}
			if sum != 0 && math.Abs(sum-1) > 0.02 { // a smoke rep can be too short for a single sample
				t.Errorf("%s: CPU shares sum to %v, want 1±0.02", name, sum)
			}
			for _, m := range []string{"sim.null_tick_ns", "sim.sleep_wake_ns", "noc.uni_ns_per_flit_hop", "noc.mcast_ns_per_flit_hop",
				"workload.stream_mops_per_s", "harness.memo_hit_us", "shard.journal_commit_p50_us", "snapshot.bytes", "core.build_ms"} {
				if r.Metrics[m].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, m, r.Metrics[m].Value)
				}
			}
			checkTraceFile(t, filepath.Join(dir, "trace-"+name+".ndjson"), name)
			if fi, err := os.Stat(filepath.Join(dir, "cpu-"+name+".pprof")); err != nil || fi.Size() == 0 {
				t.Errorf("%s: CPU profile missing or empty: %v", name, err)
			}
		}
	}
	left, err := filepath.Glob(filepath.Join(dir, "journal-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("journal scratch files left behind: %v %v", left, err)
	}
}

// checkTraceFile requires a well-formed span tree: every parent exists and
// covers its children, self times are never negative, and the rep, op and
// layer-call levels are all present.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	spans := map[int]span{}
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		spans[s.ID] = s
		names[strings.SplitN(s.Name, ":", 2)[0]] = true
	}
	for _, s := range spans {
		if s.Workload != workload || s.EndNs < s.StartNs || s.SelfNs < 0 {
			t.Errorf("%s: bad span %+v", path, s)
		}
		if s.Parent != 0 {
			p, ok := spans[s.Parent]
			if !ok || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("%s: span %+v is not inside its parent %+v", path, s, p)
			}
		}
	}
	want := []string{"rep", "op", "Journal.Commit"}
	if workload == wlSvc {
		want = append(want, "http.submit", "http.stream", "http.snapshot_upload")
	} else {
		want = append(want, "core.Build", "System.Run", "Machine.Snapshot", "RestoreMachine")
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("%s: no %q span", path, n)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the contract's shape and to the
// metric tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(sortedKeys(top), " "), "command end_to_end paths per_layer run_seconds workloads"; got != want {
		t.Fatalf("top-level keys %q, want %q", got, want)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "go run ./benchmark" || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (program: %q), why of %d characters", i, w.Name, workloadNames[i], len(w.Why))
		}
	}

	check := func(kind string, listed []map[string]any, defs []metric, limit, keys int) {
		if len(listed) < 1 || len(listed) > limit || len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, program reports %d, limit %d", kind, len(listed), len(defs), limit)
		}
		for i, l := range listed {
			d := defs[i]
			n, _ := l["name"].(string)
			unit, _ := l["unit"].(string)
			name(n)
			if len(l) != keys || n != d.Name || unit != d.Unit || l["better"] != d.Better || !unitRE.MatchString(unit) {
				t.Errorf("%s[%d] = %v, program has %+v", kind, i, l, d)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: direction %q", d.Name, d.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, 16, 4)
	check("per_layer", b.PerLayer, perLayer, 128, 3)

	hasSetup := false
	for i, l := range b.EndToEnd {
		bound, ok := l["bound"].(float64)
		if !ok || bound != endToEnd[i].Bound || bound <= 0 || bound > 0.25 {
			t.Errorf("%s: bound %v, program has %v", endToEnd[i].Name, l["bound"], endToEnd[i].Bound)
		}
		if k := endToEnd[i].Kind; k != "host" && k != "exact" {
			t.Errorf("%s: kind %q", endToEnd[i].Name, k)
		}
		hasSetup = hasSetup || (l["name"] == "setup_s" && l["unit"] == "s" && l["better"] == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		target, wl, ok := strings.Cut(m.Moves, "@")
		if _, found := findMetric(endToEnd, target); !ok || !found || !seen[wl] || !strings.Contains("PCTM", m.Kind) || len(m.Kind) != 1 {
			t.Errorf("per-layer metric %s: kind %q, moves %q, want an end-to-end metric @ a workload", m.Name, m.Kind, m.Moves)
		}
	}
	var bounded []string
	for _, m := range perLayer {
		if m.Bound != 0 {
			bounded = append(bounded, m.Name)
			if m.Bound < 0 || m.Bound > 0.25 || m.Kind != "T" {
				t.Errorf("per-layer metric %s: bound %v, kind %q", m.Name, m.Bound, m.Kind)
			}
		}
	}
	if got, want := strings.Join(bounded, " "), "serve.cold_runs_per_s serve.cached_campaign_p50_ms serve.warmfork_s shard.sharded_runs_per_s"; got != want {
		t.Errorf("per-layer rows with a bound: %q, want the four service phases %q", got, want)
	}
	for _, layer := range profileLayers {
		if _, ok := findMetric(perLayer, layer+".cpu_share"); !ok {
			t.Errorf("profile layer %s has no cpu_share metric", layer)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
