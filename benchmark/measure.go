package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	pm "pushmulticast"
)

// workload is one named set of inputs. setup builds the inputs from the seed
// and everything the first op needs; rep runs the fixed op list once and
// checks its outputs.
type workload interface {
	name() string
	setup(seed uint64) error
	teardown()
	rep(rec *recorder, acc *layerAcc) repOut
	// phaseMetrics stores in vals the per-layer rows that carry a bound,
	// computed from the phase timings of outs; both kinds of run report them.
	phaseMetrics(outs []repOut, vals map[string]float64)
	// layerProbes runs, after the traced reps, whatever extra measurements
	// the workload's own per-layer rows need and stores them in vals.
	layerProbes(traced []repOut, acc *layerAcc, vals map[string]float64) error
	// kernelOp is a representative OrdPush simulation of the workload, rerun
	// by the traced run under the other kernels and through a snapshot.
	kernelOp() simOp
}

const (
	minSetups = 7 // setup_s is the median of at least this many set-ups
	maxSetups = 51
	minReps   = 3
)

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the one quantile routine of the benchmark. It interpolates at
// rank q*(n+1), the "exclusive" method of Python's statistics.quantiles that
// the repository's driver judges spread by, and like it extrapolates past
// the ends when the sample is too small to hold the rank.
func quantile(v []float64, q float64) float64 {
	n := len(v)
	if n < 2 {
		if n == 0 {
			return 0
		}
		return v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q*float64(n+1) - 1
	lo := max(0, min(int(pos), n-2))
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// peakRSSMB reads the process's resident-set high-water mark. A host without
// /proc reports what the Go runtime has obtained from the system instead:
// an upper bound of the same thing, comparable only with itself.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1e3
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// repLoop runs reps until the time budget is spent (at least minReps), or
// exactly o.reps when that is set. ref is the identity every rep must
// reproduce.
func repLoop(w workload, o options, budget float64, rec *recorder, acc *layerAcc, ref string, rep *report) []repOut {
	var outs []repOut
	start := time.Now()
	for i := 0; ; i++ {
		if o.reps > 0 {
			if i >= o.reps {
				break
			}
		} else if i >= minReps {
			last := outs[len(outs)-1].wall
			if time.Since(start).Seconds()+last > budget {
				break
			}
		}
		if rec != nil {
			rec.rep = i
		}
		runtime.GC()
		out := w.rep(rec, acc)
		if acc != nil && acc.cycles > 0 {
			acc.firstRep = false
		}
		account(rep, &out, ref)
		outs = append(outs, out)
	}
	return outs
}

// check counts one verification of the run; a non-nil err is a failed one.
func (r *report) check(what string, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Errors = append(r.Errors, what+": "+err.Error())
	}
}

func medianWall(outs []repOut) float64 {
	return median(field(outs, func(o repOut) float64 { return o.wall }))
}

// account folds one rep's correctness counts into the report.
func account(rep *report, out *repOut, ref string) {
	out.attempted++
	if ref != "" && out.identity != ref {
		out.fail("rep results differ from the first rep's:\n  got  %s\n  want %s", out.identity, ref)
	}
	rep.Attempted += out.attempted
	rep.Failed += out.failed
	rep.Errors = append(rep.Errors, out.errs...)
}

func field(outs []repOut, f func(repOut) float64) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	return v
}

// measure runs one workload and returns its report: the end-to-end metrics
// of the untraced reps, or, for a traced run, the per-layer metrics.
func measure(w workload, o options) (*report, error) {
	rep := &report{
		Workload: w.name(), Seed: o.seed, Traced: o.traced, Env: currentEnv(),
		Metrics: map[string]metricValue{}, Samples: map[string]int{},
	}

	// Set-ups repeat until they add up to a second (a single one can take
	// milliseconds, where one collection or page fault is a large share),
	// within the limits below. A traced or fixed-size run sets up once.
	var setupS []float64
	once := o.traced || o.reps > 0
	for total := 0.0; ; {
		if len(setupS) > 0 {
			w.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(o.seed); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		total += setupS[len(setupS)-1]
		if n := len(setupS); once || n >= maxSetups || (n >= minSetups && total >= 1) {
			break
		}
	}
	defer w.teardown()

	// One discarded rep lets the heap grow and the caches fill; it also
	// fixes the identity every later rep must reproduce.
	warm := w.rep(nil, nil)
	account(rep, &warm, "")
	ref := warm.identity

	budget := o.seconds
	if o.traced {
		budget /= 2
	}
	outs := repLoop(w, o, budget, nil, nil, ref, rep)
	rep.Reps = len(outs)

	if !o.traced {
		set := func(name string, v float64, n int) {
			m, _ := findMetric(endToEnd, name)
			rep.Metrics[name] = metricValue{v, m.Unit}
			rep.Samples[name] = n
		}
		n := len(outs)
		set("setup_s", median(setupS), len(setupS))
		set("wall_s", medianWall(outs), n)
		set("sim_kcycles_per_s", median(field(outs, func(o repOut) float64 { return ratio(float64(o.cycles)/1e3, o.simWall) })), n)
		set("peak_rss_mb", peakRSSMB(), 1)
		set("alloc_mb", median(field(outs, func(o repOut) float64 { return o.allocMB })), n)
		set("sim_cycles", float64(warm.cycles), n+1)
		set("sim_link_flits", float64(warm.flits), n+1)
		set("ordpush_speedup_x", warm.speedup, n+1)
		set("ordpush_flit_ratio", warm.flitRatio, n+1)
		for _, m := range endToEnd {
			if v := rep.Metrics[m.Name].Value; !(v > 0) {
				rep.check("metric "+m.Name, fmt.Errorf("reads %v; every end-to-end metric must be positive", v))
			}
		}
		phases := map[string]float64{}
		w.phaseMetrics(outs, phases)
		if len(phases) > 0 {
			rep.Phases = map[string]metricValue{}
		}
		for name, v := range phases {
			m, _ := findMetric(perLayer, name)
			rep.Phases[name] = metricValue{v, m.Unit}
			rep.Samples[name] = n
		}
	} else if err := traced(w, o, outs, ref, rep); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// traced repeats the workload with spans and a CPU profile, runs the probes
// and micro-drivers, and fills the per-layer metrics.
func traced(w workload, o options, untraced []repOut, ref string, rep *report) error {
	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.Name] = 0
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	rec := newRecorder(w.name())
	acc := newLayerAcc()

	var ms0, ms1 runtime.MemStats
	var prof bytes.Buffer
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	outs := repLoop(w, o, o.seconds/2, rec, acc, ref, rep)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)

	vals["trace_overhead_pct"] = (ratio(medianWall(outs), medianWall(untraced)) - 1) * 100
	vals["goruntime.num_gc"] = float64(ms1.NumGC-ms0.NumGC) / float64(len(outs))
	vals["goruntime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / float64(len(outs))

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares := layerShares(samples)
	sum := 0.0
	for layer, s := range shares {
		vals[layer+".cpu_share"] = s
		sum += s
	}
	check := rep.check
	if len(samples) > 0 && (sum < 0.98 || sum > 1.02) {
		check("CPU profile", fmt.Errorf("per-layer shares sum to %.4f, want 1±0.02", sum))
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "cpu-"+w.name()+".pprof"), prof.Bytes(), 0o644); err != nil {
		return err
	}

	check("workload probes", w.layerProbes(outs, acc, vals))

	// Kernel modes: the same OrdPush simulation on the wake-driven kernel,
	// the dense reference kernel and the two-worker parallel executor. All
	// three must produce the same results; only the host time may differ.
	kop := w.kernelOp()
	serial1, base, err := timeOp(kop, nil)
	check("kernel probe", err)
	dense, dres, err := timeOp(kop, func(c *pm.Config) { c.DenseKernel = true })
	check("dense kernel probe", sameRun(base, dres, err))
	par, pres, err := timeOp(kop, func(c *pm.Config) { c.ParallelWorkers = poolWorkers })
	check("parallel kernel probe", sameRun(base, pres, err))
	serial2, _, err := timeOp(kop, nil)
	check("kernel probe", err)
	serial := (serial1 + serial2) / 2
	vals["sim.dense_over_wake_x"] = ratio(dense, serial)
	vals["sim.parallel2_over_serial_x"] = ratio(par, serial)

	// Snapshot codecs, when no op of the rep went through them.
	if len(acc.saveS) == 0 && base.res.Cycles > 0 {
		sp := rec.begin("probe:snapshot", 0)
		_, err := roundTrip(kop, base, rec, sp, acc)
		rec.end(sp)
		check("snapshot probe", err)
	}

	acc.counterMetrics(vals)
	acc.timerMetrics(vals)

	sz := sizesFor(o.smoke)
	vals["sim.null_tick_ns"], vals["sim.sleep_wake_ns"] = microEngine(sz)
	uni, mc, repl, err := microNoC(sz, o.seed)
	check("noc micro-driver", err)
	vals["noc.uni_ns_per_flit_hop"], vals["noc.mcast_ns_per_flit_hop"], vals["noc.mcast_replicas_per_push"] = uni, mc, repl
	mops, err := microStreams()
	check("workload micro-driver", err)
	vals["workload.stream_mops_per_s"] = mops
	hitUs, idUs, err := microHarness(kop, sz)
	check("harness micro-driver", err)
	vals["harness.memo_hit_us"], vals["harness.run_identity_us"] = hitUs, idUs
	commits, perRec, err := microJournal(o.outDir, sz, rec)
	check("journal micro-driver", err)
	vals["shard.journal_commit_p50_us"] = quantile(commits, 0.5) * 1e6
	vals["shard.journal_commit_p95_us"] = quantile(commits, 0.95) * 1e6
	vals["shard.journal_bytes_per_record"] = perRec

	if err := rec.write(filepath.Join(o.outDir, "trace-"+w.name()+".ndjson")); err != nil {
		return err
	}
	for _, m := range perLayer {
		rep.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		rep.Samples[m.Name] = len(outs)
	}
	return nil
}

// sameRun reports a probe rerun that failed or changed the results.
func sameRun(want, got simRun, err error) error {
	if err != nil {
		return err
	}
	if got.identity != want.identity {
		return fmt.Errorf("results %s differ from the wake-driven kernel's %s", got.identity, want.identity)
	}
	return nil
}
