package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	pm "pushmulticast"
	"pushmulticast/internal/core"
	"pushmulticast/internal/stats"
)

// simOp is one simulation of a rep.
type simOp struct {
	name string
	cfg  pm.Config
	wl   pm.Workload
	sc   pm.Scale
	// pair groups a Baseline run with the OrdPush run of the same input for
	// ordpush_speedup_x; ord marks the OrdPush side. Unpaired when empty.
	pair string
	ord  bool
	// roundTripOf, when >= 0, makes this op redo ops[roundTripOf] through
	// RunTo(half) -> Snapshot -> RestoreMachine -> Finish and requires the
	// result to equal the uninterrupted run's.
	roundTripOf int
}

// lossySeed pins the lossy plan's seed. Equal-rate lossy schedules with
// different seeds end anywhere between 45k and 100k cycles on the same input
// (retransmit storms are chaotic), and so does one lossy seed under
// different window-fault plans; no metric of such a run is comparable across
// seeds. --seed therefore drives the window-fault plan of the unlossy ops
// only, whose cycle counts stay within a few percent.
const lossySeed = 2

func machine(cores int, sch pm.Scheme, sc pm.Scale) pm.Config {
	cfg := pm.Default16()
	if cores == 64 {
		cfg = pm.Default64()
	}
	cfg = cfg.WithScheme(sch)
	if sc != pm.ScaleFull {
		cfg = pm.ScaledConfig(cfg)
	}
	return cfg
}

func mustWorkload(name string) pm.Workload {
	wl, err := pm.WorkloadByName(name)
	if err != nil {
		panic(err) // registry names are constants of this file
	}
	return wl
}

// pairOps returns the Baseline and OrdPush runs of one input.
func pairOps(wlName string, cores int, sc pm.Scale, mut func(*pm.Config)) []simOp {
	var ops []simOp
	for _, sch := range []pm.Scheme{pm.Baseline(), pm.OrdPush()} {
		cfg := machine(cores, sch, sc)
		if mut != nil {
			mut(&cfg)
		}
		ops = append(ops, simOp{
			name: wlName + "/" + sch.Name, cfg: cfg, wl: mustWorkload(wlName), sc: sc,
			pair: wlName, ord: sch.Name == pm.OrdPush().Name, roundTripOf: -1,
		})
	}
	return ops
}

// simWorkload is a workload whose rep is a list of simulations run in this
// process, one after another.
type simWorkload struct {
	wlName string
	smoke  bool
	ops    []simOp
}

func (w *simWorkload) name() string { return w.wlName }

// setup derives the op list from the seed and builds every machine once, so
// that work a later change moves from Run into Build shows in setup_s.
func (w *simWorkload) setup(seed uint64) error {
	cores, sc := 64, pm.ScaleTiny
	if w.smoke {
		cores = 16
	}
	switch w.wlName {
	case wlMesh:
		w.ops = pairOps("cachebw", cores, sc, nil)
	case wlSparse:
		if !w.smoke {
			sc = pm.ScaleQuick
		}
		w.ops = append(pairOps("swaptions", cores, sc, nil), pairOps("blackscholes", cores, sc, nil)...)
	case wlChaos:
		input := "cachebw"
		if w.smoke {
			input = "blackscholes"
		}
		// Two window-fault plans per rep: cycle counts under one plan vary by
		// a few percent from seed to seed, and two halve that.
		w.ops = nil
		for i, planSeed := range []uint64{seed, seed ^ 0x9e3779b97f4a7c15} {
			plan := pm.GenerateFaultPlan(16, planSeed, 0.3)
			pair := pairOps(input, 16, sc, func(c *pm.Config) { c.Faults = &plan })
			for j := range pair {
				pair[j].name += fmt.Sprintf("/faults%d", i)
				pair[j].pair += fmt.Sprintf("/faults%d", i)
			}
			w.ops = append(w.ops, pair...)
		}
		lossy := pm.GenerateLossyPlan(16, lossySeed, 20)
		guarded := machine(16, pm.OrdPush(), sc)
		guarded.Faults = &lossy
		guarded.Check = true
		guarded.TraceN = 256
		w.ops = append(w.ops,
			simOp{name: input + "/lossy+check", cfg: guarded, wl: mustWorkload(input), sc: sc, roundTripOf: -1},
			simOp{name: input + "/lossy+check/roundtrip", cfg: guarded, wl: mustWorkload(input), sc: sc, roundTripOf: len(w.ops)},
		)
	default:
		return fmt.Errorf("unknown simulation workload %q", w.wlName)
	}
	for _, op := range w.ops {
		if _, err := core.Build(op.cfg, op.wl, op.sc); err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
	}
	return nil
}

func (w *simWorkload) teardown() {}

func (w *simWorkload) phaseMetrics([]repOut, map[string]float64) {}

// kernelOp is the first OrdPush op: every op list starts with a pair.
func (w *simWorkload) kernelOp() simOp { return w.ops[1] }

// layerProbes measures the checker's cost: an op of the rep that runs with
// the invariant checker, rerun without it and without the trace ring it
// implies. Workloads without such an op leave the row at 0.
func (w *simWorkload) layerProbes(_ []repOut, _ *layerAcc, vals map[string]float64) error {
	for _, op := range w.ops {
		if !op.cfg.Check || op.roundTripOf >= 0 {
			continue
		}
		on, _, err := timeOp(op, nil)
		if err != nil {
			return err
		}
		off, _, err := timeOp(op, func(c *pm.Config) { c.Check, c.TraceN = false, 0 })
		if err != nil {
			return err
		}
		vals["check.on_over_off_x"] = ratio(on, off)
		break
	}
	return nil
}

// simRun is what one simulation yields for the benchmark.
type simRun struct {
	res        pm.Results
	build, run time.Duration
	ticks      uint64
	// identity is the part of the run that must repeat exactly: cycles,
	// flits, trace hash and event count, and a digest of the full counters.
	identity string
}

func runIdentity(res pm.Results) string {
	return fmt.Sprintf("%d/%d/%#x/%d/%s", res.Cycles, res.TotalNoCFlits(), res.TraceHash, res.TraceEvents, statsDigest(res.Stats))
}

func statsDigest(st *stats.All) string {
	b, err := json.Marshal(st)
	if err != nil {
		return "unmarshalable:" + err.Error()
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// runSim builds and runs one simulation through the same two calls
// pushmulticast.RunWorkload makes, timing each.
func runSim(op simOp, rec *recorder, parent int, acc *layerAcc) (simRun, error) {
	var before runtime.MemStats
	if acc != nil {
		runtime.ReadMemStats(&before)
	}
	sp := rec.begin("core.Build", parent)
	t0 := time.Now()
	sys, err := core.Build(op.cfg, op.wl, op.sc)
	build := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return simRun{}, err
	}
	sp = rec.begin("System.Run", parent)
	t0 = time.Now()
	res, err := sys.Run(0)
	run := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return simRun{}, err
	}
	res.Workload = op.wl.Name
	out := simRun{res: res, build: build, run: run, ticks: sys.Eng.Ticks(), identity: runIdentity(res)}
	if acc != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		acc.addRun(op, out, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
	}
	return out, nil
}

// roundTrip reruns op through a mid-run snapshot and restore and requires
// the result to equal ref, the uninterrupted run's.
func roundTrip(op simOp, ref simRun, rec *recorder, parent int, acc *layerAcc) (simRun, error) {
	sp := rec.begin("core.Build", parent)
	m, err := pm.NewMachine(op.cfg, op.wl, op.sc)
	rec.end(sp)
	if err != nil {
		return simRun{}, err
	}
	sp = rec.begin("Machine.RunTo", parent)
	err = m.RunTo(ref.res.Cycles / 2)
	rec.end(sp)
	if err != nil {
		return simRun{}, err
	}
	sp = rec.begin("Machine.Snapshot", parent)
	t0 := time.Now()
	snap, err := m.Snapshot()
	save := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return simRun{}, err
	}
	sp = rec.begin("RestoreMachine", parent)
	t0 = time.Now()
	m2, err := pm.RestoreMachine(snap, op.cfg, op.wl, op.sc)
	restore := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return simRun{}, err
	}
	sp = rec.begin("Machine.Finish", parent)
	res, err := m2.Finish()
	rec.end(sp)
	if err != nil {
		return simRun{}, err
	}
	if acc != nil {
		acc.addSnapshot(len(snap), save, restore)
	}
	out := simRun{res: res, identity: runIdentity(res)}
	if out.identity != ref.identity {
		return out, fmt.Errorf("restored run %s differs from the uninterrupted run %s", out.identity, ref.identity)
	}
	return out, nil
}

// repOut is what one rep yields.
type repOut struct {
	wall float64 // seconds
	// simWall is the wall time the rep's simulated cycles are divided by:
	// the whole rep for simulation workloads, the cold phase for the service.
	simWall   float64
	cycles    uint64
	flits     uint64
	speedup   float64
	flitRatio float64
	allocMB   float64
	attempted int
	failed    int
	// identity is compared against rep 0's: every rep must reproduce the
	// exact results of the first.
	identity string
	errs     []string
	// phases carries named timing samples, in seconds, of the service rep.
	phases map[string][]float64
}

func (o *repOut) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// pairStats folds Baseline/OrdPush pairs into the two paper-shape ratios:
// the geometric mean over pairs of cycles(Baseline)/cycles(OrdPush) and of
// flits(OrdPush)/flits(Baseline).
type pairStats struct {
	base, ord map[string][2]uint64 // pair -> cycles, flits
}

func (p *pairStats) add(pair string, ord bool, cycles, flits uint64) {
	if pair == "" {
		return
	}
	if p.base == nil {
		p.base, p.ord = map[string][2]uint64{}, map[string][2]uint64{}
	}
	if ord {
		p.ord[pair] = [2]uint64{cycles, flits}
	} else {
		p.base[pair] = [2]uint64{cycles, flits}
	}
}

func (p *pairStats) ratios() (speedup, flitRatio float64) {
	var logS, logF float64
	n := 0
	for pair, b := range p.base {
		o, ok := p.ord[pair]
		if !ok || b[0] == 0 || b[1] == 0 || o[0] == 0 || o[1] == 0 {
			continue
		}
		logS += math.Log(float64(b[0]) / float64(o[0]))
		logF += math.Log(float64(o[1]) / float64(b[1]))
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(logS / float64(n)), math.Exp(logF / float64(n))
}

func (w *simWorkload) rep(rec *recorder, acc *layerAcc) repOut {
	out := repOut{}
	repSpan := rec.begin("rep", 0)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	runs := make([]simRun, len(w.ops))
	var pairs pairStats
	for i, op := range w.ops {
		out.attempted++
		opSpan := rec.begin("op:"+op.name, repSpan)
		var r simRun
		var err error
		if op.roundTripOf >= 0 {
			r, err = roundTrip(op, runs[op.roundTripOf], rec, opSpan, acc)
		} else {
			r, err = runSim(op, rec, opSpan, acc)
		}
		rec.end(opSpan)
		if err != nil {
			out.fail("%s: %v", op.name, err)
			continue
		}
		runs[i] = r
		out.cycles += r.res.Cycles
		out.flits += r.res.TotalNoCFlits()
		out.identity += r.identity + ";"
		pairs.add(op.pair, op.ord, r.res.Cycles, r.res.TotalNoCFlits())
	}
	out.wall = time.Since(t0).Seconds()
	out.simWall = out.wall
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rec.end(repSpan)
	out.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	out.speedup, out.flitRatio = pairs.ratios()
	return out
}
