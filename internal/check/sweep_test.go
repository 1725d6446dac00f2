package check_test

import (
	"fmt"
	"slices"
	"testing"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/check"
	"pushmulticast/internal/config"
	"pushmulticast/internal/core"
	"pushmulticast/internal/fault"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/workload"
)

// wayShadow is what one way held at a sweep: its address, its line, and in
// an LLC slice its directory entry and sharers.
type wayShadow struct {
	addr    uint64
	line    cache.Line
	dir     cache.DirEntry
	sharers noc.DestSet
}

// tracked is one array the monitor tracks, with its LLC slice when it is
// one.
type tracked struct {
	name string
	arr  *cache.Array
	llc  *cache.LLC
}

// shadow is the machine as the previous sweep saw it.
type shadow struct {
	ways [][]wayShadow
	txns []map[uint64]string // per tracked array; nil but for LLC slices
}

func arrays(s *core.System) []tracked {
	var out []tracked
	for i, l2 := range s.L2s {
		out = append(out,
			tracked{fmt.Sprintf("tile %d L1", i), l2.L1().Array(), nil},
			tracked{fmt.Sprintf("tile %d L2", i), l2.Array(), nil},
			tracked{fmt.Sprintf("LLC slice %d", i), s.LLCs[i].Array(), s.LLCs[i]})
	}
	return out
}

// take records the arrays in sh, reusing its storage.
func take(arrs []tracked, sh *shadow) {
	if sh.ways == nil {
		sh.ways, sh.txns = make([][]wayShadow, len(arrs)), make([]map[uint64]string, len(arrs))
	}
	for k, a := range arrs {
		if sh.ways[k] == nil {
			sh.ways[k] = make([]wayShadow, a.arr.Len())
		}
		for i := range sh.ways[k] {
			addr, l, _ := a.arr.Way(i)
			w := wayShadow{addr: addr}
			if l != nil { // nil: the way's set has no page, and the way is free
				w.line = *l
				if a.llc != nil {
					d := a.llc.Dir(l)
					w.dir, w.sharers = *d.DirEntry, d.Sharers()
				}
			}
			sh.ways[k][i] = w
		}
		if a.llc != nil {
			if sh.txns[k] == nil {
				sh.txns[k] = map[uint64]string{}
			}
			clear(sh.txns[k])
			a.llc.ForEachTxn(func(addr uint64, rec string) { sh.txns[k][addr] = rec })
		}
	}
}

// unmarked compares the machine now with prev, the previous sweep's view,
// and returns the first change the arrays did not mark: a way whose address,
// line, directory entry or sharers changed while unmarked, a way that
// stopped holding a line its array did not log as freed, or an LLC
// transaction record that opened, changed or closed while no marked way
// holds its line and its slice did not log the line as freed.
func unmarked(arrs []tracked, prev, now *shadow) error {
	for k, a := range arrs {
		for i, was := range prev.ways[k] {
			is := now.ways[k][i]
			if is == was {
				continue
			}
			if _, _, marked := a.arr.Way(i); !marked {
				return fmt.Errorf("%s way %d changed without a mark: %+v -> %+v", a.name, i, was, is)
			}
			if was.addr != is.addr && was.addr != ^uint64(0) && !slices.Contains(a.arr.Freed(), was.addr) {
				return fmt.Errorf("%s way %d stopped holding %#x without logging it freed", a.name, i, was.addr)
			}
		}
		if a.llc == nil {
			continue
		}
		covered := func(addr uint64) bool {
			if slices.Contains(a.arr.Freed(), addr) {
				return true
			}
			held := false
			a.arr.ForEachMarked(func(marked uint64, _ *cache.Line) { held = held || marked == addr })
			return held
		}
		for addr, rec := range now.txns[k] {
			if prev.txns[k][addr] != rec && !covered(addr) {
				return fmt.Errorf("%s transaction record of %#x changed without a mark: %q -> %q", a.name, addr, prev.txns[k][addr], rec)
			}
		}
		for addr, rec := range prev.txns[k] {
			if _, open := now.txns[k][addr]; !open && !covered(addr) {
				return fmt.Errorf("%s transaction record of %#x closed without a mark: %q", a.name, addr, rec)
			}
		}
	}
	return nil
}

// watch installs the oracle on s's monitor. The first sweep is compared
// with a freshly built machine, every way free: after a build or a restore
// every way must be marked.
func watch(t *testing.T, s *core.System, name string, cfg config.System, wl workload.Workload) {
	fresh, err := core.Build(cfg, wl, workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	arrs := arrays(s)
	prev, now := &shadow{}, &shadow{}
	take(arrays(fresh), prev)
	sweeps, failed := 0, false
	check.SetSweepHook(s.Checker, func() {
		if failed {
			return
		}
		take(arrs, now)
		if err := unmarked(arrs, prev, now); err != nil {
			t.Errorf("%s, sweep %d at cycle %d: %v", name, sweeps, s.Eng.Now(), err)
			failed = true
		}
		prev, now = now, prev
		sweeps++
	})
	t.Cleanup(func() {
		if sweeps < 2 && !t.Failed() {
			t.Errorf("%s: the oracle saw %d sweeps", name, sweeps)
		}
	})
}

// TestSweepMarksEveryChange is the completeness oracle behind the checker's
// incremental sweep: at every sweep it shadows each way's address, line,
// directory entry and sharers, and every LLC transaction record, and fails,
// naming the array and way, on any change since the previous sweep that the
// arrays did not mark. It runs over a campaign of schemes, workloads, mesh
// sizes, lossy and faulty runs, and a restored run.
func TestSweepMarksEveryChange(t *testing.T) {
	type run struct {
		name   string
		cfg    config.System
		wl     string
		resume sim.Cycle // restore a snapshot taken at this cycle (0: cold)
	}
	tiny := func(cfg config.System, sch config.Scheme) config.System {
		cfg = cfg.Scaled(16).WithScheme(sch)
		cfg.Check, cfg.TraceN = true, 64
		return cfg
	}
	with := func(cfg config.System, plan fault.Plan) config.System {
		cfg.Faults = &plan
		return cfg
	}
	var runs []run
	for _, wl := range workload.Names() {
		for _, sch := range []config.Scheme{config.Baseline(), config.PushAck(), config.OrdPush()} {
			runs = append(runs, run{fmt.Sprintf("%s/%s", wl, sch.Name), tiny(config.Default16(), sch), wl, 0})
		}
	}
	ord16 := tiny(config.Default16(), config.OrdPush())
	runs = append(runs, run{"cachebw/OrdPush/64", tiny(config.Default64(), config.OrdPush()), "cachebw", 0})
	for seed := uint64(1); seed <= 3; seed++ {
		runs = append(runs, run{fmt.Sprintf("cachebw/OrdPush/lossy20/seed%d", seed),
			with(ord16, fault.GenerateLossyPlan(16, seed, 20)), "cachebw", 0})
	}
	runs = append(runs,
		run{"cachebw/OrdPush/faults0.5", with(ord16, fault.GeneratePlan(16, 1, 0.5)), "cachebw", 0},
		run{"cachebw/OrdPush/restored", ord16, "cachebw", 10_000})
	if raceDetectorEnabled {
		runs = runs[len(runs)-3:] // a lossy run, the faulty run and the restored run
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			wl, err := workload.ByName(r.wl)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.Build(r.cfg, wl, workload.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			if r.resume != 0 {
				if err := s.RunTo(r.resume, 0); err != nil {
					t.Fatal(err)
				}
				data, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if s, err = core.Restore(data, r.cfg, wl, workload.ScaleTiny); err != nil {
					t.Fatal(err)
				}
			}
			watch(t, s, r.name, r.cfg, wl)
			if _, err := s.Run(0); err != nil {
				t.Fatal(err)
			}
		})
	}
}
