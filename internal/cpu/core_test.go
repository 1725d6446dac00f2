package cpu

import (
	"testing"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/config"
	"pushmulticast/internal/memctrl"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/workload"
)

// rig is a minimal single-tile-per-core machine for core-model tests.
type rig struct {
	eng   *sim.Engine
	st    *stats.All
	cores []*Core
}

func buildRig(t *testing.T, streams []workload.Stream) *rig {
	t.Helper()
	return buildRigOn(t, streams, false)
}

// buildRigOn is buildRig on the wake-driven kernel or, with dense, on the
// dense reference kernel.
func buildRigOn(t *testing.T, streams []workload.Stream, dense bool) *rig {
	t.Helper()
	cfg := config.Default16().Scaled(16)
	st := stats.New()
	eng := sim.NewEngine(100_000, 10_000_000)
	eng.SetDense(dense)
	net, err := noc.New(cfg.NoC, eng, st)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{eng: eng, st: st}
	barrier := NewBarrier(len(streams))
	pools := cache.NewPools(&cfg)
	for i := 0; i < cfg.Tiles(); i++ {
		id := noc.NodeID(i)
		var c *Core
		l2 := cache.NewL2(id, &cfg, net, eng, st, deferred{&c}, pools)
		cache.NewLLC(id, &cfg, net, eng, st, pools, nil)
		if i < len(streams) {
			c = New(id, &cfg, eng, st, l2, streams[i], barrier)
			r.cores = append(r.cores, c)
		}
	}
	for _, mc := range cfg.MemControllers() {
		memctrl.New(mc, &cfg, net, eng, st, nil)
	}
	return r
}

type deferred struct{ c **Core }

func (d deferred) LoadDone(a uint64, n sim.Cycle) {
	if *d.c != nil {
		(*d.c).LoadDone(a, n)
	}
}

func (d deferred) StoreDone(a uint64, n sim.Cycle) {
	if *d.c != nil {
		(*d.c).StoreDone(a, n)
	}
}

func (d deferred) WakeUp() {
	if *d.c != nil {
		(*d.c).WakeUp()
	}
}

func (r *rig) run(t *testing.T) sim.Cycle {
	t.Helper()
	end, err := r.eng.Run(func() bool {
		for _, c := range r.cores {
			if !c.Finished() {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func ops(list ...workload.Op) workload.Stream {
	i := 0
	return workload.StreamFunc(func() workload.Op {
		if i >= len(list) {
			return workload.Op{Kind: workload.OpEnd}
		}
		op := list[i]
		i++
		return op
	})
}

func TestCoreRetiresWorkAtWidth(t *testing.T) {
	r := buildRig(t, []workload.Stream{ops(workload.Op{Kind: workload.OpWork, N: 800})})
	end := r.run(t)
	// 800 instructions at width 8 = 100 cycles (+1 for OpEnd consumption).
	if end < 100 || end > 110 {
		t.Errorf("pure work took %d cycles, want ~100", end)
	}
	if got := r.cores[0].Instructions(); got != 800 {
		t.Errorf("instructions = %d, want 800", got)
	}
}

func TestCoreLoadCompletes(t *testing.T) {
	r := buildRig(t, []workload.Stream{ops(
		workload.Op{Kind: workload.OpLoad, Addr: 1 << 30},
	)})
	end := r.run(t)
	if r.st.Core.Loads != 1 {
		t.Fatalf("loads = %d", r.st.Core.Loads)
	}
	// Cold miss: LLC fetch + DRAM => hundreds of cycles.
	if end < 50 {
		t.Errorf("cold load finished implausibly fast: %d cycles", end)
	}
}

func TestCoreWindowLimitsOutstanding(t *testing.T) {
	// 64 independent loads to distinct lines: with a 16-deep window the
	// core must stall; stalls are recorded.
	var list []workload.Op
	for i := 0; i < 64; i++ {
		list = append(list, workload.Op{Kind: workload.OpLoad, Addr: uint64(1<<30) + uint64(i)*64})
	}
	r := buildRig(t, []workload.Stream{ops(list...)})
	r.run(t)
	if r.cores[0].StallCycles() == 0 {
		t.Error("expected stall cycles with a full load window")
	}
}

func TestCoreStoreAcquiresOwnership(t *testing.T) {
	r := buildRig(t, []workload.Stream{ops(
		workload.Op{Kind: workload.OpStore, Addr: 1 << 30},
		workload.Op{Kind: workload.OpLoad, Addr: 1 << 30},
	)})
	r.run(t)
	if r.st.Core.Stores != 1 || r.st.Core.Loads != 1 {
		t.Fatalf("ops wrong: %d stores %d loads", r.st.Core.Stores, r.st.Core.Loads)
	}
}

func TestBarrierSynchronizesCores(t *testing.T) {
	// Core 0 does a lot of work before the barrier; core 1 a little. Both
	// finish essentially together because of the barrier.
	r := buildRig(t, []workload.Stream{
		ops(workload.Op{Kind: workload.OpWork, N: 8000}, workload.Op{Kind: workload.OpBarrier}),
		ops(workload.Op{Kind: workload.OpWork, N: 8}, workload.Op{Kind: workload.OpBarrier}),
	})
	end := r.run(t)
	if end < 1000 {
		t.Errorf("barrier released too early: %d cycles", end)
	}
	if r.cores[1].StallCycles() < 900 {
		t.Errorf("fast core barely waited: %d stall cycles", r.cores[1].StallCycles())
	}
}

func TestBarrierGenerations(t *testing.T) {
	b := NewBarrier(2)
	g0 := b.arrive(nil, 10)
	if b.gen != 0 {
		t.Fatal("generation advanced before all arrived")
	}
	if released, _, _ := b.status(g0, 10); released {
		t.Fatal("status reports release before all arrived")
	}
	g1 := b.arrive(nil, 14)
	if g0 != g1 || b.gen != 1 {
		t.Fatalf("generation accounting wrong: %d %d gen=%d", g0, g1, b.gen)
	}
	// The release happens at cycle 14 and turns visible the cycle after.
	if released, visible, relAt := b.status(g0, 14); !released || visible || relAt != 14 {
		t.Fatalf("same-cycle status = (%v, %v, %d), want released but not visible at 14",
			released, visible, relAt)
	}
	if _, visible, _ := b.status(g0, 15); !visible {
		t.Fatal("release not visible the cycle after it happened")
	}
}

func TestCoreFinishedRequiresDrain(t *testing.T) {
	r := buildRig(t, []workload.Stream{ops(workload.Op{Kind: workload.OpLoad, Addr: 1 << 30})})
	if r.cores[0].Finished() {
		t.Fatal("unstarted core reports finished")
	}
	r.run(t)
	if !r.cores[0].Finished() {
		t.Fatal("core not finished after run")
	}
}
