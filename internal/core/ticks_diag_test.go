package core

import (
	"fmt"
	"strings"
	"testing"

	"pushmulticast/internal/config"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/workload"
)

// TestSparseTicksFewerThanDense checks the wake-driven scheduler's reason to
// exist: it must finish in the same number of simulated cycles as the dense
// reference kernel while executing strictly fewer component ticks (quiescent
// components are skipped instead of no-op ticked).
func TestSparseTicksFewerThanDense(t *testing.T) {
	for _, name := range []string{"Baseline", "OrdPush"} {
		cfg := config.Default16().Scaled(16)
		if name == "OrdPush" {
			cfg = cfg.WithScheme(config.OrdPush())
		} else {
			cfg = cfg.WithScheme(config.Baseline())
		}
		sys := ticksRun(t, cfg, "cachebw", workload.ScaleTiny)
		sparse, cyc := sys.Eng.Ticks(), sys.Eng.Now()

		cfg.DenseKernel = true
		sys2 := ticksRun(t, cfg, "cachebw", workload.ScaleTiny)
		dense, cyc2 := sys2.Eng.Ticks(), sys2.Eng.Now()

		t.Logf("%s: cycles=%d sparse ticks=%d dense ticks=%d ratio=%.2f",
			name, cyc, sparse, dense, float64(dense)/float64(sparse))
		if cyc != cyc2 {
			t.Errorf("%s: sparse finished at cycle %d, dense at %d", name, cyc, cyc2)
		}
		if sparse >= dense {
			t.Errorf("%s: sparse executed %d ticks, dense %d — scheduler skipped nothing", name, sparse, dense)
		}
	}
}

// TestSparseTickBudget holds the wake-driven kernel to a tick budget where
// the machine is mostly idle: the low-sharing PARSEC-like inputs at quick
// scale on the 8x8 mesh. The budget is half of what the kernel ticked before
// cores slept through compute, routers through body flits and credits
// nobody waited for, and next-cycle wakes waited for their cycle (the counts
// in the table; the cycle counts are those runs', unchanged); the log breaks
// each run down by component class.
func TestSparseTickBudget(t *testing.T) {
	for _, tc := range []struct {
		wl     string
		scheme config.Scheme
		cycles sim.Cycle
		before uint64
	}{
		{"swaptions", config.Baseline(), 34_047, 815_756},
		{"swaptions", config.OrdPush(), 34_052, 818_952},
		{"blackscholes", config.Baseline(), 65_508, 1_344_629},
		{"blackscholes", config.OrdPush(), 65_533, 1_349_766},
	} {
		name := fmt.Sprintf("%s/%s", tc.wl, tc.scheme.Name)
		sys := ticksRun(t, config.Default64().Scaled(16).WithScheme(tc.scheme), tc.wl, workload.ScaleQuick)
		ticks, cyc := sys.Eng.Ticks(), sys.Eng.Now()
		byClass := map[string]uint64{}
		var classes []string
		sys.Eng.ComponentTicks(func(c sim.Ticker, n uint64) {
			class := strings.TrimPrefix(fmt.Sprintf("%T", c), "*")
			if _, ok := byClass[class]; !ok {
				classes = append(classes, class)
			}
			byClass[class] += n
		})
		var b strings.Builder
		for _, class := range classes {
			fmt.Fprintf(&b, " %s %.2f", class, float64(byClass[class])/float64(cyc))
		}
		t.Logf("%s: %d cycles, %d ticks (%.2f of the budget's base), per cycle:%s",
			name, cyc, ticks, float64(ticks)/float64(tc.before), b.String())
		if cyc != tc.cycles {
			t.Errorf("%s finished at cycle %d, want %d", name, cyc, tc.cycles)
		}
		if ticks > tc.before/2 {
			t.Errorf("%s ticked %d times, over the budget of %d (half of %d)", name, ticks, tc.before/2, tc.before)
		}
	}
}

// ticksRun builds and runs one workload to completion.
func ticksRun(t *testing.T, cfg config.System, wlName string, sc workload.Scale) *System {
	t.Helper()
	wl, err := workload.ByName(wlName)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(cfg, wl, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0); err != nil {
		t.Fatal(err)
	}
	return sys
}
