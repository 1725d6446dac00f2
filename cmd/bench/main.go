// Command bench measures simulator kernel throughput and emits
// BENCH_kernel.json, the performance-trajectory record for the wake-driven
// scheduler.
//
// It runs the headline throughput benchmark (the cachebw workload under
// OrdPush at tiny scale — the same measurement as BenchmarkRunCachebwOrdPush
// in bench_test.go) twice: once on the wake-driven kernel and once in the
// dense reference mode that ticks every component every cycle. Both runs
// report simulated cycles per wall second and allocations per run.
//
// With -allocgate FILE it re-measures the wake-driven kernel's allocations
// per op and exits non-zero when they regressed more than 5% over the
// committed budget in FILE (BENCH_kernel.json's wake_driven.allocs_per_op) —
// the CI tripwire for reintroducing hot-path allocations.
//
// Profiling flags (-cpuprofile, -memprofile, -exectrace) capture the
// measured runs with runtime/pprof and runtime/trace.
//
// Usage:
//
//	go run ./cmd/bench                    # writes BENCH_kernel.json
//	go run ./cmd/bench -o - -benchtime 10x
//	go run ./cmd/bench -mode warmstart    # writes BENCH_snapshot.json
//	go run ./cmd/bench -allocgate BENCH_kernel.json
//	go run ./cmd/bench -cpuprofile cpu.pprof -benchtime 3x
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"pushmulticast"
	"pushmulticast/internal/profiles"
)

// seedBaseline records the pre-wake-driven kernel measured at the growth
// seed (commit 988cf70) on the reference machine, interleaved with current-
// tree runs so machine drift cancels. It anchors the trajectory: wall-clock
// numbers are machine-specific, but the committed ratios were taken in one
// sitting.
var seedBaseline = measurement{
	Label:          "seed dense cycle-driven kernel (commit 988cf70)",
	NsPerOp:        322000000,
	SimcyclesPerOp: 21331,
	AllocsPerOp:    674193,
	BytesPerOp:     43639423,
}

type measurement struct {
	Label           string  `json:"label"`
	NsPerOp         int64   `json:"ns_per_op"`
	SimcyclesPerOp  float64 `json:"simcycles_per_op"`
	SimcyclesPerSec float64 `json:"simcycles_per_sec"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
}

func (m *measurement) fill() {
	if m.NsPerOp > 0 {
		m.SimcyclesPerSec = m.SimcyclesPerOp / (float64(m.NsPerOp) / 1e9)
	}
}

type report struct {
	Benchmark string `json:"benchmark"`
	Workload  string `json:"workload"`
	GoOS      string `json:"goos"`
	GoArch    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Notes explains how to read the two speedup ratios.
	Notes []string `json:"notes"`

	WakeDriven     measurement `json:"wake_driven"`
	DenseReference measurement `json:"dense_reference"`
	SeedBaseline   measurement `json:"seed_baseline"`

	SpeedupVsSeed      float64 `json:"speedup_vs_seed"`
	SpeedupVsDenseMode float64 `json:"speedup_vs_dense_mode"`
	AllocReductionX    float64 `json:"alloc_reduction_vs_seed_x"`
}

// run measures the cachebw/OrdPush tiny-scale simulation on the 16-core
// machine (the kernel-trajectory measurement) under testing's benchmark
// harness.
func run(label string, dense bool) measurement {
	cfg := pushmulticast.ScaledConfig(pushmulticast.Default16()).WithScheme(pushmulticast.OrdPush())
	cfg.DenseKernel = dense
	var cycles uint64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := pushmulticast.Run(cfg, "cachebw", pushmulticast.ScaleTiny)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
	})
	m := measurement{
		Label:          label,
		NsPerOp:        r.NsPerOp(),
		SimcyclesPerOp: float64(cycles),
		AllocsPerOp:    r.AllocsPerOp(),
		BytesPerOp:     r.AllocedBytesPerOp(),
	}
	m.fill()
	return m
}

// runWarmStart measures the checkpoint-forked knob sweep against its cold
// equivalent and emits the BENCH_snapshot.json record: total wall time for
// ten variants run from cycle zero versus one donor run to ~90% plus ten
// restores, with the exact-resume variant cross-checked against its cold run.
func runWarmStart(out string) error {
	rep, err := pushmulticast.ExpWarmStart(pushmulticast.ExpOptions{Scale: pushmulticast.ScaleTiny})
	if err != nil {
		return err
	}
	rep.GoOS = runtime.GOOS
	rep.GoArch = runtime.GOARCH
	rep.NumCPU = runtime.NumCPU()
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "-" {
		os.Stdout.Write(buf)
		return nil
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d variants forked at %.0f%% of %d cycles, %.2fx vs cold sweep (snapshot %d bytes)\n",
		out, rep.VariantCount, rep.BarrierFraction*100, rep.DonorCycles, rep.SpeedupX, rep.SnapshotBytes)
	return nil
}

// allocGate re-measures the wake-driven kernel's allocations per op against
// the committed budget and fails (exit 1 via the returned error) on a >5%
// regression. Alloc counts are deterministic enough for a hard gate; wall
// clock is not, so the gate reads nothing else.
func allocGate(budgetFile string) error {
	data, err := os.ReadFile(budgetFile)
	if err != nil {
		return err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %v", budgetFile, err)
	}
	budget := rep.WakeDriven.AllocsPerOp
	if budget <= 0 {
		return fmt.Errorf("%s: no wake_driven.allocs_per_op budget", budgetFile)
	}
	m := run("wake-driven kernel (alloc gate)", false)
	limit := budget + (budget+19)/20 // +5%, rounded up
	if m.AllocsPerOp > limit {
		return fmt.Errorf("alloc gate FAILED: %d allocs/op exceeds budget %d by more than 5%% (limit %d); if the regression is intended, re-record %s",
			m.AllocsPerOp, budget, limit, budgetFile)
	}
	fmt.Printf("alloc gate OK: %d allocs/op within 5%% of budget %d (limit %d)\n",
		m.AllocsPerOp, budget, limit)
	return nil
}

func main() {
	var (
		out        = flag.String("o", "", "output path ('-' for stdout; default depends on -mode)")
		benchtime  = flag.String("benchtime", "5x", "benchmark time per kernel (testing -benchtime syntax)")
		mode       = flag.String("mode", "kernel", "benchmark: kernel (wake-driven vs dense, BENCH_kernel.json) or warmstart (cold sweep vs checkpoint-forked sweep, BENCH_snapshot.json)")
		gate       = flag.String("allocgate", "", "gate mode: compare current allocs/op against FILE's wake_driven budget, exit non-zero on >5% regression")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measured runs to FILE")
		memprofile = flag.String("memprofile", "", "write an allocation (heap) profile to FILE at exit")
		exectrace  = flag.String("exectrace", "", "write a runtime execution trace of the measured runs to FILE")
	)
	testing.Init()
	flag.Parse()
	if err := flag.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
		fatal(err)
	}
	stopProf, err := profiles.Start(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *gate != "" {
		if err := allocGate(*gate); err != nil {
			stopProf()
			fatal(err)
		}
		return
	}

	switch *mode {
	case "warmstart":
		if *out == "" {
			*out = "BENCH_snapshot.json"
		}
		if err := runWarmStart(*out); err != nil {
			stopProf()
			fatal(err)
		}
		return
	case "kernel":
		if *out == "" {
			*out = "BENCH_kernel.json"
		}
	default:
		fatal(fmt.Errorf("unknown -mode %q (use kernel or warmstart)", *mode))
	}

	rep := report{
		Benchmark: "BenchmarkRunCachebwOrdPush",
		Workload:  "cachebw / OrdPush / tiny scale / 16 cores",
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Notes: []string{
			"speedup_vs_seed compares against the pre-wake-driven kernel at the growth seed; its wall-clock numbers were measured interleaved with current-tree runs and are machine-specific.",
			"speedup_vs_dense_mode compares against this tree's own dense reference mode, which shares every hot-path optimization and differs only in ticking all components every cycle; it isolates the scheduler's contribution (tick-count ratio ~2.75x on this workload).",
		},
		SeedBaseline: seedBaseline,
	}
	rep.SeedBaseline.fill()
	rep.WakeDriven = run("wake-driven kernel", false)
	rep.DenseReference = run("dense reference mode (DenseKernel=true)", true)
	if rep.WakeDriven.NsPerOp > 0 {
		rep.SpeedupVsSeed = float64(rep.SeedBaseline.NsPerOp) / float64(rep.WakeDriven.NsPerOp)
		rep.SpeedupVsDenseMode = float64(rep.DenseReference.NsPerOp) / float64(rep.WakeDriven.NsPerOp)
	}
	if rep.WakeDriven.AllocsPerOp > 0 {
		rep.AllocReductionX = float64(rep.SeedBaseline.AllocsPerOp) / float64(rep.WakeDriven.AllocsPerOp)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %.0f simcycles/sec wake-driven (%.2fx vs seed, %.2fx vs dense mode, %.0fx fewer allocs)\n",
		*out, rep.WakeDriven.SimcyclesPerSec, rep.SpeedupVsSeed, rep.SpeedupVsDenseMode, rep.AllocReductionX)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
