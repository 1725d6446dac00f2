// Command benchmark is the repository's performance benchmark: four named
// workloads over the simulator and its campaign service, measured end to end
// and, in a separate traced run, layer by layer. BENCHMARK.json at the root
// of the repository describes it; README.md in this directory explains the
// workloads, the metrics and how they are expected to move together.
//
//	go run ./benchmark --workload mesh64-sat --seed 1 --seconds 20 --trace 0
//	go run ./benchmark --workload campaign-svc --seed 1 --seconds 20 --trace 1
//	go run ./benchmark -seed 1                     # all four workloads, a process each
//	go run ./benchmark -selfcheck                  # two sets of runs must agree
//	go run ./benchmark -compare A.ndjson B.ndjson  # table for two saved sets
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
)

// poolWorkers sizes every pool the benchmark creates and caps GOMAXPROCS:
// the reference host has two processors, and a fixed size keeps numbers
// from different hosts about the same program.
const poolWorkers = 2

// Reference values for cachebw on 64 cores under OrdPush: the paper's
// maximum speed-up and the one EXPERIMENTS.md records for this simulator.
const (
	paperMaxSpeedup64 = 2.08
	experimentsTiny64 = 1.52
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	reps     int // 0: fill --seconds; otherwise exactly this many reps
	smoke    bool
	out      string
	outDir   string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload yields. The first four fields are
// the contract's result line; the rest is provenance kept in --out files.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Phases are the per-layer rows that carry a bound (the service phases
	// of campaign-svc), which an untraced run measures as well. The contract
	// wants every end-to-end metric on every workload, so the result line
	// leaves them out; -out files keep them for -compare and -selfcheck.
	Phases   map[string]metricValue `json:"phases,omitempty"`
	Workload string                 `json:"workload,omitempty"`
	Seed     uint64                 `json:"seed,omitempty"`
	Traced   bool                   `json:"traced,omitempty"`
	Reps     int                    `json:"reps,omitempty"`
	Samples  map[string]int         `json:"samples,omitempty"`
	Env      *environment           `json:"env,omitempty"`
	Errors   []string               `json:"errors,omitempty"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() *environment {
	e := &environment{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func newWorkload(name string, o options) (workload, error) {
	switch name {
	case wlMesh, wlSparse, wlChaos:
		return &simWorkload{wlName: name, smoke: o.smoke}, nil
	case wlSvc:
		return &svcWorkload{smoke: o.smoke, outDir: o.outDir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// resultLine renders the contract's last line: exactly four keys.
func resultLine(r *report) string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// printReport writes the human-readable table, then the result line.
func printReport(w io.Writer, r *report) {
	kind := "end-to-end (untraced)"
	defs := endToEnd
	if r.Traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d reps=%d %s  nproc=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Reps, kind, r.Env.NProc, r.Env.GoMaxProcs, r.Env.GoVersion, r.Env.Commit)
	for _, m := range defs {
		v := r.Metrics[m.Name]
		fmt.Fprintf(w, "%-34s %14.6g %-10s n=%d\n", m.Name, v.Value, v.Unit, r.Samples[m.Name])
	}
	if v, ok := r.Metrics["ordpush_speedup_x"]; ok && r.Workload == wlMesh {
		// Reference error beside the simulated speed-up: shape, not absolute.
		fmt.Fprintf(w, "%-34s %14s            paper 64-core max %.2fx (%+.0f%%), EXPERIMENTS.md tiny 8x8 %.2fx (%+.0f%%)\n",
			"  reference", "", paperMaxSpeedup64, (v.Value/paperMaxSpeedup64-1)*100, experimentsTiny64, (v.Value/experimentsTiny64-1)*100)
	}
	for _, m := range perLayer {
		if v, ok := r.Phases[m.Name]; ok {
			fmt.Fprintf(w, "%-34s %14.6g %-10s n=%d\n", m.Name, v.Value, v.Unit, r.Samples[m.Name])
		}
	}
	fmt.Fprintf(w, "%-34s %14d %-10s of %d attempted\n", "failed_ops", r.Failed, "count", r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	fmt.Fprintln(w, resultLine(r))
}

func appendReport(path string, r *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runOne measures one workload in this process.
func runOne(o options, stdout io.Writer) (bool, error) {
	w, err := newWorkload(o.workload, o)
	if err != nil {
		return false, err
	}
	r, err := measure(w, o)
	if err != nil {
		return false, fmt.Errorf("%s: %w", o.workload, err)
	}
	printReport(stdout, r)
	if o.out != "" {
		if err := appendReport(o.out, r); err != nil {
			return false, err
		}
	}
	return r.Correct, nil
}

// runEach measures every workload in a process of its own, as the driver
// does: a workload then starts from a fresh heap and peak_rss_mb is its own,
// not the high-water mark of whatever ran before it.
func runEach(o options, stdout io.Writer) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatUint(o.seed, 10), "-seconds", fmt.Sprint(o.seconds),
			"-reps", strconv.Itoa(o.reps), "-out", o.out, "-outdir", o.outDir}
		if o.traced {
			args = append(args, "-trace", "1")
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			ok = false // the child has said why
		}
	}
	return ok, nil
}

func main() {
	var o options
	var trace int
	var selfcheck, compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	flag.IntVar(&o.reps, "reps", 0, "measure exactly this many reps instead of filling -seconds (the only size knob; simulated configurations never change)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny 16-core sizes everywhere (what the package test runs)")
	flag.StringVar(&o.out, "out", "", "append each report, with its provenance, to this NDJSON file")
	flag.StringVar(&o.outDir, "outdir", "benchmark/out", "directory for trace-<workload>.ndjson, cpu-<workload>.pprof and scratch files")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the untraced suite twice and fail unless bounded metrics agree within their bounds, either way, and exact metrics are identical")
	flag.BoolVar(&compare, "compare", false, "print the comparison table of two -out files given as arguments")
	flag.Parse()
	o.traced = trace != 0
	if o.reps < 0 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -reps must not be negative and -seconds must be positive")
		os.Exit(2)
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), poolWorkers))
	log.SetOutput(io.Discard) // the service logs recoveries and shutdowns; none is an error here

	var ok bool
	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two files")
			os.Exit(2)
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		ok = err == nil
	case selfcheck:
		ok, err = selfCheck(o, os.Stdout)
	case o.workload == "all":
		ok, err = runEach(o, os.Stdout)
	default:
		ok, err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}
