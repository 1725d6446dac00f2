// Command pushsim runs one simulation and prints its results: execution
// time, MPKI, traffic breakdown, and push statistics.
//
// Usage:
//
//	pushsim -workload cachebw -scheme OrdPush -cores 16 -scale quick
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pushmulticast"
	"pushmulticast/internal/stats"
)

// options is everything the command line says: the run description every
// front end shares, plus what only pushsim has — output format, profiling,
// and three edits it makes to the resolved run on its own (-dense, a
// -faultplan file, the snapshot/restore modes), none of which is a wire
// capability of the description.
type options struct {
	spec   pushmulticast.RunSpec
	faults pushmulticast.FaultSpec // attached to spec when either rate is set

	list, jsonOut, dense         bool
	planFile, snapFile, restoreF string
	snapAt                       uint64
	snapEvery                    int64
	snapEverySet, snapAtSet      bool // the flag was given, 0 included
	cpuProf, memProf, execTr     string
}

// bindFlags declares pushsim's flags on fs, parsing straight into the run
// description's fields.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{spec: pushmulticast.RunSpec{Knobs: &pushmulticast.KnobSpec{}}}
	sp, wl, k := &o.spec, &o.spec.Workload, o.spec.Knobs
	fs.StringVar(&wl.Name, "workload", "cachebw", "workload name (see -list)")
	fs.IntVar(&wl.Sharers, "sharers", 0, "collective workloads: participating core count (0 = all cores)")
	fs.IntVar(&wl.Fanout, "fanout", 0, "collective workloads: broadcast tree radix / prodcons consumers per producer / allreduce ring channels (0 = workload default)")
	fs.IntVar(&wl.ChunkLines, "chunk", 0, "collective workloads: chunk granularity in cache lines (0 = default 16)")
	fs.IntVar(&wl.PayloadLines, "payload", 0, "collective workloads: payload size in cache lines; must be chunk- and sharer-divisible (0 = scale-derived default)")
	fs.IntVar(&wl.Iters, "iters", 0, "collective workloads: collective repetitions (0 = scale default)")
	fs.StringVar(&sp.Scheme, "scheme", "OrdPush", "scheme: Baseline|NoPrefetch|Coalesce|MSP|PushAck|OrdPush|Push|Push+Multicast|Push+Multicast+Filter")
	fs.IntVar(&sp.Cores, "cores", 16, "core count: 16, 64, or 256")
	fs.StringVar(&sp.Scale, "scale", "quick", "input scale: tiny|quick|full")
	fs.IntVar(&k.LinkWidthBits, "link", 0, "link width in bits: 64|128|256|512 (0 = default 128)")
	fs.BoolVar(&o.list, "list", false, "list workloads and exit")
	fs.BoolVar(&o.jsonOut, "json", false, "emit results as JSON")
	fs.BoolVar(&o.dense, "dense", false, "run on the dense reference kernel (tick every component every cycle; the wake-driven scheduler's equivalence oracle)")
	fs.BoolVar(&sp.Check, "check", false, "enable the runtime invariant checker (coherence, directory superset, inclusion, filter soundness, OrdPush ordering, VC conservation); violations abort with a trace dump")
	fs.IntVar(&sp.TraceN, "trace", 0, "retain the last N trace events and dump them on a checker violation, deadlock, or panic (0 = off unless -check, which keeps a default tail)")
	fs.Float64Var(&o.faults.Intensity, "faults", 0, "fault-injection intensity in [0,1]: generates a deterministic fault plan (link stalls, router slowdowns, VC jitter, injection spikes, filter drops); 0 = off")
	fs.Uint64Var(&o.faults.Seed, "faultseed", 1, "seed for the generated fault plan (same seed + intensity = byte-identical fault schedule)")
	fs.IntVar(&o.faults.LossyPerMille, "lossy", 0, "lossy-interconnect rate in per mille: every tile drops arrivals at this rate and duplicates/corrupts them at half of it; recovered end-to-end by the transport layer (0 = off; rates above 100 are outside the forward-progress contract)")
	fs.StringVar(&o.planFile, "faultplan", "", "JSON fault-plan file to run (exclusive with -faults/-lossy); validated against the machine before the run starts")
	fs.IntVar(&k.RetryWindow, "retrywindow", 0, "lossy recovery: unacked packets per sender stream before injection backpressure (0 = default 32)")
	fs.IntVar(&k.RetryTimeout, "retrytimeout", 0, "lossy recovery: cycles before a sender retransmits an unacked packet (0 = default 400)")
	fs.IntVar(&k.MaxRetries, "maxretries", 0, "lossy recovery: retransmissions per packet before the run aborts with ErrUnrecoverable (0 = default 16)")
	fs.IntVar(&k.MSHRRetryTimeout, "mshrtimeout", 0, "lossy recovery: cycles before an L2 MSHR reissues an unanswered request (0 = default 300)")
	fs.StringVar(&o.snapFile, "snapshot", "", "write a full-state snapshot to FILE at the -snapat cycle barrier, then continue the run to completion (output is byte-identical to a run that never snapshotted)")
	fs.Uint64Var(&o.snapAt, "snapat", 0, "cycle barrier for -snapshot (required with it)")
	fs.Int64Var(&o.snapEvery, "snapevery", 0, "auto-checkpoint: rewrite the -snapshot FILE every N cycles (atomic rename-into-place, never a torn file); combine with -restore to resume a killed run and keep checkpointing (0 = off; exclusive with -snapat)")
	fs.StringVar(&o.restoreF, "restore", "", "restore a snapshot FILE into this configuration and run it to completion; the config must match the snapshot exactly, or differ only in tuning knobs (warm-start fork)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the run to FILE")
	fs.StringVar(&o.memProf, "memprofile", "", "write an allocation (heap) profile to FILE at exit")
	fs.StringVar(&o.execTr, "exectrace", "", "write a runtime execution trace of the run to FILE")
	return o
}

// parseArgs parses a command line. A bad flag is the flag package's own
// one-line error, like every other rejection; the flag listing is printed to
// usage only on -h, which returns flag.ErrHelp (exit 0, as the flag
// package's default handling does).
func parseArgs(args []string, usage io.Writer) (*options, error) {
	fs := flag.NewFlagSet("pushsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := bindFlags(fs)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(usage)
		fs.Usage()
	}
	fs.Visit(func(f *flag.Flag) {
		o.snapEverySet = o.snapEverySet || f.Name == "snapevery"
		o.snapAtSet = o.snapAtSet || f.Name == "snapat"
	})
	return o, err
}

// resolve turns the parsed flags into the run to simulate: the shared
// description resolved by the one validator, then pushsim's local edits.
// Every error is a one-line diagnostic; the caller prints it and exits 1.
func (o *options) resolve() (pushmulticast.ResolvedRun, error) {
	if o.faults.Intensity != 0 || o.faults.LossyPerMille != 0 {
		if o.planFile != "" {
			return pushmulticast.ResolvedRun{}, fmt.Errorf("-faultplan cannot be combined with -faults or -lossy")
		}
		o.spec.Faults = &o.faults
	}
	run, err := o.spec.Resolve(nil)
	if err != nil {
		return run, err
	}
	cfg := run.Config
	cfg.DenseKernel = o.dense
	if o.planFile != "" {
		if cfg.Faults, err = loadFaultPlan(cfg.Tiles(), o.planFile); err != nil {
			return run, err
		}
	}
	return pushmulticast.NewRun(cfg, run.Workload, run.Scale, nil), nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is pushsim over args: results go to stdout, and any failure is one
// line on stderr and exit status 1.
func run(args []string, stdout, stderr io.Writer) int {
	if err := simulate(args, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "pushsim:", err)
		return 1
	}
	return 0
}

// simulate parses args, runs the simulation and reports it; run prints the
// error it returns. A profile that fails to write is an error too.
func simulate(args []string, stdout, stderr io.Writer) (err error) {
	o, err := parseArgs(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	stopProf, err := startProfiles(o.cpuProf, o.memProf, o.execTr)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()

	if o.list {
		for _, w := range append(pushmulticast.Workloads(), pushmulticast.CollectiveWorkloads()...) {
			fmt.Fprintf(stdout, "%-16s %-14s %s\n", w.Name, "["+w.Class+"]", w.Description)
		}
		return nil
	}

	run, err := o.resolve()
	if err != nil {
		return err
	}
	if err := checkSnapEvery(o); err != nil {
		return err
	}
	res, err := execute(run.Config, run.Workload, run.Scale, o, stderr)
	if err != nil {
		return err
	}
	if o.jsonOut {
		return reportJSON(stdout, res)
	}
	report(stdout, res)
	return nil
}

// checkSnapEvery refuses, on one line, every checkpoint flag combination
// execute could not honour as given: -snapevery and -snapat must each be a
// positive cycle count whenever set at all (an explicit 0 is not "unset"),
// they exclude each other, each needs -snapshot FILE, and a one-shot
// -snapshot needs -snapat and a cold start.
func checkSnapEvery(o *options) error {
	switch {
	case o.snapEverySet && o.snapEvery <= 0:
		return fmt.Errorf("-snapevery %d is not a positive cycle count", o.snapEvery)
	case o.snapAtSet && o.snapAt == 0:
		return fmt.Errorf("-snapat 0 is not a positive cycle count")
	case o.snapEverySet && o.snapAtSet:
		return fmt.Errorf("-snapevery cannot be combined with -snapat (periodic versus one-shot)")
	case o.snapEverySet && o.snapFile == "":
		return fmt.Errorf("-snapevery requires -snapshot FILE")
	case o.snapAtSet && o.snapFile == "":
		return fmt.Errorf("-snapat requires -snapshot FILE")
	case !o.snapEverySet && o.snapFile != "" && o.restoreF != "":
		return fmt.Errorf("-snapshot cannot be combined with -restore")
	case !o.snapEverySet && o.snapFile != "" && !o.snapAtSet:
		return fmt.Errorf("-snapshot requires -snapat CYCLE")
	}
	return nil
}

// execute runs the simulation, honoring the checkpoint/restore flags that
// checkSnapEvery passed. Every mode is one flow over one machine: build it
// cold or -restore it from a snapshot; then either run straight through, or
// pause at the -snapat barrier to write a -snapshot, or rewrite the snapshot
// file every -snapevery cycles (atomically, so a crash never leaves a torn
// file — a SIGKILL at any instant loses at most one slice of progress, which
// -restore -snapevery resumes); then finish. Pausing is state-transparent,
// so every mode's results are byte-identical. Progress lines go to stderr.
// Every failure — including a snapshot whose format version or config
// fingerprint does not match — is a one-line diagnostic.
func execute(cfg pushmulticast.Config, wl pushmulticast.Workload, sc pushmulticast.Scale, o *options, stderr io.Writer) (pushmulticast.Results, error) {
	var none pushmulticast.Results
	snapFile, restoreF, snapEvery := o.snapFile, o.restoreF, uint64(o.snapEvery)
	var m *pushmulticast.Machine
	var err error
	if restoreF != "" {
		data, rerr := os.ReadFile(restoreF)
		if rerr != nil {
			return none, fmt.Errorf("restore: %w", rerr)
		}
		if m, err = pushmulticast.RestoreMachine(data, cfg, wl, sc); err != nil {
			return none, fmt.Errorf("restore %s: %w", restoreF, err)
		}
		if snapEvery > 0 {
			fmt.Fprintf(stderr, "pushsim: resumed from %s at cycle %d; checkpointing every %d cycles\n", restoreF, m.Now(), snapEvery)
		}
	} else if m, err = pushmulticast.NewMachine(cfg, wl, sc); err != nil {
		return none, err
	}
	checkpoint := func(what string) ([]byte, error) {
		snap, err := m.Snapshot()
		if err != nil {
			return nil, err
		}
		if err := writeFileAtomic(snapFile, snap); err != nil {
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		return snap, nil
	}
	switch {
	case snapEvery > 0:
		checkpoints := 0
		for !m.Done() {
			if err := m.RunTo(m.Now() + snapEvery); err != nil {
				return none, err
			}
			if m.Done() {
				break // the workload retired inside the slice; skip a dead checkpoint
			}
			if _, err := checkpoint("checkpoint"); err != nil {
				return none, err
			}
			checkpoints++
		}
		fmt.Fprintf(stderr, "pushsim: %d checkpoints written to %s (last at cycle %d)\n", checkpoints, snapFile, m.Now())
	case snapFile != "":
		if err := m.RunTo(o.snapAt); err != nil {
			return none, err
		}
		snap, err := checkpoint("snapshot")
		if err != nil {
			return none, err
		}
		fmt.Fprintf(stderr, "pushsim: snapshot written to %s (cycle %d, %d bytes, hash %#x)\n",
			snapFile, m.Now(), len(snap), pushmulticast.SnapshotHash(snap))
	}
	return m.Finish()
}

// writeFileAtomic writes data next to path and renames it into place, so a
// crash mid-write can never leave a torn file at path: readers see either
// the previous complete snapshot or the new one.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// loadFaultPlan reads a -faultplan JSON file and validates it against the
// machine. Every error is a one-line diagnostic naming the file.
func loadFaultPlan(tiles int, planFile string) (*pushmulticast.FaultPlan, error) {
	data, err := os.ReadFile(planFile)
	if err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	var plan pushmulticast.FaultPlan
	if err := json.Unmarshal(data, &plan); err != nil {
		return nil, fmt.Errorf("fault plan %s: %v", planFile, err)
	}
	if err := plan.Validate(tiles); err != nil {
		return nil, fmt.Errorf("fault plan %s: %v", planFile, err)
	}
	return &plan, nil
}

// jsonResult is the machine-readable result schema.
type jsonResult struct {
	Workload     string            `json:"workload"`
	Scheme       string            `json:"scheme"`
	Cycles       uint64            `json:"cycles"`
	Instructions uint64            `json:"instructions"`
	IPC          float64           `json:"ipc"`
	L1MPKI       float64           `json:"l1_mpki"`
	L2MPKI       float64           `json:"l2_mpki"`
	NoCFlits     uint64            `json:"noc_flits"`
	FlitsByClass map[string]uint64 `json:"flits_by_class"`
	Pushes       uint64            `json:"pushes_triggered"`
	PushAvgDests float64           `json:"push_avg_dests"`
	PushOutcomes map[string]uint64 `json:"push_outcomes"`
	FilteredReqs uint64            `json:"filtered_requests"`
	Coalesced    uint64            `json:"coalesced_requests"`
	MemReads     uint64            `json:"mem_reads"`
	MemWrites    uint64            `json:"mem_writes"`
	// TraceHash/TraceEvents identify the full causal event history when
	// -check or -trace is on (omitted otherwise, keeping checker-off output
	// unchanged). Two runs with equal values produced identical histories.
	TraceHash   string `json:"trace_hash,omitempty"`
	TraceEvents uint64 `json:"trace_events,omitempty"`
	// Fault-injection counters (omitted when -faults is off).
	FaultWindows    uint64 `json:"fault_windows,omitempty"`
	FaultJitter     uint64 `json:"fault_jitter_delay,omitempty"`
	FaultFilterSupp uint64 `json:"fault_filter_suppressed,omitempty"`
	InjRefused      uint64 `json:"inj_refused,omitempty"`
	// Lossy-interconnect recovery counters (omitted when no lossy fault ran).
	MsgDropped      uint64 `json:"msg_dropped,omitempty"`
	Retransmits     uint64 `json:"retransmits,omitempty"`
	DupSuppressed   uint64 `json:"dup_suppressed,omitempty"`
	CorruptDetected uint64 `json:"corrupt_detected,omitempty"`
	MSHRTimeouts    uint64 `json:"mshr_timeouts,omitempty"`
}

func reportJSON(w io.Writer, res pushmulticast.Results) error {
	st := res.Stats
	out := jsonResult{
		Workload:     res.Workload,
		Scheme:       res.Scheme,
		Cycles:       res.Cycles,
		Instructions: st.Core.Instructions,
		IPC:          float64(st.Core.Instructions) / float64(res.Cycles),
		L1MPKI:       res.L1MPKI(),
		L2MPKI:       res.L2MPKI(),
		NoCFlits:     st.Net.TotalFlits(),
		FlitsByClass: map[string]uint64{},
		Pushes:       st.Cache.PushesTriggered,
		PushOutcomes: map[string]uint64{},
		FilteredReqs: st.Net.FilteredRequests,
		Coalesced:    st.Cache.CoalescedRequests,
		MemReads:     st.Cache.MemReads,
		MemWrites:    st.Cache.MemWrites,
	}
	if st.Cache.PushesTriggered > 0 {
		out.PushAvgDests = float64(st.Cache.PushDestinations) / float64(st.Cache.PushesTriggered)
	}
	if res.TraceEvents > 0 {
		out.TraceHash = fmt.Sprintf("%#x", res.TraceHash)
		out.TraceEvents = res.TraceEvents
	}
	out.FaultWindows = st.Net.FaultWindows
	out.FaultJitter = st.Net.FaultJitterDelay
	out.FaultFilterSupp = st.Net.FaultFilterSuppressed
	out.InjRefused = st.Net.InjRefused
	out.MsgDropped = st.Net.MsgDropped
	out.Retransmits = st.Net.Retransmits
	out.DupSuppressed = st.Net.DupSuppressed
	out.CorruptDetected = st.Net.CorruptDetected
	out.MSHRTimeouts = st.Cache.MSHRTimeouts
	for c := stats.Class(0); c < stats.NumClasses; c++ {
		if v := st.Net.TotalFlitsByClass[c]; v > 0 {
			out.FlitsByClass[c.String()] = v
		}
	}
	for o := stats.PushOutcome(0); o < stats.NumPushOutcomes; o++ {
		if v := st.Cache.PushOutcomes[o]; v > 0 {
			out.PushOutcomes[o.String()] = v
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func report(w io.Writer, res pushmulticast.Results) {
	st := res.Stats
	printf := func(format string, a ...any) { fmt.Fprintf(w, format, a...) }
	printf("workload        %s\n", res.Workload)
	printf("scheme          %s\n", res.Scheme)
	printf("cycles          %d\n", res.Cycles)
	printf("instructions    %d\n", st.Core.Instructions)
	printf("IPC             %.3f\n", float64(st.Core.Instructions)/float64(res.Cycles))
	printf("L1 MPKI         %.2f\n", res.L1MPKI())
	printf("L2 MPKI         %.2f\n", res.L2MPKI())
	printf("NoC flits       %d\n", st.Net.TotalFlits())
	printf("  by class:\n")
	for c := stats.Class(0); c < stats.NumClasses; c++ {
		if v := st.Net.TotalFlitsByClass[c]; v > 0 {
			printf("    %-16s %d\n", c, v)
		}
	}
	if st.Cache.PushesTriggered > 0 {
		printf("pushes          %d (avg %.1f dests)\n", st.Cache.PushesTriggered,
			float64(st.Cache.PushDestinations)/float64(st.Cache.PushesTriggered))
		printf("  outcomes:\n")
		for o := stats.PushOutcome(0); o < stats.NumPushOutcomes; o++ {
			if v := st.Cache.PushOutcomes[o]; v > 0 {
				printf("    %-16s %d\n", o, v)
			}
		}
	}
	if st.Net.FilteredRequests > 0 {
		printf("filtered reqs   %d\n", st.Net.FilteredRequests)
	}
	if st.Cache.CoalescedRequests > 0 {
		printf("coalesced reqs  %d\n", st.Cache.CoalescedRequests)
	}
	if res.TraceEvents > 0 {
		printf("event history   %d events, hash %#x\n", res.TraceEvents, res.TraceHash)
	}
	if st.Net.FaultWindows > 0 {
		printf("fault windows   %d (jitter delay %d cyc, filter hits suppressed %d, injections refused %d)\n",
			st.Net.FaultWindows, st.Net.FaultJitterDelay, st.Net.FaultFilterSuppressed, st.Net.InjRefused)
	}
	if st.Net.MsgDropped+st.Net.CorruptDetected+st.Net.DupSuppressed > 0 {
		printf("lossy recovery  dropped %d, corrupt %d, dups suppressed %d, retransmits %d, MSHR reissues %d\n",
			st.Net.MsgDropped, st.Net.CorruptDetected, st.Net.DupSuppressed,
			st.Net.Retransmits, st.Cache.MSHRTimeouts)
	}
}
