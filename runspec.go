package pushmulticast

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync/atomic"
)

// RunSpec describes one simulation run: the machine, the design point, the
// workload, and everything layered on top of them. It is the one description
// every front end fills — pushsim from its flags, the simd service once per
// (scheme, workload) pair of a campaign, a shard coordinator as the bytes it
// sends a worker replica — and Resolve is the one place a description is
// validated and turned into a machine. Zero fields select defaults.
type RunSpec struct {
	// Cores is the machine size: 16, 64, or 256. 0 selects 16.
	Cores int `json:"cores"`
	// Scale is the workload input sizing: "tiny", "quick" (default), or
	// "full". Non-full scales pair with quick-scaled caches, preserving the
	// paper's pressure ratios.
	Scale string `json:"scale"`
	// Scheme names the design point (case-insensitive; see SchemeByName).
	Scheme string `json:"scheme"`
	// Workload names the workload; collective workloads accept parameters.
	Workload WorkloadSpec `json:"workload"`
	// Check enables the runtime invariant checker.
	Check bool `json:"check"`
	// TraceN retains the last N causal trace events and reports the trace
	// identity (hash and event count) with the results.
	TraceN int `json:"trace_n"`
	// Faults optionally arms the deterministic fault-injection layer.
	Faults *FaultSpec `json:"faults"`
	// WarmStart names a snapshot (resolved through Resolve's lookup) to fork
	// the run from instead of running cold. The snapshot's config must match
	// the run's, or differ only in tuning knobs; a mismatch fails the run.
	WarmStart string `json:"warm_start"`
	// Knobs overrides tuning parameters on the run's configuration.
	Knobs *KnobSpec `json:"knobs"`
}

// WorkloadSpec names one workload. The parameter fields apply only to the
// collective family ("allreduce", "broadcast", "reducescatter", "prodcons");
// setting any of them on a registry workload is rejected.
type WorkloadSpec struct {
	Name         string `json:"name"`
	Sharers      int    `json:"sharers"`
	Fanout       int    `json:"fanout"`
	ChunkLines   int    `json:"chunk_lines"`
	PayloadLines int    `json:"payload_lines"`
	Iters        int    `json:"iters"`
}

// FaultSpec arms fault injection: a generated chaos plan (Intensity in
// (0,1]), a lossy-interconnect plan (LossyPerMille), or both. The same seed
// and rates produce byte-identical fault schedules. Seed 0 selects 1.
type FaultSpec struct {
	Intensity     float64 `json:"intensity"`
	LossyPerMille int     `json:"lossy_per_mille"`
	Seed          uint64  `json:"seed"`
}

// KnobSpec overrides tuning knobs. Zero fields keep the configuration's
// defaults; negative values are rejected.
type KnobSpec struct {
	TPCThreshold     int `json:"tpc_threshold"`
	TimeWindow       int `json:"time_window"`
	LinkWidthBits    int `json:"link_width_bits"`
	RetryWindow      int `json:"retry_window"`
	RetryTimeout     int `json:"retry_timeout"`
	MaxRetries       int `json:"max_retries"`
	MSHRRetryTimeout int `json:"mshr_retry_timeout"`
}

// ErrDonorMissing is reported (wrapped, test with errors.Is) by Resolve when
// a description names a warm-start snapshot its lookup cannot find — the one
// rejection a caller can cure by supplying the snapshot and resolving again.
var ErrDonorMissing = errors.New("warm_start snapshot not found")

// DecodeRunSpec parses one run description strictly: unknown fields are
// rejected, so a typo'd knob can never silently run a different simulation
// than the caller meant. The error is one line.
func DecodeRunSpec(data []byte) (RunSpec, error) {
	var spec RunSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("run spec: %s", oneLine(err))
	}
	return spec, nil
}

// ParseScale resolves an input-scale name (case-insensitive): "tiny",
// "quick" (also the empty string), or "full".
func ParseScale(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "tiny":
		return ScaleTiny, nil
	case "quick", "":
		return ScaleQuick, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("unknown scale %q (use tiny, quick, or full)", name)
}

// machineFor returns the Table I machine for a core count, with quick-scaled
// caches unless the inputs are full-size. It is the only place the presets
// are chosen; 0 cores selects 16.
func machineFor(cores int, sc Scale) (Config, error) {
	var cfg Config
	switch cores {
	case 0, 16:
		cfg = Default16()
	case 64:
		cfg = Default64()
	case 256:
		cfg = Default256()
	default:
		return cfg, fmt.Errorf("unsupported core count %d (use 16, 64, or 256)", cores)
	}
	if sc != ScaleFull {
		cfg = ScaledConfig(cfg)
	}
	return cfg, nil
}

// Resolve validates the description and assembles its run. Everything is
// checked here, before anything is simulated or scheduled, and every
// rejection is a one-line diagnostic. lookupSnap resolves a WarmStart id to
// the donor's bytes and their content hash (SnapshotHash, computed where the
// bytes entered the process; the run does not hash them again); nil means no
// snapshots are available.
func (s RunSpec) Resolve(lookupSnap func(id string) ([]byte, uint64, bool)) (ResolvedRun, error) {
	sc, err := ParseScale(s.Scale)
	if err != nil {
		return ResolvedRun{}, err
	}
	cfg, err := machineFor(s.Cores, sc)
	if err != nil {
		return ResolvedRun{}, err
	}
	if s.TraceN < 0 {
		return ResolvedRun{}, fmt.Errorf("trace_n %d is negative", s.TraceN)
	}
	sch, err := SchemeByName(s.Scheme)
	if err != nil {
		return ResolvedRun{}, err
	}
	cfg = cfg.WithScheme(sch)
	cfg.Check = s.Check
	cfg.TraceN = s.TraceN
	if k := s.Knobs; k != nil {
		for _, knob := range [...]struct {
			name string
			v    int
		}{
			{"tpc_threshold", k.TPCThreshold},
			{"time_window", k.TimeWindow},
			{"link_width_bits", k.LinkWidthBits},
			{"retry_window", k.RetryWindow},
			{"retry_timeout", k.RetryTimeout},
			{"max_retries", k.MaxRetries},
			{"mshr_retry_timeout", k.MSHRRetryTimeout},
		} {
			if knob.v < 0 {
				return ResolvedRun{}, fmt.Errorf("knob %s %d is negative", knob.name, knob.v)
			}
		}
		// Assigned field by field, not through a table of field pointers:
		// taking cfg's address would move it to the heap on every call.
		cfg.TPCThreshold = cmp.Or(k.TPCThreshold, cfg.TPCThreshold)
		cfg.TimeWindow = cmp.Or(k.TimeWindow, cfg.TimeWindow)
		cfg.NoC.LinkWidthBits = cmp.Or(k.LinkWidthBits, cfg.NoC.LinkWidthBits)
		cfg.NoC.RetryWindow = cmp.Or(k.RetryWindow, cfg.NoC.RetryWindow)
		cfg.NoC.RetryTimeout = cmp.Or(k.RetryTimeout, cfg.NoC.RetryTimeout)
		cfg.NoC.MaxRetries = cmp.Or(k.MaxRetries, cfg.NoC.MaxRetries)
		cfg.MSHRRetryTimeout = cmp.Or(k.MSHRRetryTimeout, cfg.MSHRRetryTimeout)
	}
	if f := s.Faults; f != nil {
		if cfg.Faults, err = f.plan(cfg.Tiles()); err != nil {
			return ResolvedRun{}, err
		}
	}
	wl, err := s.Workload.resolve()
	if err != nil {
		return ResolvedRun{}, err
	}
	if wl.Validate != nil {
		// Parameter consistency depends on the machine's core count.
		if err := wl.Validate(cfg.Tiles()); err != nil {
			return ResolvedRun{}, errors.New(oneLine(err))
		}
	}
	if err := cfg.Validate(); err != nil {
		return ResolvedRun{}, errors.New(oneLine(err))
	}
	var donor []byte
	var hash uint64
	if s.WarmStart != "" {
		var ok bool
		if lookupSnap != nil {
			donor, hash, ok = lookupSnap(s.WarmStart)
		}
		if !ok {
			return ResolvedRun{}, fmt.Errorf("%w: %q (upload it via POST /snapshots first)", ErrDonorMissing, s.WarmStart)
		}
	}
	return newRun(cfg, wl, sc, donor, hash), nil
}

// plan generates the spec's fault plan: a chaos plan, a lossy plan, or both
// merged (the chaos generator never emits lossy kinds, so the merge cannot
// stack windows on one component). nil means injection is off.
func (f FaultSpec) plan(tiles int) (*FaultPlan, error) {
	if !(f.Intensity >= 0 && f.Intensity <= 1) { // also refuses NaN
		return nil, fmt.Errorf("fault intensity %g outside [0,1]", f.Intensity)
	}
	if f.LossyPerMille < 0 || f.LossyPerMille > 1000 {
		return nil, fmt.Errorf("lossy rate %d per mille outside [0,1000]", f.LossyPerMille)
	}
	seed := max(f.Seed, 1)
	var plan FaultPlan
	if f.Intensity > 0 {
		plan = GenerateFaultPlan(tiles, seed, f.Intensity)
	}
	if f.LossyPerMille > 0 {
		lp := GenerateLossyPlan(tiles, seed, f.LossyPerMille)
		plan.Seed = lp.Seed
		plan.Faults = append(plan.Faults, lp.Faults...)
	}
	if len(plan.Faults) == 0 {
		return nil, nil
	}
	return &plan, nil
}

// resolve maps the spec to a workload value: plain registry names resolve
// unchanged, and any set collective parameter requires the name to be a
// collective.
func (ws WorkloadSpec) resolve() (Workload, error) {
	p := CollectiveParams{
		Sharers: ws.Sharers, Fanout: ws.Fanout, ChunkLines: ws.ChunkLines,
		PayloadLines: ws.PayloadLines, Iters: ws.Iters,
	}
	if p == (CollectiveParams{}) {
		return WorkloadByName(ws.Name)
	}
	wl, err := CollectiveWorkload(ws.Name, p)
	if err != nil {
		return Workload{}, fmt.Errorf("collective parameters set: %v", err)
	}
	return wl, nil
}

// ResolvedRun is one resolved simulation: the machine, the workload, the
// input scale, and — for a warm start — the snapshot it forks from. Build one
// with RunSpec.Resolve or NewRun; it is a value and is not edited afterwards
// (its memo key and identity derive from the fields at construction).
type ResolvedRun struct {
	Config   Config
	Workload Workload
	Scale    Scale
	// Donor is the warm-start snapshot the run forks from; empty = cold.
	Donor []byte

	// faults is the fault plan's %+v text and snap the donor's content hash
	// (0 for a cold run): the memo-key parts the fields above do not hold as
	// comparable values. id is the run's identity.
	faults string
	snap   uint64
	id     string
}

// memoKey identifies a run by its comparable inputs. The fault-plan pointer
// is dereferenced into the key as text: comparing the pointer itself would
// make the key an unstable address and alias all plans.
type memoKey struct {
	cfg      Config // Faults nil: the plan is faults
	faults   string
	workload string
	// params is the workload's canonical parameter signature: two collective
	// variants share a Name but must never share a cached run.
	params string
	scale  Scale
	// snap is the content hash of the snapshot a warm-started run forked
	// from, 0 for cold runs. A warm fork's results legitimately differ from
	// the same configuration's cold results (the warm-up executed under the
	// donor's tuning knobs), so the two must never share a memo entry; the
	// content hash also separates forks of different donors or barriers.
	snap uint64
}

// key returns the run's memo key.
func (r ResolvedRun) key() memoKey {
	cfg := r.Config
	cfg.Faults = nil
	return memoKey{cfg, r.faults, r.Workload.Name, r.Workload.Params, r.Scale, r.snap}
}

// identitiesFormatted counts formatting passes — NewRun building a run the
// campaign memo does not hold. Tests pin "none for a memo-held run" with it.
var identitiesFormatted atomic.Uint64

// NewRun builds a run from already-assembled parts; a warm start's donor is
// hashed here. The identity of a run the campaign memo holds, completed or
// in flight, is read off its entry; any other run's is formatted once.
func NewRun(cfg Config, wl Workload, sc Scale, donor []byte) ResolvedRun {
	var snap uint64
	if len(donor) > 0 {
		snap = SnapshotHash(donor)
	}
	return newRun(cfg, wl, sc, donor, snap)
}

// newRun is NewRun with the donor's content hash already known.
func newRun(cfg Config, wl Workload, sc Scale, donor []byte, snap uint64) ResolvedRun {
	r := ResolvedRun{Config: cfg, Workload: wl, Scale: sc, Donor: donor, snap: snap}
	if cfg.Faults != nil {
		r.faults = fmt.Sprintf("%+v", *cfg.Faults)
	}
	k := r.key()
	var ok bool
	if r.id, ok = memoIdentity(k); !ok {
		r.id = formatIdentity(k)
	}
	return r
}

// formatIdentity is the formatting pass: the FNV-1a of the memo key's parts,
// the configuration as its %+v text. Equal keys format to equal identities
// because %+v of a Config is a function of its value and Config holds no
// float (-0 and +0 compare equal but print differently).
func formatIdentity(k memoKey) string {
	identitiesFormatted.Add(1)
	h := fnv.New64a()
	for _, part := range []string{fmt.Sprintf("%+v", k.cfg), k.faults, k.workload, k.params} {
		io.WriteString(h, part)
		h.Write([]byte{0}) // separator: no formatting artifact may alias parts
	}
	var tail [9]byte
	tail[0] = byte(k.scale)
	for i := 0; i < 8; i++ {
		tail[1+i] = byte(k.snap >> (8 * i))
	}
	h.Write(tail[:])
	return fmt.Sprintf("%016x", h.Sum64())
}

// Identity returns the run's deterministic identity: the hex FNV-1a of its
// memo key (configuration, fault plan, workload and its parameters, scale,
// and the warm-start donor's content hash). Two runs with equal identities
// return byte-identical Results; it is the run ID on every wire.
func (r ResolvedRun) Identity() string { return r.id }

// Execute simulates the run through the campaign memo — cold, or forked from
// its donor. Identical concurrent calls share one simulation; hit is true
// when the call was served from the memo (completed, or joined in flight). A
// canceled ctx returns promptly with a wrapped ErrCanceled, and the
// simulation itself is aborted only when its last waiter has gone. A
// completed entry is answered by one lookup, before the simulation's closure
// is built, so such a hit allocates nothing: only a miss or a join copies the
// run to the heap.
func (r ResolvedRun) Execute(ctx context.Context) (res Results, hit bool, err error) {
	key := r.key()
	if res, ok := memoFinished(key); ok {
		return res, true, nil
	}
	return memoized(ctx, key, r.id, r.simulate)
}

// RunAnswer is a completed run as the campaign memo answers a repeat of it on
// a wire: Record(res, true, nil) and that record's NDJSON line
// (json.Marshal and a newline). A memo entry renders it once and shares it
// read-only with every later hit.
type RunAnswer struct {
	Record RunRecord
	Line   []byte
	e      *memoEntry
}

// Answered returns the wire answer of a run the campaign memo holds
// completed; false for a run never simulated, evicted, failed, or still in
// flight. It counts no hit and moves no LRU position, so a front end may look
// a whole request up before deciding to serve it: Hit counts the answer then.
func (r ResolvedRun) Answered() (*RunAnswer, bool) { return memoAnswer(r) }

// Hit counts one memo hit for a served answer, as Execute's lookup of a
// completed run does.
func (a *RunAnswer) Hit() { memoHit(a.e) }

// DonorHash returns the content hash of the run's warm-start donor (see
// SnapshotHash), 0 for a cold run.
func (r ResolvedRun) DonorHash() uint64 { return r.snap }

// simulate runs the simulation itself, cold or forked from the donor.
func (r ResolvedRun) simulate(ctx context.Context) (Results, error) {
	if len(r.Donor) == 0 {
		return RunWorkloadCtx(ctx, r.Config, r.Workload, r.Scale)
	}
	m, err := RestoreMachine(r.Donor, r.Config, r.Workload, r.Scale)
	if err != nil {
		return Results{}, err
	}
	return m.FinishCtx(ctx)
}

// RunRecord is one completed (or failed) run on the wire: a line of the simd
// campaign stream, a GET /runs reply, a journal entry, and the record a
// worker replica returns its coordinator.
type RunRecord struct {
	ID           string  `json:"id"`
	Scheme       string  `json:"scheme"`
	Workload     string  `json:"workload"`
	Cycles       uint64  `json:"cycles,omitempty"`
	Instructions uint64  `json:"instructions,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`
	L1MPKI       float64 `json:"l1_mpki,omitempty"`
	L2MPKI       float64 `json:"l2_mpki,omitempty"`
	NoCFlits     uint64  `json:"noc_flits,omitempty"`
	// Cached is true when the run was served without simulating for this
	// response: a memo hit on a worker, or a journal recovery on the
	// coordinator. The coordinator clears it on freshly dispatched records so
	// a distributed campaign's lines compare byte-identical to an
	// undistributed first run.
	Cached bool `json:"cached"`
	// TraceHash/TraceEvents identify the causal event history when tracing
	// was on; equal values mean identical histories.
	TraceHash   string `json:"trace_hash,omitempty"`
	TraceEvents uint64 `json:"trace_events,omitempty"`
	// Error carries a failed or canceled run's one-line diagnostic.
	Error    string `json:"error,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
}

// Record renders Execute's outcome as the run's wire record.
func (r ResolvedRun) Record(res Results, hit bool, err error) RunRecord {
	rec := RunRecord{ID: r.Identity(), Scheme: r.Config.Scheme.Name, Workload: r.Workload.Name, Cached: hit}
	if err != nil {
		rec.Error = oneLine(err)
		rec.Canceled = errors.Is(err, ErrCanceled)
		return rec
	}
	rec.Cycles = res.Cycles
	rec.Instructions = res.Stats.Core.Instructions
	if res.Cycles > 0 {
		rec.IPC = float64(res.Stats.Core.Instructions) / float64(res.Cycles)
	}
	rec.L1MPKI = res.L1MPKI()
	rec.L2MPKI = res.L2MPKI()
	rec.NoCFlits = res.TotalNoCFlits()
	if res.TraceEvents > 0 {
		rec.TraceHash = fmt.Sprintf("%#x", res.TraceHash)
		rec.TraceEvents = res.TraceEvents
	}
	return rec
}

// oneLine flattens an error message onto one line, preserving the
// one-line-diagnostic contract even for wrapped multi-line causes.
func oneLine(err error) string {
	return strings.Join(strings.Fields(err.Error()), " ")
}
