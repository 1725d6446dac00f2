// Package pushmulticast is the public API of the Push Multicast simulator, a
// Go reproduction of "Push Multicast: A Speculative and Coherent
// Interconnect for Mitigating Manycore CPU Communication Bottleneck"
// (HPCA 2025).
//
// The package wraps the internal simulator substrates (cycle engine, mesh
// NoC with the coherent in-network filter, MSI coherence with the PushAck
// and OrdPush extensions, cache hierarchy, core model, prefetchers, and
// workload generators) behind three things:
//
//   - configuration: Default16/Default64 plus the scheme constructors
//     (Baseline, Coalesce, MSP, PushAck, OrdPush, and the Fig 20 ablations);
//   - execution: Run / RunWorkload, returning Results;
//   - the experiment harness: Figures, the registry of the paper's tables
//     and figures, and RunFigure, which regenerates one as a Table.
//
// A minimal use:
//
//	cfg := pushmulticast.Default16().WithScheme(pushmulticast.OrdPush())
//	res, err := pushmulticast.Run(cfg, "cachebw", pushmulticast.ScaleQuick)
package pushmulticast

import (
	"context"
	"fmt"
	"strings"

	"pushmulticast/internal/config"
	"pushmulticast/internal/core"
	"pushmulticast/internal/fault"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/workload"
)

// Config is the full machine configuration (Table I). See Default16 and
// Default64 for the paper's presets.
type Config = config.System

// Scheme is one evaluated design point (baseline, Push Multicast variant,
// or ablation).
type Scheme = config.Scheme

// Results bundles one run's execution time and counters.
type Results = core.Results

// Stats is the counter bundle inside Results.
type Stats = stats.All

// Workload is a named access-stream generator.
type Workload = workload.Workload

// Scale selects input sizing for workload generators.
type Scale = workload.Scale

// Input scales. Quick preserves the paper's working-set-to-cache ratios at
// a fraction of the cost when paired with ScaledConfig; Full uses unscaled
// Table I caches.
const (
	ScaleTiny  = workload.ScaleTiny
	ScaleQuick = workload.ScaleQuick
	ScaleFull  = workload.ScaleFull
)

// Default16 returns the Table I 16-core (4x4 mesh) configuration.
func Default16() Config { return config.Default16() }

// Default64 returns the Table I 64-core (8x8 mesh) configuration.
func Default64() Config { return config.Default64() }

// Default256 returns the scaled-up 256-core (16x16 mesh) configuration used
// by the manycore scaling studies.
func Default256() Config { return config.Default256() }

// ScaledConfig shrinks the configuration's caches by the standard quick-run
// factor so ScaleQuick inputs exert the same pressure full inputs exert on
// the full caches.
func ScaledConfig(cfg Config) Config { return cfg.Scaled(16) }

// Scheme constructors (see config package for details).
func Baseline() Scheme   { return config.Baseline() }
func NoPrefetch() Scheme { return config.NoPrefetch() }
func Coalesce() Scheme   { return config.Coalesce() }
func MSP() Scheme        { return config.MSP() }
func PushAck() Scheme    { return config.PushAck() }
func OrdPush() Scheme    { return config.OrdPush() }

// Fig 20 ablation lattice.
func AblationPush() Scheme                { return config.AblationPush() }
func AblationPushMulticast() Scheme       { return config.AblationPushMulticast() }
func AblationPushMulticastFilter() Scheme { return config.AblationPushMulticastFilter() }
func AblationFull() Scheme                { return config.AblationFull() }

// SchemeByName resolves a scheme by its result-row name (case-insensitive;
// "baseline" is accepted as an alias of the prefetching baseline). The
// pushsim CLI and the simd campaign service both resolve user-supplied
// scheme names through it; unknown names get a one-line diagnostic listing
// nothing — the caller's context already names the offender.
func SchemeByName(name string) (Scheme, error) {
	all := []Scheme{
		Baseline(), NoPrefetch(), Coalesce(), MSP(), PushAck(), OrdPush(),
		AblationPush(), AblationPushMulticast(), AblationPushMulticastFilter(),
		PushPrefetch(), PredictivePush(), DeepPush(),
	}
	for _, s := range all {
		if strings.EqualFold(s.Name, name) ||
			(strings.EqualFold(name, "baseline") && s.Name == "L1Bingo-L2Stride") {
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("unknown scheme %q", name)
}

// Fault-injection surface (see internal/fault for the determinism and
// graceful-degradation contracts).

// FaultPlan is a seeded, deterministic fault schedule. Set Config.Faults (or
// ExpOptions.Faults) to enable injection for a run or campaign.
type FaultPlan = fault.Plan

// Fault is one scheduled fault window inside a FaultPlan.
type Fault = fault.Fault

// FaultKind selects the injected failure mode.
type FaultKind = fault.Kind

// Fault kinds.
const (
	FaultLinkStall  = fault.LinkStall
	FaultRouterSlow = fault.RouterSlow
	FaultVCJitter   = fault.VCJitter
	FaultInjSpike   = fault.InjSpike
	FaultFilterDrop = fault.FilterDrop
	FaultMsgDrop    = fault.MsgDrop
	FaultMsgDup     = fault.MsgDup
	FaultMsgCorrupt = fault.MsgCorrupt
)

// MaxLossPerMille is the highest per-mille message-loss rate for which the
// forward-progress contract holds: at or below it, every run completes with
// correct results; above it, a run may abort loudly with ErrUnrecoverable.
const MaxLossPerMille = fault.MaxLossPerMille

// ErrUnrecoverable is reported (wrapped, test with errors.Is) when a lossy
// run exceeds the recovery layer's retry budget: a message stayed unacked
// through MaxRetries retransmissions. The run aborts with a trace tail
// instead of hanging.
var ErrUnrecoverable = noc.ErrUnrecoverable

// GenerateFaultPlan derives a reproducible random fault plan for a machine
// with the given tile count. intensity in [0,1] scales both the number of
// faults and their outage durations; 0 yields an empty plan.
func GenerateFaultPlan(tiles int, seed uint64, intensity float64) FaultPlan {
	return fault.GeneratePlan(tiles, seed, intensity)
}

// GenerateLossyPlan builds a whole-run lossy-interconnect plan: every tile's
// NI drops arriving messages at ratePerMille/1000 probability, and
// duplicates and corrupts them at half that rate each. The NoC's end-to-end
// recovery layer (sequence numbers, acks, bounded retransmit windows) is
// armed automatically and the run's results are unaffected by the loss —
// only slower. Rates above MaxLossPerMille void the forward-progress
// contract: runs may fail with ErrUnrecoverable.
func GenerateLossyPlan(tiles int, seed uint64, ratePerMille int) FaultPlan {
	return fault.GenerateLossyPlan(tiles, seed, ratePerMille)
}

// Stream-building surface for user-defined workloads.

// Op is one operation of a core's instruction stream.
type Op = workload.Op

// Stream produces a core's operation sequence.
type Stream = workload.Stream

// StreamFunc adapts a function to Stream.
type StreamFunc = workload.StreamFunc

// Stream operation kinds.
const (
	OpWork    = workload.OpWork
	OpLoad    = workload.OpLoad
	OpStore   = workload.OpStore
	OpBarrier = workload.OpBarrier
	OpEnd     = workload.OpEnd
)

// SharedBase is the base address of the shared data segment used by the
// bundled workloads; user workloads placing read-shared data here get the
// Fig 4 tracing for free.
const SharedBase = 1 << 30

// LineBytes is the cache line size: user workloads stride by it to touch
// distinct lines.
const LineBytes = noc.LineBytes

// PrivateBase returns the base address of a core's private data segment.
func PrivateBase(core int) uint64 { return workload.PrivateBase(core) }

// Workloads returns the full registry in the paper's order (Table II).
func Workloads() []Workload { return workload.Registry() }

// WorkloadNames lists every bundled workload name: the Table II registry in
// figure order, then the collective family.
func WorkloadNames() []string { return workload.Names() }

// Collective-communication workload family (not part of the paper's
// Table II set): ring AllReduce, tree Broadcast, ring ReduceScatter, and a
// producer–consumer pipeline, modelling DNN gradient aggregation and
// serving fan-out — the one-producer/many-consumer traffic push multicast
// targets. RunFigure(ctx, "collective", ...) is the comparison figure.

// CollectiveParams parameterizes the collective workloads: sharer count,
// fan-out/radix/ring channels, chunk granularity, payload size, and
// iteration count. Zero fields select defaults; invalid combinations are
// rejected with one-line diagnostics when the run is built.
type CollectiveParams = workload.CollectiveParams

// CollectiveWorkloads returns the collective family with default
// parameters.
func CollectiveWorkloads() []Workload { return workload.Collectives() }

// CollectiveWorkload builds the named collective ("allreduce", "broadcast",
// "reducescatter", "prodcons") with explicit parameters.
func CollectiveWorkload(name string, p CollectiveParams) (Workload, error) {
	return workload.Collective(name, p)
}

// ErrCanceled is reported (wrapped, test with errors.Is) when a run's
// context fires: the machine loop stops at the next cancellation barrier
// with a trace tail instead of simulating to completion for a caller that
// is gone. See RunWorkloadCtx, Machine.RunToCtx, and CampaignRun.
var ErrCanceled = core.ErrCanceled

// Run simulates the named workload on the configuration and returns its
// results.
func Run(cfg Config, workloadName string, sc Scale) (Results, error) {
	wl, err := workload.ByName(workloadName)
	if err != nil {
		return Results{}, err
	}
	return RunWorkload(cfg, wl, sc)
}

// RunWorkload simulates a workload value (including user-defined ones) on
// the configuration.
func RunWorkload(cfg Config, wl Workload, sc Scale) (Results, error) {
	return RunWorkloadCtx(context.Background(), cfg, wl, sc)
}

// RunWorkloadCtx is RunWorkload with cooperative cancellation: the context
// is polled at cycle barriers, and a fired context aborts the run with a
// wrapped ErrCanceled. Cancellation never changes what any simulated cycle
// computes — only where the run stops — so determinism is unaffected.
func RunWorkloadCtx(ctx context.Context, cfg Config, wl Workload, sc Scale) (Results, error) {
	m, err := NewMachine(cfg, wl, sc)
	if err != nil {
		return Results{}, err
	}
	return m.FinishCtx(ctx)
}
