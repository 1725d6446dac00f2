package pushmulticast

import (
	"context"

	"pushmulticast/internal/core"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/workload"
)

// Checkpoint/restore surface. A Machine is a built simulation that can be
// paused at a cycle barrier, serialized into a snapshot, and resumed — in
// this process or another — with byte-identical results: a restored run
// continued to completion reports the same cycles, counters, and trace hash
// as a cold run that never paused.
//
// Snapshots carry two config fingerprints. The strict fingerprint must match
// for an exact resume. The fork fingerprint ignores tuning knobs (pause/
// resume thresholds, coalescing window, retry timers), so one warmed
// snapshot can seed a whole knob sweep (one NewRun(cfg, wl, sc, snap) per
// knob point); such a fork is still an exact state transfer, but the warm-up
// ran under the donor's knob values.

// ErrSnapshotMismatch wraps every refusal to restore a snapshot: wrong
// format version, a config fingerprint differing from the restoring machine,
// or tracer/checker/fault-injector presence disagreeing. Test with
// errors.Is.
var ErrSnapshotMismatch = snapshot.ErrMismatch

// ErrSnapshotCorrupt wraps decode failures on a snapshot whose header was
// accepted: truncation, section desync, or a trailer-hash mismatch.
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// Machine wraps one built simulation for pause/snapshot/resume workflows.
// The one-shot Run/RunWorkload entry points remain the simpler path when no
// checkpointing is needed.
type Machine struct {
	sys *core.System
	wl  Workload
}

// NewMachine builds (but does not run) a simulation of the workload on the
// configuration.
func NewMachine(cfg Config, wl Workload, sc Scale) (*Machine, error) {
	sys, err := core.Build(cfg, wl, sc)
	if err != nil {
		return nil, err
	}
	return &Machine{sys: sys, wl: wl}, nil
}

// WorkloadByName resolves a registry workload (see WorkloadNames).
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// Now returns the machine's current cycle.
func (m *Machine) Now() uint64 { return uint64(m.sys.Eng.Now()) }

// RunTo advances the simulation until the clock reaches the given cycle (or
// the workload finishes first), on either kernel exactly there: the
// wake-driven one clamps a fast-forward across the cycle to it. The paused
// trajectory is state-identical to an unpaused run at every cycle.
func (m *Machine) RunTo(cycle uint64) error { return m.sys.RunTo(sim.Cycle(cycle), 0) }

// RunToCtx is RunTo with cooperative cancellation: the context is polled at
// cycle barriers, and a fired context stops the machine loop promptly with a
// wrapped ErrCanceled (trace tail included) instead of burning CPU to the
// barrier for a caller that is gone.
func (m *Machine) RunToCtx(ctx context.Context, cycle uint64) error {
	return m.sys.RunToCtx(ctx, sim.Cycle(cycle), 0)
}

// Snapshot serializes the machine's full state. It must be called while the
// machine is paused (after NewMachine or RunTo, never concurrently with
// Finish). Identical states yield byte-identical snapshots.
func (m *Machine) Snapshot() ([]byte, error) { return m.sys.Snapshot() }

// Done reports whether the workload has already retired on every core — the
// run loop's own termination condition, queryable while the machine is
// paused. A periodic-checkpoint loop uses it to stop slicing once the next
// RunTo would have nothing left to run.
func (m *Machine) Done() bool { return m.sys.Finished() }

// Finish runs the simulation to completion and returns its results. The
// machine is spent afterwards.
func (m *Machine) Finish() (Results, error) { return m.FinishCtx(context.Background()) }

// FinishCtx is Finish with cooperative cancellation, polled at cycle barriers
// like RunToCtx.
func (m *Machine) FinishCtx(ctx context.Context) (Results, error) {
	res, err := m.sys.RunCtx(ctx, 0)
	if err != nil {
		return Results{}, err
	}
	res.Workload = m.wl.Name
	return res, nil
}

// RestoreMachine builds a fresh machine for (cfg, wl, sc) and loads the
// snapshot into it. The config must match the snapshot's strict fingerprint,
// or differ from it only in warm-start tuning knobs (fork fingerprint);
// anything else fails with ErrSnapshotMismatch before a machine is built. A
// payload that turns out corrupt fails with ErrSnapshotCorrupt while the
// fresh machine is being filled; that machine is discarded, never returned.
func RestoreMachine(data []byte, cfg Config, wl Workload, sc Scale) (*Machine, error) {
	sys, err := core.Restore(data, cfg, wl, sc)
	if err != nil {
		return nil, err
	}
	return &Machine{sys: sys, wl: wl}, nil
}

// SnapshotHash returns the snapshot's FNV-1a content identity — the value
// the run memo keys warm-started runs by, so a warm and a cold run of the
// same configuration can never alias.
func SnapshotHash(data []byte) uint64 { return snapshot.Hash(data) }

// SnapshotCycle returns the cycle at which a snapshot was taken. It
// validates the container — magic, format version, trailer hash — but decodes
// no state, so whatever it accepts is structurally a snapshot this build
// reads.
func SnapshotCycle(data []byte) (uint64, error) {
	c, err := snapshot.NewDecoder(data)
	if err != nil {
		return 0, err
	}
	return c.Header().Cycle, nil
}
