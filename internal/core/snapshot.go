package core

import (
	"context"
	"fmt"

	"pushmulticast/internal/config"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/workload"
)

// Fingerprint derives the two configuration identities embedded in every
// snapshot header. The strict fingerprint identifies simulated machine state
// exactly: a restore whose target differs in it refuses loudly. Kernel
// selection and observability settings (dense kernel, checker, trace ring
// size) are excluded — the kernels write byte-identical snapshots of one run
// (TestSnapshotGoldenBytes takes each golden on both), and a snapshot written
// on either restores on the other to the cold run's cycles, counters and trace
// hash (TestSnapshotCrossKernelRestore); tracer/checker presence is enforced
// separately by explicit flags in the snapshot body.
//
// The fork fingerprint additionally wipes the tuning knobs a warm-start
// sweep varies (pause/resume thresholds and window, MSHR and transport
// retry timers): configurations that differ only in those
// knobs share a fork fingerprint, so one warmed snapshot can seed the whole
// sweep. A fork-restore still transfers state exactly — the approximation is
// that the warm-up phase executed under the donor's knob values, which the
// warm-start methodology notes document.
func Fingerprint(cfg config.System, wl workload.Workload, sc workload.Scale) (strict, fork string) {
	n := cfg
	n.DenseKernel = false
	n.ParallelWorkers = 0 // inert; see config.System.ParallelWorkers
	n.Check = false
	n.CheckEvery = 0
	n.TraceN = 0
	// The plan pointer is dereferenced: formatting the address would make
	// the fingerprint unstable across processes and alias nothing usefully.
	faults := ""
	if n.Faults != nil {
		faults = fmt.Sprintf("%+v", *n.Faults)
	}
	n.Faults = nil
	// A parameterized workload's knobs follow its name; the fixed generators
	// have none, and their text is the name alone.
	wlID := wl.Name
	if wl.Params != "" {
		wlID += " " + wl.Params
	}
	strict = fmt.Sprintf("cfg{%+v} faults{%s} wl{%s} scale{%v}", n, faults, wlID, sc)
	f := n
	f.TPCThreshold = 0
	f.TimeWindow = 0
	f.KnobRatioShift = 0
	f.MSHRRetryTimeout = 0
	f.NoC.RetryWindow = 0
	f.NoC.RetryTimeout = 0
	f.NoC.MaxRetries = 0
	fork = fmt.Sprintf("cfg{%+v} faults{%s} wl{%s} scale{%v}", f, faults, wlID, sc)
	return strict, fork
}

// Snapshot serializes the full machine state at the current cycle barrier
// (between engine Steps, never from inside a tick) into a versioned binary
// snapshot. Identical machine states serialize to byte-identical snapshots
// (every map is written in sorted key order), which makes snapshot.Hash of
// the result a valid run identity.
func (s *System) Snapshot() ([]byte, error) {
	if s.Checker != nil {
		if err := s.Checker.Err(); err != nil {
			return nil, fmt.Errorf("core: snapshot of a run with a pending violation: %w", err)
		}
	}
	if s.strictFP == "" {
		s.strictFP, s.forkFP = Fingerprint(s.Cfg, s.wl, s.scale)
	}
	return snapshot.Encode(s.strictFP, s.forkFP, uint64(s.Eng.Now()), s.state), nil
}

// Restore builds a fresh machine for (cfg, wl, sc) and loads the snapshot
// into it. The restoring configuration must match the snapshot's strict
// fingerprint — or, failing that, its fork fingerprint, meaning the target
// differs from the donor only in warm-start tuning knobs. Anything else
// refuses with ErrMismatch before a machine is even built. A snapshot whose
// header is accepted but whose body turns out corrupt, or to hold state this
// build lacks, fails while the fresh machine is being filled; that
// half-loaded machine is discarded, so the caller's state is untouched
// either way. A strict restore continued to completion is byte-identical
// (same trace hash) to a cold run that never snapshotted.
func Restore(data []byte, cfg config.System, wl workload.Workload, sc workload.Scale) (*System, error) {
	strict, fork := Fingerprint(cfg, wl, sc)
	c, err := snapshot.NewDecoder(data)
	if err != nil {
		return nil, err
	}
	hdr := c.Header()
	if hdr.StrictFP != strict && hdr.ForkFP != fork {
		return nil, fmt.Errorf("%w: snapshot was taken under a different machine configuration (only the identical config, or a fork differing in tuning knobs alone, can restore it)",
			snapshot.ErrMismatch)
	}
	s, err := Build(cfg, wl, sc)
	if err != nil {
		return nil, err
	}
	s.strictFP, s.forkFP = strict, fork
	if s.state(c); c.Err() != nil {
		return nil, c.Err()
	}
	return s, nil
}

// state is the machine's one section walk: every component's description in
// a fixed order, run by Snapshot to encode and by Restore to decode. Optional
// components code a presence flag first, and presence must agree: a snapshot
// that tracked state the restoring build lacks (or vice versa) cannot resume
// faithfully.
func (s *System) state(c *snapshot.Codec) {
	if !c.Decoding() {
		// The stats travel before the network: count in what sleeping
		// routers have not yet (Network.Settle) before either is written.
		s.Net.Settle()
	}
	s.Eng.State(c)
	s.St.State(c)
	s.Net.State(c)
	for i := range s.L2s {
		s.L2s[i].State(c)
		if len(s.Cores) > 0 {
			s.Cores[i].State(c)
		}
		if snapshot.Present(c, &s.bingos[i], "tile Bingo prefetcher") {
			s.bingos[i].State(c)
		}
		if snapshot.Present(c, &s.strides[i], "tile stride prefetcher") {
			s.strides[i].State(c)
		}
		s.LLCs[i].State(c)
	}
	if len(s.Cores) > 0 {
		s.barrier.State(c, s.Cores)
	}
	for _, mc := range s.Cfg.MemControllers() {
		s.Mems[mc].State(c)
	}
	if snapshot.Present(c, &s.inj, "fault injector") {
		s.inj.State(c)
	}
	if snapshot.Present(c, &s.Tracer, "tracer") {
		s.Tracer.State(c)
	}
	if snapshot.Present(c, &s.Checker, "checker") {
		s.Checker.State(c)
	}
}

// RunTo executes the workload until the engine clock reaches the barrier
// cycle, or the run's normal stopping condition fires first (the one run
// loop, with a clock bound). Both kernels stop at the barrier itself: the
// wake-driven one clamps a fast-forward across it there. Results are NOT
// harvested here — St.Core.Cycles and the instruction/stall totals accrue
// only in Run at final completion, so a pause-snapshot-continue sequence
// cannot double-count them.
func (s *System) RunTo(barrier sim.Cycle, checkEvery uint64) error {
	return s.RunToCtx(context.Background(), barrier, checkEvery)
}

// RunToCtx is RunTo with cooperative cancellation, polled at cycle barriers
// exactly like RunCtx: a fired context stops the machine loop promptly with a
// wrapped ErrCanceled instead of running to the pause barrier at full cost.
func (s *System) RunToCtx(ctx context.Context, barrier sim.Cycle, checkEvery uint64) error {
	_, err := s.run(ctx, barrier, checkEvery)
	return err
}
