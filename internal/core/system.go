// Package core assembles the full simulated machine — cores, private cache
// stacks, LLC slices with directories, memory controllers, and the mesh NoC
// — for one (configuration, workload) pair, runs it to completion, and
// harvests results. It also hosts the global coherence invariant checker
// used throughout the test suite.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/check"
	"pushmulticast/internal/config"
	"pushmulticast/internal/cpu"
	"pushmulticast/internal/fault"
	"pushmulticast/internal/memctrl"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/prefetch"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/trace"
	"pushmulticast/internal/workload"
)

// System is one fully wired simulated machine.
type System struct {
	Cfg   config.System `snap:"-,config"`
	Eng   *sim.Engine
	Net   *noc.Network
	St    *stats.All
	Cores []*cpu.Core
	L2s   []*cache.L2
	LLCs  []*cache.LLC
	Mems  map[noc.NodeID]*memctrl.Ctrl

	// Tracer and Checker are non-nil when the config enables tracing or
	// invariant checking (cfg.TraceN / cfg.Check).
	Tracer  *trace.Tracer
	Checker *check.Monitor

	// inj is the fault injector when the config schedules faults.
	inj *fault.Injector

	// Checkpoint/restore retains the build identity (workload name and
	// scale feed the config fingerprint) and the components Build would
	// otherwise not keep a handle on: the core barrier and the per-tile
	// prefetchers (nil where the tile has none). See snapshot.go.
	wlName  string         `snap:"-,config"`
	scale   workload.Scale `snap:"-,config"`
	barrier *cpu.Barrier
	bingos  []*prefetch.Bingo
	strides []*prefetch.Stride

	// coh is CheckCoherence's working memory, reused from sweep to sweep.
	coh cohScratch `snap:"-,scratch"`
}

// Build wires a system running the given workload at the given scale.
// Passing a zero-value Workload builds the machine without cores (protocol
// tests drive the L2s directly).
func Build(cfg config.System, wl workload.Workload, sc workload.Scale) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if wl.Validate != nil {
		// Parameterized workloads (the collective family) check their knobs
		// against the machine's core count here, before any stream is built,
		// so every entry point — Run, RunWorkload, NewMachine, the harness —
		// rejects a degenerate combination with one diagnostic line instead
		// of building a lopsided or panicking stream.
		if err := wl.Validate(cfg.Tiles()); err != nil {
			return nil, err
		}
	}
	st := stats.New()
	eng := sim.NewEngine(200_000, 500_000_000)
	eng.SetDense(cfg.DenseKernel)
	// The fault injector registers before every other component so its
	// window-boundary wakes take effect in the same cycle (the engine ticks
	// mid-step wakes only from earlier-registered components).
	var inj *fault.Injector
	if cfg.Faults != nil && len(cfg.Faults.Faults) > 0 {
		inj = fault.NewInjector(*cfg.Faults, cfg.Tiles(), st)
		inj.Register(eng)
	}
	net, err := noc.New(cfg.NoC, eng, st)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		net.SetFaults(inj)
		inj.SetWaker(func(node int) { net.WakeTile(noc.NodeID(node)) })
	}
	s := &System{Cfg: cfg, Eng: eng, Net: net, St: st, Mems: make(map[noc.NodeID]*memctrl.Ctrl),
		inj: inj, wlName: wl.Name, scale: sc}

	tiles := cfg.Tiles()
	barrier := cpu.NewBarrier(tiles)
	s.barrier = barrier
	for i := 0; i < tiles; i++ {
		id := noc.NodeID(i)
		var c *cpu.Core
		l2 := cache.NewL2(id, &s.Cfg, net, eng, st, deferredRequestor{&c})
		s.L2s = append(s.L2s, l2)
		var bingo *prefetch.Bingo
		var stride *prefetch.Stride
		if wl.Build != nil {
			stream := wl.Build(i, tiles, sc)
			c = cpu.New(id, &s.Cfg, eng, st, l2, stream, barrier)
			if cfg.Scheme.L1Bingo {
				bingo = prefetch.NewBingo(l2, cfg.BingoRegionBytes, cfg.BingoPHTEntries)
				c.L1Prefetcher = bingo
			}
			s.Cores = append(s.Cores, c)
		}
		if cfg.Scheme.L2Stride {
			stride = prefetch.NewStride(l2, cfg.StrideStreams, cfg.StrideDegree)
		}
		s.bingos = append(s.bingos, bingo)
		s.strides = append(s.strides, stride)
		s.LLCs = append(s.LLCs, cache.NewLLC(id, &s.Cfg, net, eng, st))
	}
	for _, mc := range cfg.MemControllers() {
		s.Mems[mc] = memctrl.New(mc, &s.Cfg, net, eng, st)
	}
	if cfg.Check || cfg.TraceN > 0 {
		ringN := cfg.TraceN
		if ringN == 0 {
			ringN = 256 // checker on without an explicit ring size: keep a useful tail
		}
		tr := trace.New(ringN)
		// Shard creation order is the drain order and must be deterministic:
		// NIs, routers (inside SetTracer), then LLC slices, then controllers.
		net.SetTracer(tr)
		for _, llc := range s.LLCs {
			llc.SetTraceShard(tr.NewShard())
		}
		for _, mc := range cfg.MemControllers() {
			s.Mems[mc].SetTraceShard(tr.NewShard())
		}
		s.Tracer = tr
		// The monitor registers last: the engine ticks in registration order,
		// so it drains the trace after every emitter within a cycle, on
		// either kernel.
		s.Checker = check.New(&s.Cfg, net, s.L2s, s.LLCs, s.CheckCoherence, tr)
		s.Checker.Register(eng)
	}
	return s, nil
}

// deferredRequestor lets the L2 be constructed before its core (the two
// reference each other).
type deferredRequestor struct{ c **cpu.Core }

func (d deferredRequestor) LoadDone(addr uint64, now sim.Cycle) {
	if *d.c != nil {
		(*d.c).LoadDone(addr, now)
	}
}

func (d deferredRequestor) StoreDone(addr uint64, now sim.Cycle) {
	if *d.c != nil {
		(*d.c).StoreDone(addr, now)
	}
}

func (d deferredRequestor) WakeUp() {
	if *d.c != nil {
		(*d.c).WakeUp()
	}
}

// Results summarizes one run.
type Results struct {
	// Scheme and Workload identify the run.
	Scheme   string
	Workload string
	// Cycles is the parallel-phase execution time: the cycle at which every
	// core finished.
	Cycles uint64
	// TraceHash and TraceEvents summarize the full causal event history
	// when tracing was enabled: the running FNV-1a hash over every trace
	// event in deterministic drain order, and the event count. Two runs
	// with equal (TraceHash, TraceEvents) produced identical histories —
	// the wake-driven/dense equivalence oracle.
	TraceHash   uint64
	TraceEvents uint64
	// Stats is the full counter bundle.
	Stats *stats.All
}

// L2MPKI returns the paper's L2 miss-per-kilo-instruction metric (demand +
// prefetch misses).
func (r Results) L2MPKI() float64 { return r.Stats.MPKI(r.Stats.Cache.L2Misses) }

// L1MPKI returns L1 data misses per kilo-instruction.
func (r Results) L1MPKI() float64 { return r.Stats.MPKI(r.Stats.Cache.L1Misses) }

// TotalNoCFlits returns total link-level flit traversals.
func (r Results) TotalNoCFlits() uint64 { return r.Stats.Net.TotalFlits() }

// ErrCoherence wraps coherence invariant violations.
var ErrCoherence = errors.New("coherence violation")

// ErrCanceled is reported (wrapped, test with errors.Is) when a run's context
// is canceled: the machine loop stops at the next cancellation barrier and
// the abort carries a trace tail like every other abort path, instead of the
// simulation burning CPU to completion for a caller that is gone.
var ErrCanceled = errors.New("core: run canceled")

// cancelCheckPeriod is how many cycle barriers pass between context polls.
// The stop predicate runs between every cycle; polling the context there
// would put a mutex acquisition on the per-cycle hot path, so cancellation is
// checked every cancelCheckPeriod cycles instead — still a few milliseconds
// of wall time even on a 256-core machine, and free when ctx has no deadline
// or cancel (Background's Done is nil).
const cancelCheckPeriod = 256

// canceledAt builds the ErrCanceled diagnostic for a context that fired.
func canceledAt(ctx context.Context, now sim.Cycle) error {
	return fmt.Errorf("%w at cycle %d: %v", ErrCanceled, now, context.Cause(ctx))
}

// Run executes the workload to completion and returns results. checkEvery,
// when nonzero, runs the coherence invariant checker every that many cycles
// (tests); violations abort the run.
func (s *System) Run(checkEvery uint64) (Results, error) {
	return s.RunCtx(context.Background(), checkEvery)
}

// RunCtx is Run with cooperative cancellation: the context is polled at cycle
// barriers (between cycles), and a fired context aborts the run with a wrapped
// ErrCanceled and a trace tail. Determinism is unaffected — cancellation only
// decides where the run stops, never what any cycle computes.
func (s *System) RunCtx(ctx context.Context, checkEvery uint64) (Results, error) {
	end, err := s.run(ctx, sim.NeverWake, checkEvery)
	if err != nil {
		return Results{}, err
	}
	s.St.Core.Cycles = uint64(end)
	for _, c := range s.Cores {
		s.St.Core.Instructions += c.Instructions()
		s.St.Core.StallCycles += c.StallCycles()
	}
	res := Results{Scheme: s.Cfg.Scheme.Name, Cycles: uint64(end), Stats: s.St}
	if s.Tracer != nil {
		// A safety drain: the monitor ticks last within every cycle that
		// emits, so this is normally a no-op and never reorders history.
		s.Tracer.Drain(nil)
		res.TraceHash = s.Tracer.Hash()
		res.TraceEvents = s.Tracer.Events()
	}
	return res, nil
}

// run is the machine's one run loop, behind Run and RunTo alike: it steps the
// engine until every core has finished, the clock reaches barrier
// (sim.NeverWake for none), or the run must abort — a fired context, a checker
// violation, an unrecoverable sender, a coherence sweep failure, the engine's
// watchdog or cycle limit. Every abort dumps the trace tail, and the engine's
// own are wrapped with the scheme and workload they stopped. The stop
// predicate reads machine state and never writes it, so a run paused at a
// barrier is state-identical to the same cycle of one that never pauses.
func (s *System) run(ctx context.Context, barrier sim.Cycle, checkEvery uint64) (sim.Cycle, error) {
	defer func() {
		if r := recover(); r != nil {
			s.DumpTrace()
			panic(r)
		}
	}()
	var checkErr error
	barriers := uint64(0)
	stop := func() bool {
		if s.Eng.Now() >= barrier {
			return true
		}
		if barriers++; barriers%cancelCheckPeriod == 0 && ctx.Err() != nil {
			checkErr = canceledAt(ctx, s.Eng.Now())
			return true
		}
		if s.Checker != nil && s.Checker.Err() != nil {
			checkErr = s.Checker.Err()
			return true
		}
		// A sender that exhausted its retransmissions can never be acked:
		// abort loudly with the wrapped ErrUnrecoverable and a trace tail
		// instead of letting the run spin until the watchdog fires.
		if err := s.Net.Unrecoverable(); err != nil {
			checkErr = err
			return true
		}
		if s.Cfg.Faults.Lossy() {
			for _, l2 := range s.L2s {
				if err := l2.Unrecoverable(); err != nil {
					checkErr = err
					return true
				}
			}
		}
		if checkEvery != 0 && uint64(s.Eng.Now())%checkEvery == 0 {
			if err := s.CheckCoherence(); err != nil {
				checkErr = err
				return true
			}
		}
		return s.Finished()
	}
	end, err := s.Eng.Run(stop)
	if checkErr == nil && s.Checker != nil {
		checkErr = s.Checker.Err()
	}
	if checkErr != nil {
		s.DumpTrace()
		return end, checkErr
	}
	if err != nil {
		s.DumpTrace()
		active := ""
		if s.Cfg.Faults != nil && len(s.Cfg.Faults.Faults) > 0 {
			// An aborted fault run is a graceful-degradation contract breach,
			// not (only) a protocol bug; say so up front.
			active = " (fault injection active)"
		}
		return end, fmt.Errorf("%s/%s%s: %w", s.Cfg.Scheme.Name, s.wlName, active, err)
	}
	return end, nil
}

// DumpTrace writes the retained trace tail to stderr (violations,
// deadlocks, panics). A no-op when tracing is off.
func (s *System) DumpTrace() {
	if s.Tracer == nil {
		return
	}
	s.Tracer.Drain(nil)
	s.Tracer.Dump(os.Stderr)
}

// Drain runs the machine until the network and all controllers quiesce
// (post-run cleanliness checks in tests).
func (s *System) Drain(limit sim.Cycle) error {
	start := s.Eng.Now()
	for !s.Quiescent() {
		if s.Eng.Now()-start > limit {
			// A drain timeout is a stall diagnosis like a watchdog fire; the
			// trace tail is the context that makes it debuggable.
			s.DumpTrace()
			return fmt.Errorf("system failed to drain within %d cycles", limit)
		}
		s.Eng.Step()
	}
	return nil
}

// Finished reports whether every core has retired its workload — the
// termination condition the run loop checks at cycle barriers. A paused
// machine (RunTo) uses it to decide whether another slice remains.
func (s *System) Finished() bool {
	for _, c := range s.Cores {
		if !c.Finished() {
			return false
		}
	}
	return true
}

// Quiescent reports whether no transaction is in flight anywhere.
func (s *System) Quiescent() bool {
	if !s.Net.Quiescent() {
		return false
	}
	for _, l2 := range s.L2s {
		if l2.OutstandingTransactions() {
			return false
		}
	}
	for _, llc := range s.LLCs {
		if llc.OutstandingTransactions() {
			return false
		}
	}
	for _, m := range s.Mems {
		if !m.Idle() {
			return false
		}
	}
	return true
}

// privCopy is one private S, M or SM_D copy met by the coherence sweep. The
// copies of one line are chained through next in the order the sweep met
// them (tile by tile), -1 at the end; first marks the head of a chain.
type privCopy struct {
	addr    uint64
	version uint64
	tile    noc.NodeID
	next    int32
	state   cache.State
	first   bool
}

// cohScratch is the sweep's reusable working memory: every private copy in
// the machine, and an open-addressed table from line address to the first
// and last copy of that line (index+1 into copies, 0 = empty slot). It is
// owned by the System, so a warm sweep allocates nothing and the memory
// dies with the machine.
type cohScratch struct {
	copies []privCopy
	slots  [][2]int32
}

// gather collects every private S/M/SM_D copy and chains them per line.
func (cs *cohScratch) gather(l2s []*cache.L2) {
	cs.copies = cs.copies[:0]
	for _, l2 := range l2s {
		id := l2.ID()
		l2.ForEachLine(func(l *cache.Line) {
			switch l.State {
			case cache.StateS, cache.StateM, cache.StateSMD:
				cs.copies = append(cs.copies, privCopy{addr: l.Tag, version: l.Version, tile: id, state: l.State, next: -1})
			}
		})
	}
	// At most half full, so probes are short and always end at a free slot.
	if need := 2 * len(cs.copies); len(cs.slots) < need {
		n := 1024
		for n < need {
			n *= 2
		}
		cs.slots = make([][2]int32, n)
	} else {
		clear(cs.slots)
	}
	mask := uint64(len(cs.slots) - 1)
	for i := range cs.copies {
		c := &cs.copies[i]
		h := c.addr * 0x9E3779B97F4A7C15 >> 40 & mask
		for cs.slots[h][0] != 0 && cs.copies[cs.slots[h][0]-1].addr != c.addr {
			h = (h + 1) & mask
		}
		if slot := &cs.slots[h]; slot[0] == 0 {
			c.first = true
			slot[0], slot[1] = int32(i)+1, int32(i)+1
		} else {
			cs.copies[slot[1]-1].next, slot[1] = int32(i), int32(i)+1
		}
	}
}

// CheckCoherence validates the Single-Writer-Multiple-Reader invariant and
// the data-value invariant over a global snapshot:
//
//   - at most one private cache holds a line in M;
//   - no private S copy coexists with an M copy;
//   - every stable private S copy (including the readable S data backing an
//     SM_D upgrade) matches the directory's current version whenever the
//     directory has no owner — the property a stale push would break;
//   - an M copy's version is never behind the directory's.
//
// Lines are judged in the order their first holder is met (tile by tile, way
// by way) and a line's copies in tile order, so the violation reported is the
// same on every run.
func (s *System) CheckCoherence() error {
	s.coh.gather(s.L2s)
	copies := s.coh.copies
	for i := range copies {
		if !copies[i].first {
			continue
		}
		addr := copies[i].addr
		owners, readers := 0, 0
		for j := int32(i); j >= 0; j = copies[j].next {
			if copies[j].state == cache.StateM {
				owners++
			} else {
				readers++
			}
		}
		if owners > 1 {
			return fmt.Errorf("%w: line %#x has %d M owners", ErrCoherence, addr, owners)
		}
		if owners == 1 && readers > 0 {
			return fmt.Errorf("%w: line %#x has an M owner and %d S copies", ErrCoherence, addr, readers)
		}
		d := s.LLCs[s.Cfg.HomeSlice(addr)].Line(addr)
		if d == nil {
			return fmt.Errorf("%w: line %#x cached privately but absent from the LLC", ErrCoherence, addr)
		}
		if owners == 1 {
			if c := &copies[i]; c.version < d.Version {
				return fmt.Errorf("%w: line %#x M copy at tile %d behind directory (%d < %d)",
					ErrCoherence, addr, c.tile, c.version, d.Version)
			}
			continue
		}
		// No owner among the copies: S data must be current unless the
		// directory granted ownership elsewhere (then stale S copies would
		// be an SWMR violation outright). One legal exception: the new
		// owner's own line sits in SM_D (its S data still readable) in the
		// window between the ownership grant and the DataM delivery.
		if d.State == cache.StateLM || d.State == cache.StateLMInv {
			for j := int32(i); j >= 0; j = copies[j].next {
				if c := &copies[j]; c.state != cache.StateSMD || c.tile != d.Owner {
					return fmt.Errorf("%w: line %#x has S copy at tile %d (%v) while directory in %v",
						ErrCoherence, addr, c.tile, c.state, d.State)
				}
			}
		}
		for j := int32(i); j >= 0; j = copies[j].next {
			if c := &copies[j]; c.version != d.Version {
				return fmt.Errorf("%w: line %#x stale S copy at tile %d (version %d, directory %d)",
					ErrCoherence, addr, c.tile, c.version, d.Version)
			}
		}
	}
	return nil
}
