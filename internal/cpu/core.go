// Package cpu approximates an aggressive out-of-order core with a simple
// bounded-window model: instructions retire at a fixed width, loads and
// stores issue without blocking until the outstanding-miss window or store
// buffer fills, and barriers synchronize all cores. The model reproduces
// the property every result in the paper depends on: throughput is limited
// by memory-level parallelism and by cache/NoC bandwidth, while short hit
// latencies are hidden.
package cpu

import (
	"pushmulticast/internal/cache"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	"pushmulticast/internal/workload"
)

// Barrier synchronizes all cores; a generation counter releases waiters. A
// release becomes visible to every core — the last arriver included — the
// cycle after it happens, independent of registration or tick order.
type Barrier struct {
	n       int `snap:"-,config"`
	arrived int
	gen     uint64
	relAt   sim.Cycle
	waiters []*sim.Handle
}

// NewBarrier returns a barrier for n cores.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// arrive registers one arrival; the last arrival advances the generation,
// records the release cycle, and wakes every parked waiter.
func (b *Barrier) arrive(h *sim.Handle, now sim.Cycle) uint64 {
	gen := b.gen
	b.arrived++
	if h != nil {
		b.waiters = append(b.waiters, h)
	}
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.relAt = now
		for i, w := range b.waiters {
			w.Wake()
			b.waiters[i] = nil
		}
		b.waiters = b.waiters[:0]
	}
	return gen
}

// status reports whether the generation a core arrived in has been released,
// whether that release is visible yet (releases take effect the cycle after
// they happen), and the release cycle.
func (b *Barrier) status(gen uint64, now sim.Cycle) (released, visible bool, relAt sim.Cycle) {
	if b.gen == gen {
		return false, false, 0
	}
	return true, now > b.relAt, b.relAt
}

// Prefetcher observes the core's demand accesses (the Bingo L1 prefetcher
// hook).
type Prefetcher interface {
	OnAccess(lineAddr uint64, now sim.Cycle)
}

// Core executes one workload stream against its private cache stack.
type Core struct {
	id      noc.NodeID      `snap:"-,wiring"`
	cfg     *config.System  `snap:"-,config"`
	eng     *sim.Engine     `snap:"-,wiring"`
	st      *stats.All      `snap:"-,wiring"`
	l2      *cache.L2       `snap:"-,wiring"`
	stream  workload.Stream `snap:"-,derived: repositioned by replaying opsConsumed ops"`
	barrier *Barrier        `snap:"-,wiring"`

	h *sim.Handle `snap:"-,wiring"`

	cur     workload.Op
	haveOp  bool
	ended   bool
	waiting bool // parked at a barrier
	myGen   uint64

	// blocked/blockedAt track a sleep entered while stalled; the wake tick
	// reconstructs the stall cycles a dense run would have counted one by one.
	blocked   bool
	blockedAt sim.Cycle `snap:"-,derived: the cycle before the barrier once stalls are settled"`

	// loadRetry marks the current load op as a retry of a rejected attempt:
	// the prefetcher already observed the access and must not see it again
	// (retry counts would otherwise depend on how often the core polls,
	// which differs between the dense and wake-driven kernels).
	loadRetry bool

	outLoads  int
	outStores int

	insts  uint64
	stalls uint64

	// opsConsumed counts stream.Next() calls; checkpoint restore replays
	// that many ops on a freshly built stream to recover its position
	// (streams are closures and cannot be serialized directly).
	opsConsumed uint64

	// L1Prefetcher, when set, observes demand loads.
	L1Prefetcher Prefetcher `snap:"-,wiring"`
}

// New builds a core and registers it with the engine.
func New(id noc.NodeID, cfg *config.System, eng *sim.Engine, st *stats.All,
	l2 *cache.L2, stream workload.Stream, barrier *Barrier) *Core {
	c := &Core{id: id, cfg: cfg, eng: eng, st: st, l2: l2, stream: stream, barrier: barrier}
	c.h = eng.Register(c)
	return c
}

// WakeUp marks the core runnable again; the L2 calls it (via cache.Requestor)
// whenever it processes a message, since any of those can free the resource a
// core is stalled on.
func (c *Core) WakeUp() { c.h.Wake() }

// Finished reports whether the core retired its whole stream and drained
// all outstanding memory operations.
func (c *Core) Finished() bool {
	return c.ended && c.outLoads == 0 && c.outStores == 0
}

// Instructions returns the retired instruction count.
func (c *Core) Instructions() uint64 { return c.insts }

// StallCycles returns cycles with zero retirement before completion.
func (c *Core) StallCycles() uint64 { return c.stalls }

// LoadDone implements cache.Requestor.
func (c *Core) LoadDone(lineAddr uint64, now sim.Cycle) {
	if c.outLoads <= 0 {
		panic("cpu: LoadDone without outstanding load")
	}
	c.outLoads--
	c.h.Wake()
}

// StoreDone implements cache.Requestor.
func (c *Core) StoreDone(lineAddr uint64, now sim.Cycle) {
	if c.outStores <= 0 {
		panic("cpu: StoreDone without outstanding store")
	}
	c.outStores--
	c.h.Wake()
}

// Tick retires up to CoreWidth instructions, issuing memory operations
// non-blocking until a structural resource fills.
func (c *Core) Tick(now sim.Cycle) {
	if c.blocked {
		c.settle(now - 1)
		c.blocked = false
	}
	if c.ended {
		c.h.Sleep()
		return
	}
	if c.waiting {
		released, visible, relAt := c.barrier.status(c.myGen, now)
		if !visible {
			c.stalls++
			if released {
				c.parkUntil(now, relAt+1)
			} else {
				c.park(now)
			}
			return
		}
		c.waiting = false
		c.haveOp = false // consume the barrier op
	}
	budget := c.cfg.CoreWidth
	issued := 0
	for budget > 0 {
		if !c.haveOp {
			c.cur = c.stream.Next()
			c.opsConsumed++
			c.haveOp = true
		}
		switch c.cur.Kind {
		case workload.OpWork:
			n := c.cur.N
			if n > budget {
				c.cur.N -= budget
				c.insts += uint64(budget)
				issued += budget
				budget = 0
				break
			}
			c.insts += uint64(n)
			issued += n
			budget -= n
			c.haveOp = false
		case workload.OpLoad:
			if c.outLoads >= c.cfg.CoreWindow {
				budget = 0
				break
			}
			line := lineOf(c.cur.Addr)
			if c.L1Prefetcher != nil && !c.loadRetry {
				c.L1Prefetcher.OnAccess(line, now)
			}
			done, accepted := c.l2.Load(line, now)
			if !accepted {
				c.loadRetry = true
				budget = 0
				break
			}
			c.loadRetry = false
			if !done {
				c.outLoads++
			}
			c.insts++
			c.st.Core.Loads++
			issued++
			budget--
			c.haveOp = false
		case workload.OpStore:
			if c.outStores >= c.cfg.StoreBuffer {
				budget = 0
				break
			}
			line := lineOf(c.cur.Addr)
			done, accepted := c.l2.Store(line, now)
			if !accepted {
				budget = 0
				break
			}
			if !done {
				c.outStores++
			}
			c.insts++
			c.st.Core.Stores++
			issued++
			budget--
			c.haveOp = false
		case workload.OpBarrier:
			if c.outLoads > 0 || c.outStores > 0 {
				budget = 0
				break
			}
			c.myGen = c.barrier.arrive(c.h, now)
			c.waiting = true
			budget = 0
		case workload.OpEnd:
			if c.outLoads > 0 || c.outStores > 0 {
				budget = 0
				break
			}
			c.ended = true
			budget = 0
		}
	}
	if issued > 0 {
		c.eng.Progress()
	} else if !c.ended {
		c.stalls++
	}
	switch {
	case c.ended:
		c.h.Sleep()
	case c.waiting:
		// If this was the last arrival the generation already advanced and
		// nothing would wake us, so sleep only until the release turns
		// visible next cycle; otherwise park until the release wakes us.
		if released, _, relAt := c.barrier.status(c.myGen, now); released {
			c.parkUntil(now, relAt+1)
		} else {
			c.park(now)
		}
	case issued == 0:
		// Stalled on a structural resource; LoadDone/StoreDone or the L2's
		// WakeUp (any processed message may free an MSHR, the writeback
		// buffer, or a transient victim) unblocks us.
		c.park(now)
	}
}

// settle counts the cycles a blocked core slept through, up to and including
// through, as stalls, and moves blockedAt there. A dense run ticks the core
// every cycle and would have counted each of them (the unblocking event is
// what wakes the core, so none of them could have issued).
func (c *Core) settle(through sim.Cycle) {
	if c.blocked {
		c.stalls += uint64(through - c.blockedAt)
	}
	c.blockedAt = through
}

// park records the cycle the core went idle and sleeps; the stall counter for
// the skipped span is reconstructed on wake.
func (c *Core) park(now sim.Cycle) {
	c.blocked = true
	c.blockedAt = now
	c.h.Sleep()
}

// parkUntil is park with a known wake cycle (a barrier release turning
// visible), so no external Wake is needed.
func (c *Core) parkUntil(now, at sim.Cycle) {
	c.blocked = true
	c.blockedAt = now
	c.h.SleepUntil(at)
}

func lineOf(addr uint64) uint64 {
	return addr &^ (noc.LineBytes - 1)
}
