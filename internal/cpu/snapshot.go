package cpu

import (
	"slices"

	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/workload"
)

// State describes the core's retirement state. The workload stream is a
// closure and cannot travel; instead the Next() call count does, and decoding
// replays that many ops on the freshly built stream — streams are pure
// functions of (workload, core, tiles, scale), so the replayed stream is
// positioned exactly where the saved one was.
//
// The stall count and the compute a core sleeps through are settled to the
// cycle before the barrier first, where a dense run holds them, so the cycle
// a blocked or computing core went to sleep does not travel. Settling changes
// no later total.
func (core *Core) State(c *snapshot.Codec) {
	c.Section("cpu.core")
	core.settle(core.eng.Now() - 1)
	core.settleWork(core.eng.Now() - 1)
	snapshot.AsU8(c, &core.cur.Kind)
	c.U64(&core.cur.Addr)
	c.Int(&core.cur.N)
	c.Bool(&core.haveOp)
	c.Bool(&core.ended)
	c.Bool(&core.waiting)
	c.U64(&core.myGen)
	c.Bool(&core.blocked)
	c.Bool(&core.loadRetry)
	c.Int(&core.outLoads)
	c.Int(&core.outStores)
	c.U64(&core.insts)
	c.U64(&core.stalls)
	c.U64(&core.opsConsumed)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	// The saved cur is authoritative (a partially retired OpWork has its N
	// decremented), so replayed ops are discarded. A core never calls Next
	// again after OpEnd, so a count reaching past it is not one this stream
	// produced — and would otherwise make restore spin on an ended stream.
	for i := uint64(1); i <= core.opsConsumed; i++ {
		if core.stream.Next().Kind == workload.OpEnd && i != core.opsConsumed {
			c.Corrupt("core %d consumed %d ops but its stream ends after %d", core.id, core.opsConsumed, i)
			return
		}
	}
}

// State describes the barrier: arrival count, generation, release cycle, and
// the parked waiters (as indices into the core list, in arrival order).
func (b *Barrier) State(c *snapshot.Codec, cores []*Core) {
	c.Section("cpu.barrier")
	c.Count(b.n, "barrier cores")
	c.Int(&b.arrived)
	c.U64(&b.gen)
	snapshot.AsU64(c, &b.relAt)
	snapshot.Slice(c, &b.waiters, func(h **sim.Handle) {
		idx := slices.IndexFunc(cores, func(core *Core) bool { return core.h == *h })
		if idx < 0 && !c.Decoding() {
			panic("cpu: barrier waiter handle belongs to no core")
		}
		*h = cores[c.Index(idx, len(cores), "barrier waiter index")].h
	})
}
