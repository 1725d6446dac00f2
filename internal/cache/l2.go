package cache

import (
	"cmp"
	"fmt"
	"slices"

	"pushmulticast/internal/coherence"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// Requestor is the core-side completion interface: the L2 calls it when a
// load or store issued through Load/Store finishes.
type Requestor interface {
	LoadDone(lineAddr uint64, now sim.Cycle)
	StoreDone(lineAddr uint64, now sim.Cycle)
}

// l2MSHR tracks one outstanding L2 miss (or upgrade).
type l2MSHR struct {
	addr   uint64
	loads  int // demand loads waiting
	stores int // stores waiting
	// issuedAt is when the current request (GetS/GetM) left the controller;
	// under lossy fault plans an MSHR quiet past MSHRRetryTimeout reissues
	// it (see checkMSHRTimers). Fault-free runs never read it.
	issuedAt sim.Cycle
	// backoff doubles the retry timeout per consecutive reissue (capped):
	// a flat timer congestively collapses — when load pushes fill latency
	// past the timeout, every MSHR reissues at once, the duplicate-response
	// traffic pushes latency further out, and the storm feeds itself.
	backoff uint8
	// prefetchL1 requests an L1 fill on completion (Bingo prefetches).
	prefetchL1 bool
	// prefetch marks an MSHR with no demand waiters at allocation time.
	prefetch bool
	// recallPending records a recall invalidation that overtook the DataM
	// this MSHR is waiting for: once the data arrives and the waiting
	// stores perform, the line is returned to the directory (InvAckData
	// with recallEpoch) and invalidated instead of being kept in M.
	recallPending bool
	recallEpoch   uint32
}

// doneEvt is a scheduled core completion for an L2 hit.
type doneEvt struct {
	addr  uint64
	at    sim.Cycle
	store bool
}

// L2 is a private, unified, coherent L2 cache controller. It is the
// coherence point of a tile: the L1 is its strictly-inclusive child and the
// LLC directory its parent. It implements the MSI private-cache FSM plus
// the paper's push handling rules (guaranteed acceptance for outstanding
// same-line misses, deadlock/redundancy/coherence drops otherwise) and the
// push pause knob.
type L2 struct {
	id   noc.NodeID     `snap:"-,wiring"`
	cfg  *config.System `snap:"-,config"`
	eng  *sim.Engine    `snap:"-,wiring"`
	st   *stats.All     `snap:"-,wiring"`
	arr  Array
	l1   *L1
	core Requestor `snap:"-,wiring"`

	h *sim.Handle `snap:"-,wiring"`
	// wakeCore, when the Requestor supports it, marks the core runnable
	// after this L2 processed any message: each one may free the resource
	// (MSHR, writeback slot, transient victim) a core is stalled on.
	wakeCore func() `snap:"-,wiring"`

	// mshr is the MSHR file, L2MSHRs slots allocated at build: the live
	// entries are mshr[:len(mshr)], in no particular order (a retired entry's
	// slot takes the last live one), so a lookup scans only the live ones and
	// a miss allocates nothing. Every order the controller acts in is address
	// order.
	mshr []l2MSHR
	// wb is the writeback buffer: the address of each line a PutM left with,
	// pinned until the directory's WBAck. A pinned address is not resident,
	// and no miss or push may bring it back before the WBAck.
	wb   []uint64
	inq  delayQueue
	out  outbox
	pend []doneEvt
	knob pauseKnob

	// lossy arms the MSHR retry timers and the duplicate-response tolerance
	// (a reissued request can produce two responses); set only when the
	// fault plan schedules message loss.
	lossy       bool      `snap:"-,config"`
	mshrTimeout sim.Cycle `snap:"-,config"`
	// retryAt is a lower bound on the earliest MSHR retryDeadline: lowered
	// wherever an issuedAt is written, rebuilt exactly by each walk of the
	// file, so neither checkMSHRTimers nor reschedule walks the file on a
	// tick before it. A retired MSHR leaves it stale low, which costs one
	// spurious walk. Zero after a restore, so the first tick walks.
	retryAt sim.Cycle `snap:"-,derived: lower bound on the MSHRs' earliest retryDeadline, rebuilt by the first walk"`
	// timeoutScratch collects overdue MSHRs for sorting: slot order is
	// arbitrary, the reissue order must be the address order.
	timeoutScratch []*l2MSHR `snap:"-,scratch"`

	// rejKind/rejAddr remember a load (1) or store (2) the controller
	// rejected with accepted=false. The core's next attempt for the same
	// line is a retry of that architectural access, not a new one, so the
	// access counters are not incremented again. Without this, counter
	// totals would depend on how many times the core polls while stalled —
	// which differs between the dense and wake-driven kernels.
	rejKind uint8
	rejAddr uint64

	// OnMiss, when set, is invoked on every demand L2 miss (the stride
	// prefetcher's training hook).
	OnMiss func(lineAddr uint64, now sim.Cycle) `snap:"-,wiring"`
	// OnEvent, when set, is invoked as each event reaches the controller —
	// Load, Store, Prefetch, Timeout (an MSHR reissue) or a message type —
	// with the line's state before it is handled: I when absent, WB when
	// absent and pinned for writeback (the transition coverage table).
	OnEvent func(state, event string) `snap:"-,wiring"`
}

// NewL2 builds the tile's private cache stack (L1 + L2), its arrays on the
// machine's L1 and L2 pools, and attaches it to the network.
func NewL2(id noc.NodeID, cfg *config.System, net *noc.Network, eng *sim.Engine, st *stats.All, core Requestor, pools Pools) *L2 {
	c := &L2{
		id:   id,
		cfg:  cfg,
		eng:  eng,
		st:   st,
		arr:  pools.L2.newArray(),
		l1:   NewL1(pools.L1),
		core: core,
		mshr: make([]l2MSHR, 0, cfg.L2MSHRs),
		inq:  delayQueue{latency: sim.Cycle(cfg.L2Latency)},
		out:  outbox{ni: net.NI(id), cfg: &cfg.NoC, unit: stats.UnitL2},
		knob: pauseKnob{
			tpcThreshold: uint32(cfg.TPCThreshold),
			ratioShift:   cfg.KnobRatioShift,
			enabled:      cfg.Scheme.Knob,
		},
	}
	if cfg.Faults.Lossy() {
		c.lossy = true
		c.mshrTimeout = sim.Cycle(cfg.MSHRRetryTimeout)
	}
	net.Attach(id, stats.UnitL2, c)
	c.h = eng.Register(c)
	c.out.h = c.h
	if w, ok := core.(interface{ WakeUp() }); ok {
		c.wakeCore = w.WakeUp
	}
	return c
}

// ID returns the tile id.
func (c *L2) ID() noc.NodeID { return c.id }

// L1 returns the tile's L1 cache (prefetcher and test access).
func (c *L2) L1() *L1 { return c.l1 }

// Receive implements noc.Endpoint.
func (c *L2) Receive(pkt *noc.Packet, now sim.Cycle) {
	c.h.WakeAt(c.inq.push(pkt, now))
}

// Tick fires matured core completions, processes incoming protocol messages,
// and drains the outbox.
func (c *L2) Tick(now sim.Cycle) {
	if len(c.pend) > 0 {
		kept := c.pend[:0]
		for _, d := range c.pend {
			if d.at > now {
				kept = append(kept, d)
				continue
			}
			c.eng.Progress()
			if d.store {
				c.core.StoreDone(d.addr, now)
			} else {
				c.core.LoadDone(d.addr, now)
			}
		}
		c.pend = kept
	}
	handled := false
	for i := 0; i < 2 && !c.out.congested(); i++ {
		pkt := c.inq.pop(now)
		if pkt == nil {
			break
		}
		c.eng.Progress()
		c.handle(coherence.From(pkt), now)
		// The L2 never retains delivered packets past handle (handlers work
		// on the message value), so replicas can rejoin the free list.
		c.out.ni.Recycle(pkt)
		handled = true
	}
	if c.lossy {
		c.checkMSHRTimers(now)
	}
	c.out.drain(now)
	if handled && c.wakeCore != nil {
		c.wakeCore()
	}
	c.reschedule()
}

// reschedule reports quiescence: with an empty outbox, the L2's next possible
// action is the earlier of its head input maturing and its next scheduled
// core completion. A non-empty outbox keeps it awake to retry injection.
func (c *L2) reschedule() {
	if len(c.out.pkts) != 0 {
		return
	}
	next := sim.NeverWake
	if at, ok := c.inq.nextReady(); ok {
		next = at
	}
	for _, d := range c.pend {
		if d.at < next {
			next = d.at
		}
	}
	if c.lossy && c.retryAt < next {
		// A dropped response means no message ever arrives to wake us: the
		// retry timer is the only way out, so it must bound the sleep.
		next = c.retryAt
	}
	if next == sim.NeverWake {
		c.h.Sleep()
	} else {
		c.h.SleepUntil(next)
	}
}

// checkMSHRTimers reissues the request of every MSHR that has been quiet for
// MSHRRetryTimeout cycles (lossy runs only): the request or its response may
// have been dropped below the transport's own recovery horizon. Reissues are
// protocol-idempotent — the directory re-serves duplicate GetS/GetM, and the
// duplicate-response paths in handleDataS/handleDataM tolerate the second
// answer. The file is walked only once retryAt has come due; overdue MSHRs
// are collected and sorted by address first, and the walk ends by rebuilding
// retryAt exactly.
func (c *L2) checkMSHRTimers(now sim.Cycle) {
	if now < c.retryAt {
		return
	}
	due := c.timeoutScratch[:0]
	for i := range c.mshr {
		if m := &c.mshr[i]; now >= m.retryDeadline(c.mshrTimeout) {
			due = append(due, m)
		}
	}
	c.timeoutScratch = due
	slices.SortFunc(due, func(a, b *l2MSHR) int { return cmp.Compare(a.addr, b.addr) })
	for _, m := range due {
		addr := m.addr
		c.observe(addr, "Timeout")
		// Restamp unconditionally so a skipped reissue does not spin the
		// timer every tick.
		m.issuedAt = now
		if m.recallPending {
			// The directory owes us the DataM a recall is already chasing;
			// reissuing GetM would open a second ownership episode.
			continue
		}
		// A live MSHR always holds its line's way, in one of these states.
		switch c.arr.Lookup(addr).State {
		case StateISD, StateISDI:
			if c.incomingDataPending(addr) {
				continue // the fill is already queued; no reissue needed
			}
			c.sendGetS(addr, m.prefetch)
		case StateIMD, StateSMD:
			c.send(coherence.GetM, coherence.Msg{Addr: addr})
		}
		if m.backoff < 32 {
			m.backoff++
		}
		if m.backoff >= mshrMaxRetries {
			// Requests are outside the transport's retransmit protection (the
			// filter may consume them in-network), so their loud-failure path
			// lives here, not in the NI.
			c.h.Fail(fmt.Errorf("cache: L2 %d addr %#x: %d request reissues unanswered: %w",
				c.id, addr, m.backoff, noc.ErrUnrecoverable))
		}
		c.st.Cache.MSHRTimeouts++
		c.eng.Progress()
	}
	c.retryAt = sim.NeverWake
	for i := range c.mshr {
		c.armRetry(&c.mshr[i])
	}
}

// armRetry lowers retryAt to m's retry deadline; it runs wherever m.issuedAt
// is written outside a walk.
func (c *L2) armRetry(m *l2MSHR) {
	if d := m.retryDeadline(c.mshrTimeout); d < c.retryAt {
		c.retryAt = d
	}
}

// mshrMaxRetries is the MSHR reissue budget: consecutive unanswered reissues
// beyond it fail the run with ErrUnrecoverable. With exponential
// backoff the budget spans ~320 base timeouts — far beyond any congestion
// transient, so tripping it means the line's request or response is being
// discarded persistently (loss rate above the forward-progress ceiling).
const mshrMaxRetries = 10

// retryDeadline is when the MSHR's next reissue is due: the base timeout
// doubled per consecutive reissue, capped at 64x.
func (m *l2MSHR) retryDeadline(base sim.Cycle) sim.Cycle {
	b := m.backoff
	if b > 6 {
		b = 6
	}
	return m.issuedAt + base<<b
}

// Load issues a demand load. done=true means it completed immediately (L1
// hit); accepted=false means a resource stall and the core must retry.
func (c *L2) Load(lineAddr uint64, now sim.Cycle) (done, accepted bool) {
	c.observe(lineAddr, "Load")
	retry := c.retried(rejLoad, lineAddr)
	if _, ok := c.l1.Lookup(lineAddr, now); ok {
		return true, true
	}
	if !retry {
		c.st.Cache.L1Misses++
	}
	line := c.arr.Lookup(lineAddr)
	if line != nil && (line.State == StateS || line.State == StateM) {
		line.LastUse = now
		c.touchPushed(line)
		c.l1.Fill(lineAddr, line.Version, now)
		c.complete(lineAddr, false, now)
		return false, true
	}
	return false, c.miss(line, lineAddr, rejLoad, now)
}

// mshrFull reports whether every slot of the MSHR file is live.
func (c *L2) mshrFull() bool { return len(c.mshr) >= c.cfg.L2MSHRs }

// findMSHR returns the live MSHR for addr, or nil.
func (c *L2) findMSHR(addr uint64) *l2MSHR {
	for i := range c.mshr {
		if c.mshr[i].addr == addr {
			return &c.mshr[i]
		}
	}
	return nil
}

// newMSHR claims a free slot of the file (the caller checked mshrFull) for
// m, a request just issued, and arms its retry timer.
func (c *L2) newMSHR(m l2MSHR) *l2MSHR {
	if c.mshrFull() {
		panic(fmt.Sprintf("L2 %d: MSHR file full allocating %#x", c.id, m.addr))
	}
	c.mshr = append(c.mshr, m)
	p := &c.mshr[len(c.mshr)-1]
	c.armRetry(p)
	return p
}

// freeMSHR retires m: the last live entry moves into its slot. Pointers to
// that entry go stale, so no caller holds one across a retirement.
func (c *L2) freeMSHR(m *l2MSHR) {
	last := len(c.mshr) - 1
	*m = c.mshr[last]
	c.mshr = c.mshr[:last]
}

// Store issues a store. Stores write through to the L1 and perform at the
// L2 once ownership is held.
func (c *L2) Store(lineAddr uint64, now sim.Cycle) (done, accepted bool) {
	c.observe(lineAddr, "Store")
	c.retried(rejStore, lineAddr) // forget the refusal this store may retry
	line := c.arr.Lookup(lineAddr)
	if line != nil && line.State == StateM {
		line.LastUse = now
		c.touchPushed(line)
		line.Version++
		c.l1.Update(lineAddr, line.Version)
		c.complete(lineAddr, true, now)
		return false, true
	}
	return false, c.miss(line, lineAddr, rejStore, now)
}

// The kinds of access rejKind remembers.
const (
	rejLoad  uint8 = 1
	rejStore uint8 = 2
)

// retried reports whether an access of kind to lineAddr retries the one the
// controller refused last, and forgets that refusal.
func (c *L2) retried(kind uint8, lineAddr uint64) bool {
	r := c.rejKind == kind && c.rejAddr == lineAddr
	c.rejKind = 0
	return r
}

// complete schedules the core's completion of a hit, L2Latency from now.
func (c *L2) complete(lineAddr uint64, store bool, now sim.Cycle) {
	at := now + sim.Cycle(c.cfg.L2Latency)
	c.pend = append(c.pend, doneEvt{lineAddr, at, store})
	c.h.WakeAt(at)
}

// miss is the one miss path of Load and Store (kind rejLoad or rejStore) on
// line, the lookup of lineAddr: it merges the access into the line's
// in-flight MSHR, upgrades an S line for a store, or starts a miss. It
// refuses the access on a writeback-pinned line, a full MSHR file or a set
// without a victim, remembering it so the core's retry is not counted again.
func (c *L2) miss(line *Line, lineAddr uint64, kind uint8, now sim.Cycle) bool {
	store := kind == rejStore
	ok := true
	switch {
	case line != nil && line.State.Transient():
		m := c.findMSHR(lineAddr)
		if store {
			m.stores++
		} else {
			m.loads++
		}
		m.prefetch = false
	case line != nil:
		// A store to an S line upgrades it, keeping the S data readable while
		// GetM is outstanding.
		if ok = !c.mshrFull(); ok {
			line.State = StateSMD
			c.newMSHR(l2MSHR{addr: lineAddr, stores: 1, issuedAt: now})
			c.send(coherence.GetM, coherence.Msg{Addr: lineAddr})
		}
	case store:
		ok = !slices.Contains(c.wb, lineAddr) && c.allocMiss(lineAddr, now, 0, 1, false)
	default:
		ok = !slices.Contains(c.wb, lineAddr) && c.allocMiss(lineAddr, now, 1, 0, false)
	}
	if !ok {
		c.rejKind, c.rejAddr = kind, lineAddr
	}
	return ok
}

// Prefetch issues a prefetch read; it is dropped silently under resource
// pressure or when the line is already present or in flight. fillL1 marks
// L1-targeted (Bingo) prefetches.
func (c *L2) Prefetch(lineAddr uint64, fillL1 bool, now sim.Cycle) {
	c.observe(lineAddr, "Prefetch")
	if line := c.arr.Lookup(lineAddr); line != nil {
		if fillL1 && (line.State == StateS || line.State == StateM) && !c.l1.Present(lineAddr) {
			c.l1.Fill(lineAddr, line.Version, now)
		}
		return
	}
	if slices.Contains(c.wb, lineAddr) {
		return
	}
	c.allocMiss(lineAddr, now, 0, 0, fillL1)
}

// allocMiss allocates an MSHR and a victim way, issues the appropriate
// request, and returns false on a resource stall.
func (c *L2) allocMiss(lineAddr uint64, now sim.Cycle, loads, stores int, prefetchL1 bool) bool {
	if c.mshrFull() {
		return false
	}
	victim := c.arr.Victim(lineAddr, func(l *Line) bool { return !l.State.Transient() })
	if victim == nil {
		return false
	}
	c.evict(victim, now)
	c.st.Cache.L2Misses++
	m := c.newMSHR(l2MSHR{addr: lineAddr, loads: loads, stores: stores,
		prefetchL1: prefetchL1, prefetch: loads == 0 && stores == 0,
		issuedAt: now})
	if stores > 0 && loads == 0 {
		c.arr.Install(victim, lineAddr, StateIMD, now)
		c.send(coherence.GetM, coherence.Msg{Addr: lineAddr})
	} else {
		c.arr.Install(victim, lineAddr, StateISD, now)
		// Fill-queue snoop: if a push (or data response) for this line is
		// already waiting in the input queue, the miss rides it instead of
		// issuing a redundant request — standard response-queue checking,
		// and the last gap a same-line request could otherwise slip
		// through to re-trigger a multicast.
		if !c.incomingDataPending(lineAddr) {
			c.sendGetS(lineAddr, m.prefetch)
		}
		if !m.prefetch && c.OnMiss != nil {
			c.OnMiss(lineAddr, now)
		}
	}
	return true
}

// incomingDataPending reports whether a shared-data fill for the line is
// already sitting in the controller's input queue.
func (c *L2) incomingDataPending(lineAddr uint64) bool {
	for _, d := range c.inq.live() {
		if d.pkt.Addr != lineAddr {
			continue
		}
		if t := coherence.From(d.pkt).Type; t == coherence.PushData || t == coherence.DataS {
			return true
		}
	}
	return false
}

// evict removes a stable line from the array (and the L1), issuing a PutM
// writeback for modified data.
func (c *L2) evict(l *Line, now sim.Cycle) {
	if l.State == StateI {
		return
	}
	addr := c.arr.Tag(l)
	if l.State.Transient() {
		panic(fmt.Sprintf("L2 %d: evicting transient line %#x in %v", c.id, addr, l.State))
	}
	c.classifyEvict(l)
	c.l1.Invalidate(addr)
	c.st.Cache.L2Evictions++
	if l.State == StateM {
		c.wb = append(c.wb, addr)
		c.send(coherence.PutM, coherence.Msg{Addr: addr, Version: l.Version})
	}
	c.arr.Invalidate(l)
}

// classifyEvict records the Unused outcome for pushed-but-never-accessed
// lines leaving the cache.
func (c *L2) classifyEvict(l *Line) {
	if l.Pushed && !l.Accessed {
		c.st.Cache.PushOutcomes[stats.PushUnused]++
	}
}

// touchPushed records the first access to a pushed line: the push turned a
// future miss into a hit.
func (c *L2) touchPushed(l *Line) {
	if l.Pushed && !l.Accessed {
		l.Accessed = true
		c.knob.onUseful()
		c.st.Cache.PushOutcomes[stats.PushMissToHit]++
	}
}

// send queues a message of type t from this tile to the line's home slice,
// where every message an L2 sends goes.
func (c *L2) send(t coherence.MsgType, m coherence.Msg) {
	m.Type, m.Requester = t, c.id
	c.out.send(m, noc.OneDest(c.cfg.HomeSlice(m.Addr)), stats.UnitLLC)
}

func (c *L2) sendGetS(lineAddr uint64, prefetch bool) {
	needPush := c.knob.needPush()
	if !needPush {
		c.st.Cache.PausedPushRequests++
	}
	c.send(coherence.GetS, coherence.Msg{Addr: lineAddr, NeedPush: needPush, Prefetch: prefetch})
}

// handle dispatches one incoming protocol message.
func (c *L2) handle(m coherence.Msg, now sim.Cycle) {
	c.observe(m.Addr, m.Type.String())
	switch m.Type {
	case coherence.DataS:
		c.handleDataS(m, now)
	case coherence.DataM:
		c.handleDataM(m, now)
	case coherence.Inv:
		c.handleInv(m, now)
	case coherence.PushData:
		c.handlePush(m, now)
	case coherence.WBAck:
		c.wb = slices.DeleteFunc(c.wb, func(a uint64) bool { return a == m.Addr })
	default:
		panic(fmt.Sprintf("L2 %d: unexpected message %v", c.id, m))
	}
}

// observe reports event on lineAddr to OnEvent, if set.
func (c *L2) observe(lineAddr uint64, event string) {
	if c.OnEvent == nil {
		return
	}
	state := "I"
	if l := c.arr.Peek(lineAddr); l != nil {
		state = l.State.String()
	} else if slices.Contains(c.wb, lineAddr) {
		state = "WB"
	}
	c.OnEvent(state, event)
}

// completeLoads fires all waiting loads of an MSHR.
func (c *L2) completeLoads(m *l2MSHR, now sim.Cycle) {
	for i := 0; i < m.loads; i++ {
		c.core.LoadDone(m.addr, now)
	}
	m.loads = 0
}

// fill installs shared data in line, which waits for it in IS_D (or in
// IS_D_I, for a push), fills the L1 for waiting loads or an L1 prefetch and
// completes the loads; then it retires ms, or starts the write ms also
// waits for.
func (c *L2) fill(line *Line, ms *l2MSHR, version uint64, now sim.Cycle) {
	line.State = StateS
	line.Version = version
	line.LastUse = now
	if ms.loads > 0 || ms.prefetchL1 {
		c.l1.Fill(ms.addr, version, now)
	}
	c.completeLoads(ms, now)
	if ms.stores > 0 {
		line.State = StateSMD
		c.requestM(ms, now)
	} else {
		c.freeMSHR(ms)
	}
}

// requestM starts a fresh GetM episode for ms's line.
func (c *L2) requestM(ms *l2MSHR, now sim.Cycle) {
	ms.issuedAt = now
	ms.backoff = 0
	c.armRetry(ms)
	c.send(coherence.GetM, coherence.Msg{Addr: ms.addr})
}

func (c *L2) handleDataS(m coherence.Msg, now sim.Cycle) {
	if m.Reset {
		c.knob.reset()
	}
	ms := c.findMSHR(m.Addr)
	if ms == nil {
		return // duplicate response; a push already served this miss
	}
	line := c.arr.Lookup(m.Addr)
	if line == nil {
		panic(fmt.Sprintf("L2 %d: DataS for %#x with MSHR but no reserved way", c.id, m.Addr))
	}
	switch line.State {
	case StateISD:
		c.fill(line, ms, m.Version, now)
	case StateISDI:
		// Use-once: satisfy the waiting loads with the received value, then
		// discard (the line was invalidated while the fetch was in flight).
		c.completeLoads(ms, now)
		if ms.stores > 0 {
			line.State = StateIMD
			c.requestM(ms, now)
		} else {
			c.arr.Invalidate(line)
			c.freeMSHR(ms)
		}
	default:
		if c.lossy {
			return // duplicate DataS from a reissued GetS
		}
		panic(fmt.Sprintf("L2 %d: DataS for %#x in %v", c.id, m.Addr, line.State))
	}
}

func (c *L2) handleDataM(m coherence.Msg, now sim.Cycle) {
	ms := c.findMSHR(m.Addr)
	line := c.arr.Lookup(m.Addr)
	if ms == nil || line == nil {
		if c.lossy {
			return // duplicate DataM from a reissued GetM; episode done
		}
		panic(fmt.Sprintf("L2 %d: DataM for %#x without transaction", c.id, m.Addr))
	}
	switch line.State {
	case StateIMD, StateSMD:
		line.State = StateM
		line.Version = m.Version
		line.LastUse = now
		for i := 0; i < ms.stores; i++ {
			line.Version++
			c.core.StoreDone(m.Addr, now)
		}
		ms.stores = 0
		if ms.loads > 0 {
			c.l1.Fill(m.Addr, line.Version, now)
		} else {
			c.l1.Update(m.Addr, line.Version)
		}
		c.completeLoads(ms, now)
		if ms.recallPending {
			// A recall overtook this DataM: return the written data to the
			// directory and invalidate (use-once ownership).
			c.l1.Invalidate(m.Addr)
			v := line.Version
			c.arr.Invalidate(line)
			c.send(coherence.InvAckData, coherence.Msg{Addr: m.Addr, Version: v, Epoch: ms.recallEpoch})
		}
		c.freeMSHR(ms)
	default:
		if c.lossy {
			return // duplicate DataM; the first already installed the line
		}
		panic(fmt.Sprintf("L2 %d: DataM for %#x in %v", c.id, m.Addr, line.State))
	}
}

func (c *L2) handleInv(m coherence.Msg, now sim.Cycle) {
	ack, v := coherence.InvAck, uint64(0)
	switch line := c.arr.Lookup(m.Addr); {
	case line == nil:
		// Silently evicted earlier, or the writeback raced with the
		// invalidation: the PutM already carries the data.
	case m.Recall && (line.State == StateSMD || line.State == StateIMD):
		// The directory granted us ownership and now wants the line back;
		// the DataM is still in flight. Defer: use the data once it arrives,
		// then return it (handleDataM).
		ms := c.findMSHR(m.Addr)
		ms.recallPending, ms.recallEpoch = true, m.Epoch
		return
	case line.State == StateS:
		c.classifyEvict(line)
		c.l1.Invalidate(m.Addr)
		c.arr.Invalidate(line)
	case line.State == StateM:
		c.l1.Invalidate(m.Addr)
		ack, v = coherence.InvAckData, line.Version
		c.arr.Invalidate(line)
	case line.State == StateSMD:
		// Another writer won; our upgrade becomes a full write miss.
		c.l1.Invalidate(m.Addr)
		line.State = StateIMD
	case line.State == StateISD:
		line.State = StateISDI
	}
	// In IM_D and IS_D_I the tile is not a sharer: it acknowledges defensively.
	c.send(ack, coherence.Msg{Addr: m.Addr, Version: v, Epoch: m.Epoch})
}

func (c *L2) handlePush(m coherence.Msg, now sim.Cycle) {
	if c.cfg.Scheme.Protocol == config.ProtoPushAck {
		c.send(coherence.PushAck, coherence.Msg{Addr: m.Addr})
	}
	demand := m.Requester == c.id
	if !demand {
		// Only speculative copies train the pause knob and the Fig 12
		// breakdown; the copy embedded for the demand requester is its
		// ordinary response.
		c.knob.onPush()
	}
	outcome, resolved := c.acceptPush(m, now, !demand)
	if demand {
		return
	}
	if resolved {
		c.st.Cache.PushOutcomes[outcome]++
	}
	// Installed pushes are classified later: Miss-to-Hit on first access
	// (touchPushed) or Unused at eviction (classifyEvict).
}

// acceptPush applies the §III-B push handling rules. It returns the Fig 12
// outcome category when it is already known (drops and Early-Resp);
// resolved=false means the line was installed speculatively and will be
// classified on first access or eviction.
func (c *L2) acceptPush(m coherence.Msg, now sim.Cycle, speculative bool) (stats.PushOutcome, bool) {
	if slices.Contains(c.wb, m.Addr) {
		return stats.PushCoherenceDrop, true
	}
	line := c.arr.Lookup(m.Addr)
	if line != nil {
		switch line.State {
		case StateS, StateM:
			return stats.PushRedundancyDrop, true
		case StateIMD, StateSMD:
			// Conflicting write upgrade in flight.
			return stats.PushCoherenceDrop, true
		case StateISD, StateISDI:
			// Guaranteed acceptance: the push serves the outstanding read
			// miss (Early-Resp). In ISDI the push was serialized after the
			// invalidating write, so installing shared state is safe.
			line.Pushed = speculative
			line.Accessed = true
			if speculative {
				c.knob.onUseful()
			}
			c.fill(line, c.findMSHR(m.Addr), m.Version, now)
			return stats.PushEarlyResp, true
		}
	}
	// Line absent: speculative install if the set has a clean, stable
	// victim. A push never displaces modified data — forcing a writeback
	// for speculative state would let mispredicted pushes trash a core's
	// store working set (the pollution Fig 12 is about).
	victim := c.arr.Victim(m.Addr, func(l *Line) bool { return l.State == StateS })
	if victim == nil {
		return stats.PushDeadlockDrop, true
	}
	c.evict(victim, now)
	c.arr.Install(victim, m.Addr, StateS, now)
	victim.Version = m.Version
	victim.Pushed = speculative
	if c.cfg.Scheme.PushFillL1 {
		// §VI multi-level extension: propagate the push one level up.
		c.l1.Fill(m.Addr, m.Version, now)
	}
	return 0, false
}

// ForEachLine exposes the L2 array, line by line with each line's address,
// to coherence checkers and tests.
func (c *L2) ForEachLine(f func(addr uint64, l *Line)) { c.arr.ForEach(f) }

// Line returns the L2's entry for lineAddr, or nil, without marking it
// (checker use).
func (c *L2) Line(lineAddr uint64) *Line { return c.arr.Peek(lineAddr) }

// Array returns the L2's array (checker use).
func (c *L2) Array() *Array { return &c.arr }

// Audit checks the tag indexes of the L2 and its L1 against their lines, that
// retryAt bounds every MSHR's retry deadline from below (a bound above one
// would sleep through its reissue), and the writeback buffer.
func (c *L2) Audit() error { return c.audit((*Array).audit) }

// AuditMarked is Audit with the tag indexes checked only on the ways handed
// out since the arrays' last ClearMarks, each against its set.
func (c *L2) AuditMarked() error { return c.audit((*Array).auditMarked) }

func (c *L2) audit(index func(*Array) error) error {
	if err := index(&c.arr); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if err := index(&c.l1.arr); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	for i := range c.mshr {
		if m := &c.mshr[i]; m.retryDeadline(c.mshrTimeout) < c.retryAt {
			return fmt.Errorf("L2: retry bound %d is above MSHR %#x's deadline %d", c.retryAt, m.addr, m.retryDeadline(c.mshrTimeout))
		}
	}
	return c.auditWB()
}

// auditWB checks that a writeback-pinned address is pinned once and is not
// resident. Restore refuses a snapshot that fails it.
func (c *L2) auditWB() error {
	for i, a := range c.wb {
		if slices.Contains(c.wb[:i], a) {
			return fmt.Errorf("L2: line %#x is pinned for writeback twice", a)
		}
		if l := c.arr.Peek(a); l != nil {
			return fmt.Errorf("L2: line %#x is pinned for writeback but resident in %v", a, l.State)
		}
	}
	return nil
}

// ReadOutstanding reports whether a read transaction for the line is still
// waiting on data (IS_D or IS_D_I). The filter-soundness checker uses it:
// a filtered request whose issuer is no longer waiting was already served.
func (c *L2) ReadOutstanding(lineAddr uint64) bool {
	if line := c.arr.Peek(lineAddr); line != nil {
		return line.State == StateISD || line.State == StateISDI
	}
	return false
}

// IncomingDataPending exposes the fill-queue snoop to the checker: a
// shared-data fill for the line is sitting in the input queue.
func (c *L2) IncomingDataPending(lineAddr uint64) bool { return c.incomingDataPending(lineAddr) }

// OutstandingTransactions reports whether any MSHR or writeback entry is
// open (quiescence checks).
func (c *L2) OutstandingTransactions() bool { return len(c.mshr) != 0 || len(c.wb) != 0 }

// Knob exposes pause-knob state for tests: (TPC, UPC, needPush).
func (c *L2) Knob() (uint32, uint32, bool) { return c.knob.tpc, c.knob.upc, c.knob.needPush() }
