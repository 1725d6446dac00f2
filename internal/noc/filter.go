package noc

import "pushmulticast/internal/sim"

// filterEntry is one slot of the coherent in-network filter. It mirrors a
// snoop-filter entry: the line address is the tag and the destination bit
// vector is the content (§III-C). An entry is registered when a push head
// flit computes its output ports and is de-registered lazily after the push
// tail has traversed the output link, so a request already in flight on that
// link is still caught on arrival.
type filterEntry struct {
	valid bool
	addr  uint64
	dests DestSet
	// clearAt, when clearPending, is the cycle at which the entry dies.
	// Re-registration before that cycle resets clearPending, so a stale
	// scheduled clear can never kill a fresh entry: the clear has no
	// identity of its own, only the (clearPending, clearAt) pair, and
	// register rewrites both.
	clearPending bool
	clearAt      sim.Cycle
}

func (e *filterEntry) live(now sim.Cycle) bool {
	return e.valid && (!e.clearPending || now < e.clearAt)
}

// filterBank holds a router's filters. Following Fig 7b, each output port
// has a designated filter per input port, with one entry per input data
// virtual channel of that port: slot (outPort, inPort, dataVC), stored
// flattened in one contiguous slice so lookups walk a single cache-friendly
// range instead of chasing nested slice headers.
type filterBank struct {
	dataVCs int `snap:"-,config"`
	entries []filterEntry
	// activeCnt[p] counts valid entries at output port p with no pending
	// clear; aliveUntil[p] upper-bounds the last cycle any pending-clear
	// entry at p can still be live (monotone, never lowered). Together they
	// prove "no live entry at p" without scanning — lookups and
	// invalidation-stall checks run every congested cycle, so the common
	// empty case must be O(1).
	activeCnt  [NumPorts]int       `snap:"-,derived: the valid entries of a port with no clear pending"`
	aliveUntil [NumPorts]sim.Cycle `snap:"-,derived: an upper bound on the port's pending clears"`
}

func newFilterBank(dataVCs int) *filterBank {
	return &filterBank{
		dataVCs: dataVCs,
		entries: make([]filterEntry, NumPorts*NumPorts*dataVCs),
	}
}

// slot returns the entry for (outPort, inPort, dataVC).
func (fb *filterBank) slot(outPort, inPort, dataVC int) *filterEntry {
	return &fb.entries[(outPort*NumPorts+inPort)*fb.dataVCs+dataVC]
}

// register installs a push's address and per-output destination subset in the
// output port's filter slot for (inPort, dataVC). Filter Registration in
// Fig 7b.
func (fb *filterBank) register(outPort, inPort, dataVC int, addr uint64, dests DestSet) {
	e := fb.slot(outPort, inPort, dataVC)
	if !e.valid || e.clearPending {
		fb.activeCnt[outPort]++
	}
	e.valid = true
	e.addr = addr
	e.dests = dests
	e.clearPending = false
}

// scheduleClear lazily de-registers the slot at the given cycle (Filter
// De-registration; lazy to cover the link delay).
func (fb *filterBank) scheduleClear(outPort, inPort, dataVC int, at sim.Cycle) {
	e := fb.slot(outPort, inPort, dataVC)
	if !e.valid {
		return
	}
	if !e.clearPending {
		fb.activeCnt[outPort]--
	}
	e.clearPending = true
	e.clearAt = at
	if at > fb.aliveUntil[outPort] {
		fb.aliveUntil[outPort] = at
	}
}

// derive restates the liveness accounting from the entries. aliveUntil only
// bounds the pending clears from above (scheduleClear never lowers it), so a
// restore stores the exact bound — dead answers the same either way — and an
// audit lets slack pass.
func (fb *filterBank) derive(b *rebuild) {
	perPort := NumPorts * fb.dataVCs
	var activeCnt [NumPorts]int
	var aliveUntil [NumPorts]sim.Cycle
	for i := range fb.entries {
		switch e, p := &fb.entries[i], i/perPort; {
		case !e.valid:
		case !e.clearPending:
			activeCnt[p]++
		case e.clearAt > aliveUntil[p]:
			aliveUntil[p] = e.clearAt
		}
	}
	restate(b, &fb.activeCnt, activeCnt, "filter activeCnt")
	for p, until := range aliveUntil {
		if !b.audit || fb.aliveUntil[p] < until {
			restate(b, &fb.aliveUntil[p], until, "filter aliveUntil")
		}
	}
}

// dead reports that no entry at port p can be live at cycle now: no entry is
// registered without a pending clear, and every pending clear has matured.
// aliveUntil is an upper bound, so a true result is exact and a false result
// merely falls back to the scan.
func (fb *filterBank) dead(p int, now sim.Cycle) bool {
	return fb.activeCnt[p] == 0 && now >= fb.aliveUntil[p]
}

// lookup implements Filter Lookup: an arriving read request at input port
// inPort checks whether a live push covering (addr, requester) is registered
// at that port, meaning the push travels the reverse direction and already
// carries the requester's response.
func (fb *filterBank) lookup(inPort int, addr uint64, requester NodeID, now sim.Cycle) bool {
	if fb.dead(inPort, now) {
		return false
	}
	base := inPort * NumPorts * fb.dataVCs
	for k := 0; k < NumPorts*fb.dataVCs; k++ {
		e := &fb.entries[base+k]
		if e.live(now) && e.addr == addr && e.dests.Has(requester) {
			return true
		}
	}
	return false
}

// hasAddr reports whether any live entry for addr is registered at the given
// output port; OrdPush stalls an invalidation at switch allocation while this
// holds, enforcing push-before-invalidation delivery order (§III-F).
func (fb *filterBank) hasAddr(outPort int, addr uint64, now sim.Cycle) bool {
	if fb.dead(outPort, now) {
		return false
	}
	base := outPort * NumPorts * fb.dataVCs
	for k := 0; k < NumPorts*fb.dataVCs; k++ {
		e := &fb.entries[base+k]
		if e.live(now) && e.addr == addr {
			return true
		}
	}
	return false
}
