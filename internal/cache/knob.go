package cache

import "pushmulticast/internal/noc"

// pauseKnob is the per-L2 push pause mechanism (§III-D, Fig 8): two counters
// track received and useful pushes; when the useful ratio falls below
// 1/2^ratioShift after a monitoring period of tpcThreshold pushes, the L2
// clears the need_push bit in subsequent requests to ask the LLC to exclude
// it from pushing.
type pauseKnob struct {
	tpc, upc     uint32
	tpcThreshold uint32 `snap:"-,config"`
	ratioShift   uint   `snap:"-,config"`
	enabled      bool   `snap:"-,config"`
}

// counterMax is the 10-bit counter capacity from Table I; on overflow both
// counters are halved, preserving the ratio.
const counterMax = 1 << 10

// onPush records a received push (installed or dropped).
func (k *pauseKnob) onPush() {
	if !k.enabled {
		return
	}
	k.tpc++
	if k.tpc >= counterMax {
		k.tpc >>= 1
		k.upc >>= 1
	}
}

// onUseful records a useful push: one that served an outstanding read miss
// or was accessed before eviction.
func (k *pauseKnob) onUseful() {
	if !k.enabled {
		return
	}
	k.upc++
}

// needPush computes the feedback bit carried in GetS requests. During the
// monitoring period (TPC below the threshold) pushing stays enabled; after
// it, pushing is requested only while UPC >= TPC >> ratioShift, the paper's
// shift-and-compare implementation of the ratio test.
func (k *pauseKnob) needPush() bool {
	if !k.enabled {
		return true
	}
	if k.tpc < k.tpcThreshold {
		return true
	}
	return k.upc >= k.tpc>>k.ratioShift
}

// reset clears both counters; triggered by the LLC's resume-phase reset flag
// (and by context switches, which the simulator does not model).
func (k *pauseKnob) reset() {
	k.tpc, k.upc = 0, 0
}

// resumeKnob is the per-LLC-slice push resume mechanism (§III-D, Fig 9): a
// Push Disabled Requester bit map plus a time-window counter alternating
// between a Disable-Accepting phase and a Resume phase.
type resumeKnob struct {
	pdr     noc.DestSet
	window  int `snap:"-,config"`
	counter int
	resume  bool // true during the Resume phase
	enabled bool `snap:"-,config"`
}

func newResumeKnob(window int, enabled bool) resumeKnob {
	return resumeKnob{window: window, counter: window, enabled: enabled}
}

// tickN advances the time-window counter by n cycles, toggling the phase each
// time it expires. The wake-driven LLC uses it to catch up after sleeping
// through idle cycles, keeping the phase sequence identical to a dense run's,
// which advances it one cycle a tick.
func (k *resumeKnob) tickN(n int) {
	if !k.enabled || n <= 0 {
		return
	}
	if n < k.counter {
		k.counter -= n
		return
	}
	n -= k.counter // cycles left after the first expiry
	toggles := 1 + n/k.window
	k.counter = k.window - n%k.window
	if toggles&1 == 1 {
		k.resume = !k.resume
	}
}

// onRequest applies a request's need_push feedback. During the
// Disable-Accepting phase the requester is added to or removed from the
// PDRMap according to the bit; during the Resume phase additions are
// blocked and the requester is removed.
func (k *resumeKnob) onRequest(req noc.NodeID, needPush bool) {
	if !k.enabled {
		return
	}
	if needPush || k.resume {
		k.pdr = k.pdr.Remove(req)
	} else {
		k.pdr = k.pdr.Add(req)
	}
}

// resetFlagFor reports whether a unicast reply to req should carry the
// counter-reset flag (resume phase, previously disabled requester), and
// performs the PDRMap removal.
func (k *resumeKnob) resetFlagFor(req noc.NodeID) bool {
	if !k.enabled || !k.resume || !k.pdr.Has(req) {
		return false
	}
	k.pdr = k.pdr.Remove(req)
	return true
}

// pushable removes from dests the requesters currently excluded from pushes.
func (k *resumeKnob) pushable(dests noc.DestSet) noc.DestSet {
	if !k.enabled {
		return dests
	}
	return dests.Subtract(k.pdr)
}

// pushDisabled reports whether req is currently excluded from pushes.
func (k *resumeKnob) pushDisabled(req noc.NodeID) bool {
	return k.enabled && k.pdr.Has(req)
}
