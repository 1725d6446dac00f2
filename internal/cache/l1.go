package cache

import "pushmulticast/internal/sim"

// L1 is the private L1 data cache. It is strictly inclusive in the L2 and
// carries no coherence state of its own: the L2 back-invalidates it whenever
// a line leaves the L2, so an L1 hit is always coherent.
type L1 struct {
	arr *Array
}

// NewL1 builds an L1 data cache.
func NewL1(sizeBytes, ways int) *L1 {
	return &L1{arr: NewArray(sizeBytes, ways)}
}

// Lookup probes the L1 for a load; on a hit it returns the line version.
func (l *L1) Lookup(lineAddr uint64, now sim.Cycle) (uint64, bool) {
	if ln := l.arr.Lookup(lineAddr); ln != nil {
		ln.LastUse = now
		return ln.Version, true
	}
	return 0, false
}

// Fill installs a line (demand fill or L1 prefetch fill), silently evicting
// the LRU way if needed. L1 lines are never dirty: stores write through to
// the L2.
func (l *L1) Fill(lineAddr uint64, version uint64, now sim.Cycle) {
	if ln := l.arr.Lookup(lineAddr); ln != nil {
		ln.Version = version
		ln.LastUse = now
		return
	}
	v := l.arr.Victim(lineAddr, func(*Line) bool { return true })
	l.arr.Install(v, lineAddr, StateS, now)
	v.Version = version
}

// Update refreshes the version of a present line (store write-through).
func (l *L1) Update(lineAddr uint64, version uint64) {
	if ln := l.arr.Lookup(lineAddr); ln != nil {
		ln.Version = version
	}
}

// Invalidate removes a line (L2 back-invalidation).
func (l *L1) Invalidate(lineAddr uint64) {
	if ln := l.arr.Lookup(lineAddr); ln != nil {
		l.arr.Invalidate(ln)
	}
}

// Present reports whether the line is cached.
func (l *L1) Present(lineAddr uint64) bool { return l.arr.Lookup(lineAddr) != nil }

// ForEach visits every valid line (inclusion checks and tests).
func (l *L1) ForEach(f func(*Line)) { l.arr.ForEach(f) }
