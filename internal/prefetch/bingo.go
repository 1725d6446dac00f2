// Package prefetch implements the baseline configuration's hardware
// prefetchers from Table I: a Bingo-style spatial prefetcher at the L1 data
// cache [4] and a stride prefetcher at the L2.
package prefetch

import (
	"pushmulticast/internal/cache"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
)

// bingoRegion tracks the access footprint of one spatial region currently
// being observed (Bingo's accumulation table).
type bingoRegion struct {
	region    uint64
	footprint uint64
	lastUse   sim.Cycle
}

// Bingo is a simplified Bingo spatial prefetcher: it records per-region
// access footprints in a pattern history table and, on re-entry to a known
// region, prefetches the recorded footprint into the L1/L2. Regular
// re-scanned working sets (the paper's workloads) hit with near-perfect
// accuracy, which is what makes L1Bingo-L2Stride a strong baseline.
type Bingo struct {
	l2          *cache.L2 `snap:"-,wiring"`
	regionShift uint      `snap:"-,config"`
	linesPerReg uint      `snap:"-,config"`
	active      []bingoRegion
	pht         map[uint64]uint64 // region -> footprint bitmap
	phtCap      int               `snap:"-,config"`
	phtOrder    []uint64          // FIFO eviction order

	issued, useful uint64
}

// NewBingo builds a Bingo prefetcher feeding the given L2 (with L1 fills).
func NewBingo(l2 *cache.L2, regionBytes, phtEntries int) *Bingo {
	shift := uint(0)
	for 1<<shift < regionBytes {
		shift++
	}
	return &Bingo{
		l2:          l2,
		regionShift: shift,
		linesPerReg: uint(regionBytes / noc.LineBytes),
		active:      make([]bingoRegion, 0, 8),
		pht:         make(map[uint64]uint64),
		phtCap:      phtEntries,
	}
}

// OnAccess implements cpu.Prefetcher: it observes every demand load.
func (b *Bingo) OnAccess(lineAddr uint64, now sim.Cycle) {
	region := lineAddr >> b.regionShift
	lineIdx := (lineAddr / noc.LineBytes) & uint64(b.linesPerReg-1)
	for i := range b.active {
		if b.active[i].region == region {
			b.active[i].footprint |= 1 << lineIdx
			b.active[i].lastUse = now
			return
		}
	}
	// Region trigger: commit the coldest tracked region and start tracking
	// this one; replay a recorded footprint if we have seen the region.
	if len(b.active) >= cap(b.active) {
		cold := 0
		for i := range b.active {
			if b.active[i].lastUse < b.active[cold].lastUse {
				cold = i
			}
		}
		b.commit(b.active[cold])
		b.active[cold] = bingoRegion{region: region, footprint: 1 << lineIdx, lastUse: now}
	} else {
		b.active = append(b.active, bingoRegion{region: region, footprint: 1 << lineIdx, lastUse: now})
	}
	if fp, ok := b.pht[region]; ok {
		b.replay(region, fp, lineAddr, now)
	}
	// Lookahead: also replay the next region's recorded footprint so the
	// prefetcher runs ahead of the demand window on streaming access
	// patterns, as an aggressive spatial prefetcher does.
	if fp, ok := b.pht[region+1]; ok {
		b.replay(region+1, fp, lineAddr, now)
	}
}

// replay prefetches a region's recorded footprint.
func (b *Bingo) replay(region uint64, fp uint64, trigger uint64, now sim.Cycle) {
	base := region << b.regionShift
	for i := uint(0); i < b.linesPerReg; i++ {
		if fp&(1<<i) == 0 {
			continue
		}
		addr := base + uint64(i)*noc.LineBytes
		if addr == trigger {
			continue
		}
		b.issued++
		b.l2.Prefetch(addr, true, now)
	}
}

// commit records a finished region's footprint in the PHT.
func (b *Bingo) commit(r bingoRegion) {
	if r.region == 0 && r.footprint == 0 {
		return
	}
	if _, ok := b.pht[r.region]; !ok {
		if len(b.pht) >= b.phtCap {
			oldest := b.phtOrder[0]
			b.phtOrder = b.phtOrder[1:]
			delete(b.pht, oldest)
		}
		b.phtOrder = append(b.phtOrder, r.region)
	}
	b.pht[r.region] |= r.footprint
}

// Issued returns the number of prefetches issued.
func (b *Bingo) Issued() uint64 { return b.issued }
