package prefetch

import (
	"pushmulticast/internal/cache"
	"pushmulticast/internal/sim"
)

// strideEntry is one detected access stream.
type strideEntry struct {
	lastAddr uint64
	stride   int64
	conf     int
	lastUse  sim.Cycle
	valid    bool
}

// Stride is the Table I L2 stride prefetcher: 16 streams, up to 4 prefetches
// per stream. Streams are allocated by miss-address proximity (the model has
// no PCs); two consecutive misses at a constant line stride arm a stream.
type Stride struct {
	l2      *cache.L2 `snap:"-,wiring"`
	entries []strideEntry
	degree  int `snap:"-,config"`
	issued  uint64
}

// NewStride builds a stride prefetcher trained by the L2's demand misses.
// It installs itself as the L2's OnMiss hook.
func NewStride(l2 *cache.L2, streams, degree int) *Stride {
	s := &Stride{l2: l2, entries: make([]strideEntry, streams), degree: degree}
	l2.OnMiss = s.onMiss
	return s
}

// onMiss trains on a demand L2 miss and issues prefetches down an armed
// stream.
func (s *Stride) onMiss(lineAddr uint64, now sim.Cycle) {
	const window = 16 * 64 // proximity window for stream matching (bytes)
	var match *strideEntry
	for i := range s.entries {
		e := &s.entries[i]
		if !e.valid {
			continue
		}
		d := int64(lineAddr) - int64(e.lastAddr)
		if d > -window && d < window && d != 0 {
			match = e
			break
		}
	}
	if match == nil {
		// Allocate the LRU entry.
		victim := &s.entries[0]
		for i := range s.entries {
			e := &s.entries[i]
			if !e.valid {
				victim = e
				break
			}
			if e.lastUse < victim.lastUse {
				victim = e
			}
		}
		*victim = strideEntry{lastAddr: lineAddr, lastUse: now, valid: true}
		return
	}
	d := int64(lineAddr) - int64(match.lastAddr)
	if d == match.stride {
		match.conf++
	} else {
		match.stride = d
		match.conf = 1
	}
	match.lastAddr = lineAddr
	match.lastUse = now
	if match.conf < 2 {
		return
	}
	// Prefetch `degree` lines starting `strideDistance` strides ahead so
	// the stream runs in front of the demand window.
	const strideDistance = 8
	for k := strideDistance; k < strideDistance+s.degree; k++ {
		addr := int64(lineAddr) + match.stride*int64(k)
		if addr <= 0 {
			break
		}
		s.issued++
		s.l2.Prefetch(uint64(addr), false, now)
	}
}

// Issued returns the number of prefetches issued.
func (s *Stride) Issued() uint64 { return s.issued }
