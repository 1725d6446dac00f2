package cache

import (
	"fmt"
	"slices"

	"pushmulticast/internal/noc"
)

// sharerPredictor is the §VI "General Push Multicast" extension: a small
// per-slice table, decoupled from the directory, that remembers the sharer
// set of lines evicted from the LLC. When such a line is refetched from
// memory, the home can speculatively push the fill to its remembered
// sharers — extending push multicast to LLC misses, which the base design
// cannot cover because eviction destroys the directory entry.
type sharerPredictor struct {
	entries map[uint64]noc.DestSet
	order   []uint64 // the keys of entries, oldest first: FIFO replacement
	cap     int      `snap:"-,config"`
}

func newSharerPredictor(capacity int) *sharerPredictor {
	return &sharerPredictor{entries: make(map[uint64]noc.DestSet), cap: capacity}
}

// remember records an evicted line's sharer set; single-sharer lines are
// not worth a prediction.
func (p *sharerPredictor) remember(addr uint64, sharers noc.DestSet) {
	if sharers.Count() < 2 {
		return
	}
	if _, ok := p.entries[addr]; !ok {
		if len(p.entries) >= p.cap {
			oldest := p.order[0]
			p.order = p.order[1:]
			delete(p.entries, oldest)
		}
		p.order = append(p.order, addr)
	}
	p.entries[addr] = sharers
}

// predict returns and consumes the remembered sharer set for a refetched
// line (one-shot: a wrong prediction should not repeat).
func (p *sharerPredictor) predict(addr uint64) (noc.DestSet, bool) {
	s, ok := p.entries[addr]
	if ok {
		delete(p.entries, addr)
		i := slices.Index(p.order, addr)
		p.order = slices.Delete(p.order, i, i+1)
	}
	return s, ok
}

// audit reports the first way order fails to list exactly the keys of
// entries, each once, within the table's capacity.
func (p *sharerPredictor) audit() error {
	if len(p.order) != len(p.entries) || len(p.order) > p.cap {
		return fmt.Errorf("sharer predictor orders %d of %d entries, capacity %d", len(p.order), len(p.entries), p.cap)
	}
	seen := make(map[uint64]bool, len(p.order))
	for _, a := range p.order {
		if _, ok := p.entries[a]; !ok || seen[a] {
			return fmt.Errorf("sharer predictor orders %#x twice or without an entry", a)
		}
		seen[a] = true
	}
	return nil
}

// Len reports the table occupancy (tests).
func (p *sharerPredictor) Len() int { return len(p.entries) }
