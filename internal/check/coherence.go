package check

import (
	"errors"
	"fmt"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
)

// ErrCoherence wraps coherence invariant violations.
var ErrCoherence = errors.New("coherence violation")

// holding is one line's entry in the holder index: the tiles whose L2 holds
// it in S, M or SM_D, and the last round that queued it for judgement.
type holding struct {
	tiles  noc.DestSet
	queued uint32
}

// Coherence judges the Single-Writer-Multiple-Reader invariant, the directory
// sharers-superset property and the data-value invariant line by line, from
// an index of each line's private holders:
//
//   - at most one private cache holds a line in M;
//   - no private S copy coexists with an M copy;
//   - every private copy is visible to its home directory: the slice's
//     conservative view (sharer vector ∪ owner ∪ in-flight episode state)
//     holds its tile — a line the directory lost track of can never be
//     invalidated or pushed to, the silent-sharer bug class;
//   - every stable private S copy (including the readable S data backing an
//     SM_D upgrade) matches the directory's current version whenever the
//     directory has no owner — the property a stale push would break;
//   - an M copy's version is never behind the directory's.
//
// Check judges every held line from a fresh index; the monitor's sweep keeps
// its index current from the ways the arrays marked and judges only the
// lines those touched. A line is judged in the order its first holder is
// met (tile by tile, way by way), its copies in tile order, so the violation
// reported is the same on every run.
type Coherence struct {
	cfg  *config.System
	l2s  []*cache.L2
	llcs []*cache.LLC

	held   map[uint64]holding
	round  uint32
	order  []uint64   // the lines queued this round, in the order queued
	copies []privCopy // the copies of the line being judged
}

// privCopy is one private S, M or SM_D copy of the line being judged.
type privCopy struct {
	tile    noc.NodeID
	state   cache.State
	version uint64
}

// NewCoherence builds a judge over the machine's L2s and LLC slices.
func NewCoherence(cfg *config.System, l2s []*cache.L2, llcs []*cache.LLC) *Coherence {
	return &Coherence{cfg: cfg, l2s: l2s, llcs: llcs, held: make(map[uint64]holding)}
}

// Check judges every privately held line: the "every way marked" case of the
// monitor's sweep. It leaves no mark and no index behind that a sweep reads.
func (c *Coherence) Check() error {
	clear(c.held)
	c.begin()
	for t, l2 := range c.l2s {
		l2.ForEachLine(func(addr uint64, l *cache.Line) { c.note(noc.NodeID(t), addr, l) })
	}
	return c.judgeQueued()
}

// sweep brings the index up to date with the ways the L2s marked and the
// lines they freed, and judges every line whose holders or home entry
// changed since the last sweep.
func (c *Coherence) sweep() error {
	c.begin()
	for t, l2 := range c.l2s {
		id := noc.NodeID(t)
		l2.Array().ForEachMarked(func(addr uint64, l *cache.Line) { c.note(id, addr, l) })
		for _, addr := range l2.Array().Freed() {
			c.note(id, addr, l2.Line(addr))
		}
	}
	for _, llc := range c.llcs {
		llc.Array().ForEachMarked(func(addr uint64, _ *cache.Line) { c.touch(addr) })
		for _, addr := range llc.Array().Freed() {
			c.touch(addr)
		}
	}
	return c.judgeQueued()
}

// begin opens a judging round.
func (c *Coherence) begin() {
	c.round++
	c.order = c.order[:0]
}

// note records whether tile t holds addr, whose line there is l (nil when
// absent), and queues the line if so.
func (c *Coherence) note(t noc.NodeID, addr uint64, l *cache.Line) {
	e, indexed := c.held[addr]
	if holds(l) {
		e.tiles = e.tiles.Add(t)
		if e.queued != c.round {
			e.queued = c.round
			c.order = append(c.order, addr)
		}
		c.held[addr] = e
		return
	}
	if !indexed {
		return
	}
	if e.tiles = e.tiles.Remove(t); e.tiles.Empty() {
		delete(c.held, addr)
		return
	}
	c.held[addr] = e
	c.touch(addr)
}

// holds reports whether l, a private line or nil, is a copy the judge counts.
func holds(l *cache.Line) bool {
	return l != nil && (l.State == cache.StateS || l.State == cache.StateM || l.State == cache.StateSMD)
}

// touch queues addr if anyone holds it.
func (c *Coherence) touch(addr uint64) {
	if e, ok := c.held[addr]; ok && e.queued != c.round {
		e.queued = c.round
		c.held[addr] = e
		c.order = append(c.order, addr)
	}
}

// judgeQueued judges the round's lines in the order they were queued. In
// Check, where only holders queue lines, that is the order their first
// holder is met.
func (c *Coherence) judgeQueued() error {
	for _, addr := range c.order {
		if err := c.judge(addr); err != nil {
			return err
		}
	}
	return nil
}

// judge checks one line against its holders' copies, met in tile order, and
// its home entry.
func (c *Coherence) judge(addr uint64) error {
	copies := c.copies[:0]
	owners := 0
	for s := c.held[addr].tiles; !s.Empty(); {
		t := s.First()
		s = s.Remove(t)
		l := c.l2s[t].Line(addr)
		if !holds(l) {
			return fmt.Errorf("checker: the holder index names tile %d for line %#x, which it no longer holds: an array missed a mark", t, addr)
		}
		copies = append(copies, privCopy{tile: t, state: l.State, version: l.Version})
		if l.State == cache.StateM {
			owners++
		}
	}
	c.copies = copies
	if len(copies) == 0 {
		return nil
	}
	if owners > 1 {
		return fmt.Errorf("%w: line %#x has %d M owners", ErrCoherence, addr, owners)
	}
	if owners == 1 && len(copies) > 1 {
		return fmt.Errorf("%w: line %#x has an M owner and %d S copies", ErrCoherence, addr, len(copies)-1)
	}
	home := c.cfg.HomeSlice(addr)
	llc := c.llcs[home]
	d := llc.Line(addr)
	if d == nil {
		return fmt.Errorf("%w: line %#x cached privately but absent from the LLC", ErrCoherence, addr)
	}
	view := llc.DirectoryView(d)
	for _, cp := range copies {
		if !view.Has(cp.tile) {
			return fmt.Errorf("%w: directory not a sharer superset: line %#x cached %v at tile %d, home %d view %v",
				ErrCoherence, addr, cp.state, cp.tile, home, view)
		}
	}
	if owners == 1 {
		if cp := copies[0]; cp.version < d.Version {
			return fmt.Errorf("%w: line %#x M copy at tile %d behind directory (%d < %d)",
				ErrCoherence, addr, cp.tile, cp.version, d.Version)
		}
		return nil
	}
	// No owner among the copies: S data must be current unless the
	// directory granted ownership elsewhere (then stale S copies would be an
	// SWMR violation outright). One legal exception: the new owner's own line
	// sits in SM_D (its S data still readable) in the window between the
	// ownership grant and the DataM delivery.
	if d.State == cache.StateLM || d.State == cache.StateLMInv {
		owner := llc.Dir(d).Owner
		for _, cp := range copies {
			if cp.state != cache.StateSMD || cp.tile != owner {
				return fmt.Errorf("%w: line %#x has S copy at tile %d (%v) while directory in %v",
					ErrCoherence, addr, cp.tile, cp.state, d.State)
			}
		}
	}
	for _, cp := range copies {
		if cp.version != d.Version {
			return fmt.Errorf("%w: line %#x stale S copy at tile %d (version %d, directory %d)",
				ErrCoherence, addr, cp.tile, cp.version, d.Version)
		}
	}
	return nil
}
