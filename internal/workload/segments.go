package workload

import "pushmulticast/internal/noc"

// The generators compose each core's stream out of segments: lazily expanded
// loops over address ranges. This keeps streams deterministic and memory-
// cheap (a few dozen segment descriptors expand into millions of ops).

type segKind uint8

const (
	// segWork emits one OpWork of n instructions.
	segWork segKind = iota
	// segScan walks `lines` cache lines from base with the given stride,
	// emitting workPer instructions before each access. When base2 is set,
	// every access is followed by a second access into the base2 region
	// (wrapping at span2), modelling dual-stream kernels like
	// matrix-vector.
	segScan
	// segRand emits n accesses to pseudo-random lines within span lines of
	// base.
	segRand
	// segBarrier emits OpBarrier.
	segBarrier
)

type segment struct {
	kind    segKind
	base    uint64
	lines   int
	stride  int // in lines; defaults to 1
	store   bool
	workPer int
	n       int // segWork instruction count / segRand access count

	base2  uint64 // secondary interleaved stream (0 = none)
	span2  int    // secondary stream wrap, in lines
	store2 bool

	seed uint64 // segRand
	span int    // segRand span in lines

	// skipDenom, when nonzero, makes segScan skip pseudo-randomly chosen
	// lines (one in skipDenom), keyed by skipSeed: an ordered traversal
	// with partial per-pass coverage (backprop's weight activity pattern).
	skipDenom int
	skipSeed  uint64
}

// skips reports whether a scan segment skips line i.
func (s *segment) skips(i int) bool {
	if s.skipDenom == 0 {
		return false
	}
	h := (uint64(i)+s.skipSeed)*0x9e3779b97f4a7c15 + 1
	return (h>>33)%uint64(s.skipDenom) == 0
}

// segStream lazily expands a segment list into ops.
type segStream struct {
	segs []segment
	si   int

	i       int  // index within current segment
	didWork bool // workPer emitted for access i
	didA    bool // primary access emitted (interleaved scans)
	rng     lcg
}

func newSegStream(segs []segment) *segStream { return &segStream{segs: segs} }

// Next implements Stream.
func (s *segStream) Next() Op {
	for s.si < len(s.segs) {
		seg := &s.segs[s.si]
		switch seg.kind {
		case segWork:
			s.advance()
			return Op{Kind: OpWork, N: seg.n}
		case segBarrier:
			s.advance()
			return Op{Kind: OpBarrier}
		case segScan:
			for s.i < seg.lines && !s.didWork && !s.didA && seg.skips(s.i) {
				s.i++
			}
			if s.i >= seg.lines {
				s.advance()
				continue
			}
			if seg.workPer > 0 && !s.didWork {
				s.didWork = true
				return Op{Kind: OpWork, N: seg.workPer}
			}
			stride := seg.stride
			if stride == 0 {
				stride = 1
			}
			if !s.didA {
				s.didA = true
				addr := seg.base + uint64(s.i*stride)*noc.LineBytes
				kind := OpLoad
				if seg.store {
					kind = OpStore
				}
				if seg.base2 == 0 {
					s.step()
				}
				return Op{Kind: kind, Addr: addr}
			}
			// Secondary interleaved access.
			addr := seg.base2 + uint64(s.i%seg.span2)*noc.LineBytes
			kind := OpLoad
			if seg.store2 {
				kind = OpStore
			}
			s.step()
			return Op{Kind: kind, Addr: addr}
		case segRand:
			if s.i >= seg.n {
				s.advance()
				continue
			}
			if seg.workPer > 0 && !s.didWork {
				s.didWork = true
				return Op{Kind: OpWork, N: seg.workPer}
			}
			if seg.span <= 0 {
				// A zero span would be an integer divide-by-zero below;
				// surface the degenerate parameter instead of a runtime panic
				// deep in the kernel.
				panic("workload: segRand span must be positive (degenerate generator parameters)")
			}
			if s.rng == 0 {
				s.rng = lcg(seg.seed | 1)
			}
			line := s.rng.next() % uint64(seg.span)
			s.step()
			kind := OpLoad
			if seg.store {
				kind = OpStore
			}
			return Op{Kind: kind, Addr: seg.base + line*noc.LineBytes}
		}
	}
	return Op{Kind: OpEnd}
}

// step finishes one access iteration within a segment.
func (s *segStream) step() {
	s.i++
	s.didWork = false
	s.didA = false
}

// advance moves to the next segment.
func (s *segStream) advance() {
	s.si++
	s.i = 0
	s.didWork = false
	s.didA = false
	s.rng = 0
}
