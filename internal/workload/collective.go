package workload

// Collective-communication workload family: ring AllReduce, tree Broadcast,
// ring ReduceScatter, and a producer–consumer pipeline. The paper's sharing
// sweet spot — one producer, many consumers re-reading the same lines — is
// exactly the traffic of collective communication in DNN training (gradient
// aggregation) and serving fan-out, an axis the paper never evaluated. Each
// generator is built from the same segment machinery as the Table II set, so
// the wake-driven and dense kernels replay every collective
// byte-identically.
//
// The collectives are traffic models, not numerically faithful algorithms:
// what they reproduce is who writes which lines, who re-reads them, in what
// order, and at what chunk granularity. All shared buffers live in the
// shared segment; rank r's (or group g's) buffer sits at colBase(r), with
// the same 17-line anti-aliasing skew privBase applies.

import (
	"fmt"

	"pushmulticast/internal/noc"
)

// CollectiveParams parameterizes every collective generator. The zero value
// of each field selects a default (all cores / per-collective fan-out /
// 16-line chunks / scale-derived payload and iteration count); negative
// values and inconsistent combinations are rejected loudly by Validate —
// never silently clamped into an empty or lopsided stream.
type CollectiveParams struct {
	// Sharers is the participating core count (ranks 0..Sharers-1; the
	// remaining cores idle at the barriers). 0 = every core participates.
	Sharers int
	// Fanout is the tree radix for broadcast, the consumers-per-producer
	// count for prodcons, and the concurrent ring-channel count for
	// allreduce/reducescatter (NCCL-style multi-channel rings, each rotated
	// to a different neighbor). 0 = per-collective default.
	Fanout int
	// ChunkLines is the chunk granularity in cache lines: every transfer
	// step reads and commits the payload chunk by chunk, so the chunk size
	// sets the compute/communication interleave. 0 = 16 lines (1 KB).
	ChunkLines int
	// PayloadLines is the payload size in cache lines (per rank buffer for
	// allreduce/reducescatter/broadcast, per group buffer for prodcons). It
	// must be a multiple of ChunkLines and, for the ring collectives, split
	// into chunk groups evenly across sharers and channels. 0 = a
	// scale-derived default that satisfies the divisibility rules by
	// construction.
	PayloadLines int
	// Iters repeats the whole collective (successive training steps /
	// pipeline batches), which is what turns first-touch reads into the
	// re-references that trigger pushes. 0 = scale default; zero- or
	// negative-iteration loops are rejected, not run empty.
	Iters int
}

// sig is the canonical parameter signature, part of a collective workload's
// memo identity (two same-named collectives with different knobs must never
// share a cached run).
func (p CollectiveParams) sig() string {
	return fmt.Sprintf("sharers=%d fanout=%d chunk=%d payload=%d iters=%d",
		p.Sharers, p.Fanout, p.ChunkLines, p.PayloadLines, p.Iters)
}

// collectiveKind discriminates the four generators for validation.
type collectiveKind uint8

const (
	colAllReduce collectiveKind = iota
	colBroadcast
	colReduceScatter
	colProdCons
)

func (k collectiveKind) name() string {
	switch k {
	case colAllReduce:
		return "allreduce"
	case colBroadcast:
		return "broadcast"
	case colReduceScatter:
		return "reducescatter"
	}
	return "prodcons"
}

// defaultFanout is the per-kind fan-out when the knob is 0.
func (k collectiveKind) defaultFanout() int {
	switch k {
	case colBroadcast:
		return 4 // radix-4 tree
	case colProdCons:
		return 3 // 1 producer + 3 consumers per group (groups of 4)
	}
	return 1 // single ring channel
}

// minSharers is the smallest participating-core count that still forms the
// collective's communication structure.
func (k collectiveKind) minSharers(fanout int) int {
	if k == colProdCons {
		return fanout + 1 // one producer plus its consumers
	}
	return 2
}

// defaultChunkLines is the chunk granularity when the knob is 0.
const defaultChunkLines = 16

// colParams is a fully resolved (defaulted, validated) parameter set.
type colParams struct {
	sharers, fanout, chunk, payload, iters int
}

// resolve fills defaults and validates the combination for a machine with
// `cores` cores. Every error is a one-line diagnostic naming the offending
// knob and the constraint it broke.
func (p CollectiveParams) resolve(kind collectiveKind, cores int, sc Scale) (colParams, error) {
	name := kind.name()
	for _, f := range []struct {
		label string
		v     int
	}{
		{"Sharers", p.Sharers}, {"Fanout", p.Fanout}, {"ChunkLines", p.ChunkLines},
		{"PayloadLines", p.PayloadLines}, {"Iters", p.Iters},
	} {
		if f.v < 0 {
			return colParams{}, fmt.Errorf("workload %s: %s %d is negative (0 selects the default)", name, f.label, f.v)
		}
	}
	r := colParams{sharers: p.Sharers, fanout: p.Fanout, chunk: p.ChunkLines, iters: p.Iters}
	if r.sharers == 0 {
		r.sharers = cores
	}
	if r.fanout == 0 {
		r.fanout = kind.defaultFanout()
	}
	if r.chunk == 0 {
		r.chunk = defaultChunkLines
	}
	if r.iters == 0 {
		r.iters = pick(sc, 3, 5, 4)
	}
	if r.sharers > cores {
		return colParams{}, fmt.Errorf("workload %s: %d sharers exceed the %d-core machine", name, r.sharers, cores)
	}
	if min := kind.minSharers(r.fanout); r.sharers < min {
		return colParams{}, fmt.Errorf("workload %s: %d sharers below the minimum %d (fanout %d)", name, r.sharers, min, r.fanout)
	}
	switch kind {
	case colBroadcast:
		if r.fanout < 2 {
			return colParams{}, fmt.Errorf("workload broadcast: tree radix (Fanout) must be at least 2, got %d", r.fanout)
		}
	case colAllReduce, colReduceScatter:
		if r.fanout >= r.sharers {
			return colParams{}, fmt.Errorf("workload %s: %d ring channels (Fanout) need at least %d sharers, got %d",
				name, r.fanout, r.fanout+1, r.sharers)
		}
	case colProdCons:
		if r.sharers%(r.fanout+1) != 0 {
			return colParams{}, fmt.Errorf("workload prodcons: %d sharers do not split into groups of %d (1 producer + %d consumers)",
				r.sharers, r.fanout+1, r.fanout)
		}
	}
	// Payload: an explicit value must satisfy the chunking and distribution
	// rules exactly; the derived default satisfies them by construction at
	// every scale.
	r.payload = p.PayloadLines
	if r.payload == 0 {
		switch kind {
		case colAllReduce, colReduceScatter:
			r.payload = r.sharers * r.fanout * r.chunk * pick(sc, 1, 4, 16)
		case colBroadcast, colProdCons:
			// Sized past the private L2 at every scale (the scaled quick/tiny
			// L2 holds 256 lines, the full one 4096): consumer re-read passes
			// must reach the LLC to re-reference, which is what arms pushes.
			r.payload = r.chunk * pick(sc, 24, 96, 768)
		}
		return r, nil
	}
	if r.payload%r.chunk != 0 {
		return colParams{}, fmt.Errorf("workload %s: chunk size %d lines does not divide the %d-line payload",
			name, r.chunk, r.payload)
	}
	if kind == colAllReduce || kind == colReduceScatter {
		chunks := r.payload / r.chunk
		if chunks%r.sharers != 0 {
			return colParams{}, fmt.Errorf("workload %s: %d chunks do not distribute across %d sharers", name, chunks, r.sharers)
		}
		if (chunks/r.sharers)%r.fanout != 0 {
			return colParams{}, fmt.Errorf("workload %s: %d chunks per sharer do not split across %d ring channels",
				name, chunks/r.sharers, r.fanout)
		}
	}
	return r, nil
}

// mustResolve is resolve for Build, which cannot return an error; core.Build
// validates first (via Workload.Validate), so a failure here is a programmer
// error — fail loudly rather than emit a silently empty stream.
func (p CollectiveParams) mustResolve(kind collectiveKind, cores int, sc Scale) colParams {
	r, err := p.resolve(kind, cores, sc)
	if err != nil {
		panic("workload: Build called with unvalidated collective parameters: " + err.Error())
	}
	return r
}

// colBase returns buffer r's base address in the shared segment. The 17-line
// skew spreads consecutive buffers across LLC home slices and cache sets,
// like privBase does for private segments.
func colBase(buf, payloadLines int) uint64 {
	return sharedBase + uint64(buf)*uint64(payloadLines+17)*noc.LineBytes
}

// copyChunks appends the chunk-granular receive-then-commit step every
// collective transfer is built from: for each chunk, read it from src and
// store it to dst, with loadWork instructions ahead of each loaded line
// (the reduction or relay compute).
func copyChunks(segs []segment, src, dst uint64, lines, chunk, loadWork int) []segment {
	for off := 0; off < lines; off += chunk {
		at := uint64(off) * noc.LineBytes
		segs = append(segs,
			segment{kind: segScan, base: src + at, lines: chunk, workPer: loadWork},
			segment{kind: segScan, base: dst + at, lines: chunk, store: true, workPer: 1},
		)
	}
	return segs
}

// produceChunks appends chunk-granular stores over [base, base+lines) with
// per-line compute — a producer filling its buffer.
func produceChunks(segs []segment, base uint64, lines, chunk, work int) []segment {
	for off := 0; off < lines; off += chunk {
		segs = append(segs, segment{kind: segScan, base: base + uint64(off)*noc.LineBytes,
			lines: chunk, store: true, workPer: work})
	}
	return segs
}

// consumeChunks appends chunk-granular loads — a consumer draining a buffer.
func consumeChunks(segs []segment, base uint64, lines, chunk, work int) []segment {
	for off := 0; off < lines; off += chunk {
		segs = append(segs, segment{kind: segScan, base: base + uint64(off)*noc.LineBytes,
			lines: chunk, workPer: work})
	}
	return segs
}

// idle is the non-participant's (or inactive phase's) stand-in work so every
// core still reaches every barrier.
func idle(segs []segment) []segment {
	return append(segs, segment{kind: segWork, n: 32})
}

// stagger desynchronizes sibling consumers ahead of a shared re-read pass
// with a small per-sibling compute delay (sibling k waits k*staggerWork
// instructions). In lockstep, every sibling's re-reference raises a demand
// miss before the push for it can land (Early-Resp); staggered, the leading
// sibling's misses push lines just ahead of where the trailing siblings are
// about to read (Miss-to-Hit) — the temporal sharer locality the paper's
// trigger exploits.
const staggerWork = 800

func stagger(segs []segment, sibling int) []segment {
	if sibling == 0 {
		return segs
	}
	return append(segs, segment{kind: segWork, n: sibling * staggerWork})
}

// collective assembles a Workload whose Validate hook and Build stream share
// one resolved parameter set.
func collective(kind collectiveKind, p CollectiveParams, desc, class string,
	build func(r colParams, rank int, participant bool, sc Scale) []segment) Workload {
	return Workload{
		Name:        kind.name(),
		Description: desc,
		Class:       class,
		Params:      p.sig(),
		Validate: func(cores int) error {
			// Scale only sizes the derived payload and iteration defaults,
			// never the validity of the combination; ScaleTiny stands in for
			// all scales here.
			_, err := p.resolve(kind, cores, ScaleTiny)
			return err
		},
		Build: func(core, cores int, sc Scale) Stream {
			r := p.mustResolve(kind, cores, sc)
			segs := []segment{prologue(core, sc)}
			segs = append(segs, build(r, core, core < r.sharers, sc)...)
			return newSegStream(segs)
		},
	}
}

// AllReduce is a ring all-reduce over Sharers ranks: every rank owns a full
// payload-sized buffer; iteration = local gradient production, then N-1
// reduce-scatter steps (read the incoming chunk group from the ring
// predecessor, accumulate into the own buffer), then N-1 all-gather steps
// (copy the reduced groups around the ring). Fanout > 1 splits each step
// across that many ring channels, each rotated to a different predecessor —
// the multi-channel layout DNN collectives use to spread link load.
func AllReduce(p CollectiveParams) Workload {
	return collective(colAllReduce, p,
		"ring all-reduce: gradient aggregation over neighbor ring channels",
		"collective / neighbor sharing, high load",
		func(r colParams, rank int, participant bool, sc Scale) []segment {
			return ringSegments(r, rank, participant, true)
		})
}

// ReduceScatter is the reduce phase of the ring alone: after it, each rank
// holds the reduction of its own chunk group. Same ring-neighbor traffic as
// AllReduce without the gather re-circulation.
func ReduceScatter(p CollectiveParams) Workload {
	return collective(colReduceScatter, p,
		"ring reduce-scatter: per-rank chunk-group reduction",
		"collective / neighbor sharing, medium-high load",
		func(r colParams, rank int, participant bool, sc Scale) []segment {
			return ringSegments(r, rank, participant, false)
		})
}

// ringSegments emits the shared ring structure of AllReduce/ReduceScatter;
// gather selects whether the all-gather phase follows the reduce-scatter
// phase. Every core — participant or not — emits an identical barrier
// sequence: 1 (production) + (N-1) + gather*(N-1) per iteration.
func ringSegments(r colParams, rank int, participant bool, gather bool) []segment {
	n := r.sharers
	chunks := r.payload / r.chunk
	perRank := chunks / n       // chunk-group size, in chunks
	perCh := perRank / r.fanout // chunks per channel per step
	groupLines := perRank * r.chunk
	buf := func(rk int) uint64 { return colBase(rk, r.payload) }
	var segs []segment
	// step emits one ring step: on channel c, read this step's chunk group
	// slice from the channel's predecessor and commit it locally.
	step := func(s, loadWork int) []segment {
		for c := 0; c < r.fanout; c++ {
			src := ((rank-1-c)%n + n) % n
			g := ((rank-s-c)%n + n) % n
			at := uint64(g*groupLines+c*perCh*r.chunk) * noc.LineBytes
			segs = copyChunks(segs, buf(src)+at, buf(rank)+at, perCh*r.chunk, r.chunk, loadWork)
		}
		return segs
	}
	for it := 0; it < r.iters; it++ {
		if participant {
			segs = produceChunks(segs, buf(rank), r.payload, r.chunk, 2)
		} else {
			segs = idle(segs)
		}
		segs = append(segs, segment{kind: segBarrier})
		for s := 1; s < n; s++ {
			if participant {
				segs = step(s, 2) // reduce: FMA per received line
			} else {
				segs = idle(segs)
			}
			segs = append(segs, segment{kind: segBarrier})
		}
		if !gather {
			continue
		}
		for s := 1; s < n; s++ {
			if participant {
				segs = step(n-s, 1) // gather: plain copy of the reduced groups
			} else {
				segs = idle(segs)
			}
			segs = append(segs, segment{kind: segBarrier})
		}
	}
	return segs
}

// readPasses is how many times a collective consumer walks the payload it
// received per step: pass 1 is the receive, later passes model the compute
// actually using the data (applying broadcast parameters, processing a
// produced batch). The payload outsizes the private L2 (see resolve), so a
// later pass re-references lines the LLC still maps to this sharer — the
// trigger condition for pushes (§III-B), shared by all Fanout siblings
// reading the same parent buffer.
const readPasses = 2

// Broadcast is a Fanout-ary tree broadcast: the root produces the payload,
// then each tree level reads its parent's copy — internal ranks commit a
// relay copy for their own children, leaves only consume — and every child
// walks the parent buffer readPasses times. Each parent buffer is written
// once and then re-read by its Fanout children per iteration: the
// one-producer/many-consumer pattern push multicast was designed for
// (parameter broadcast, serving fan-out).
func Broadcast(p CollectiveParams) Workload {
	return collective(colBroadcast, p,
		"tree broadcast: root payload relayed level by level, fan-out sharing",
		"collective / 1-to-fanout sharing, push sweet spot",
		func(r colParams, rank int, participant bool, sc Scale) []segment {
			level := func(rk int) int {
				l := 0
				for rk > 0 {
					rk = (rk - 1) / r.fanout
					l++
				}
				return l
			}
			depth := level(r.sharers - 1) // levels are nondecreasing in rank
			buf := func(rk int) uint64 { return colBase(rk, r.payload) }
			myLevel := level(rank)
			parent := 0
			if rank > 0 {
				parent = (rank - 1) / r.fanout
			}
			// Internal ranks relay: their copy feeds their own children.
			// Leaves (no rank has them as parent) only consume.
			internal := rank*r.fanout+1 < r.sharers
			var segs []segment
			for it := 0; it < r.iters; it++ {
				if participant && rank == 0 {
					segs = produceChunks(segs, buf(0), r.payload, r.chunk, 2)
				} else {
					segs = idle(segs)
				}
				segs = append(segs, segment{kind: segBarrier})
				for l := 1; l <= depth; l++ {
					if participant && myLevel == l {
						if internal {
							segs = copyChunks(segs, buf(parent), buf(rank), r.payload, r.chunk, 1)
						} else {
							segs = consumeChunks(segs, buf(parent), r.payload, r.chunk, 1)
						}
						for pass := 1; pass < readPasses; pass++ {
							segs = stagger(segs, (rank-1)%r.fanout)
							segs = consumeChunks(segs, buf(parent), r.payload, r.chunk, 2)
						}
					} else {
						segs = idle(segs)
					}
					segs = append(segs, segment{kind: segBarrier})
				}
			}
			return segs
		})
}

// ProdCons is a producer–consumer pipeline: the sharers split into groups of
// 1 producer + Fanout consumers over a double-buffered shared queue. Each
// iteration the producer fills one buffer while every consumer processes the
// other in readPasses passes, so each buffer is written once and re-read by
// all Fanout consumers before the producer reclaims it — steady-state
// 1-to-Fanout push traffic (inference serving fan-out, pipelined dataflow
// stages).
func ProdCons(p CollectiveParams) Workload {
	return collective(colProdCons, p,
		"producer-consumer pipeline: double-buffered 1-to-fanout hand-off",
		"collective / 1-to-fanout sharing, pipelined",
		func(r colParams, rank int, participant bool, sc Scale) []segment {
			group := rank / (r.fanout + 1)
			isProducer := rank%(r.fanout+1) == 0
			buf := func(half int) uint64 { return colBase(group*2+half, r.payload) }
			var segs []segment
			// iters produce steps plus one drain step; consumers trail the
			// producer by one buffer.
			for t := 0; t <= r.iters; t++ {
				active := false
				if participant {
					if isProducer && t < r.iters {
						segs = produceChunks(segs, buf(t%2), r.payload, r.chunk, 2)
						active = true
					}
					if !isProducer && t > 0 {
						for pass := 0; pass < readPasses; pass++ {
							if pass > 0 {
								segs = stagger(segs, rank%(r.fanout+1)-1)
							}
							segs = consumeChunks(segs, buf((t-1)%2), r.payload, r.chunk, 4)
						}
						active = true
					}
				}
				if !active {
					segs = idle(segs)
				}
				segs = append(segs, segment{kind: segBarrier})
			}
			return segs
		})
}

// Collectives returns the collective family with default parameters, in
// documentation order. These are not part of the paper's Table II set
// (Registry), but ByName resolves them and pushsim/-fig collective run them.
func Collectives() []Workload {
	return []Workload{
		AllReduce(CollectiveParams{}), Broadcast(CollectiveParams{}),
		ReduceScatter(CollectiveParams{}), ProdCons(CollectiveParams{}),
	}
}

// Collective builds the named collective with explicit parameters; the name
// must be one of the family. Parameter validity is checked against the core
// count at build time via Workload.Validate.
func Collective(name string, p CollectiveParams) (Workload, error) {
	switch name {
	case "allreduce":
		return AllReduce(p), nil
	case "broadcast":
		return Broadcast(p), nil
	case "reducescatter":
		return ReduceScatter(p), nil
	case "prodcons":
		return ProdCons(p), nil
	}
	return Workload{}, fmt.Errorf("workload: %q is not a collective (collectives: allreduce, broadcast, prodcons, reducescatter)", name)
}
