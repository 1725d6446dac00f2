package workload

import "pushmulticast/internal/noc"

// Per-workload generators. Sizing note: every generator is parameterized by
// Scale; quick-scale inputs are meant to run against config.System.Scaled
// caches so the paper's working-set-to-cache-size ratios (the source of the
// capacity-miss behaviour everything hinges on) are preserved at a fraction
// of the simulation cost. Line counts below are cache lines (64 B).

// pick returns the per-scale value.
func pick(sc Scale, tiny, quick, full int) int {
	switch sc {
	case ScaleTiny:
		return tiny
	case ScaleQuick:
		return quick
	default:
		return full
	}
}

// prologue staggers thread starts, modelling OpenMP spawn order and the
// execution drift the paper's Fig 4 characterizes (consecutive sharers
// access the same line ~1000 cycles apart). Perfectly lock-stepped streams
// would make every sharer request every line concurrently, which neither
// the real machines nor the paper's simulations exhibit.
func prologue(core int, sc Scale) segment {
	return segment{kind: segWork, n: 1 + core*pick(sc, 240, 480, 960)}
}

// CacheBW is the cachebw microbenchmark [28]: every thread scans the same
// shared array in the same order, repeatedly. Highest sharing degree (all
// cores), high load, the paper's best case (up to 60% traffic reduction
// under OrdPush).
func CacheBW() Workload {
	return Workload{
		Name:        "cachebw",
		Description: "multi-threaded shared array scanning",
		Class:       "high sharing / high load",
		Build: func(core, cores int, sc Scale) Stream {
			lines := pick(sc, 768, 3072, 131072)
			iters := pick(sc, 3, 5, 4)
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for it := 0; it < iters; it++ {
				segs = append(segs,
					segment{kind: segScan, base: sharedBase, lines: lines, workPer: 1},
					segment{kind: segBarrier},
				)
			}
			return newSegStream(segs)
		},
	}
}

// Multilevel is the multilevel microbenchmark [28]: four level buffers, each
// scanned by a distinct quarter of the cores. Sharing degree cores/4.
func Multilevel() Workload {
	return Workload{
		Name:        "multilevel",
		Description: "multi-level buffers scanned by distinct thread sets",
		Class:       "high sharing / high load",
		Build: func(core, cores int, sc Scale) Stream {
			levelLines := pick(sc, 384, 2048, 32768)
			iters := pick(sc, 3, 5, 4)
			level := core % 4
			base := sharedBase + uint64(level*levelLines)*noc.LineBytes
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for it := 0; it < iters; it++ {
				segs = append(segs,
					segment{kind: segScan, base: base, lines: levelLines, workPer: 1},
					segment{kind: segBarrier},
				)
			}
			return newSegStream(segs)
		},
	}
}

// Backprop models Rodinia's neural-network training kernel: shared weight
// matrix re-read every epoch by all cores, private activation updates, and
// probabilistic per-epoch coverage of the weights, which makes a sizable
// fraction of pushes land unused (the Fig 12 cache-pollution case).
func Backprop() Workload {
	return Workload{
		Name:        "backprop",
		Description: "NN training: shared weights, private activations",
		Class:       "high sharing / medium-high load, imperfect push accuracy",
		Build: func(core, cores int, sc Scale) Stream {
			weightLines := pick(sc, 512, 1280, 32768)
			actLines := pick(sc, 64, 384, 8192)
			iters := pick(sc, 3, 5, 4)
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for it := 0; it < iters; it++ {
				segs = append(segs,
					// Ordered weight traversal with per-core random skips
					// (one line in six inactive per pass): every core
					// shares every line eventually, but per-epoch coverage
					// is partial, so a fraction of speculative pushes land
					// unused -- the Fig 12 pollution case.
					segment{kind: segScan, base: sharedBase, lines: weightLines,
						workPer: 1, skipDenom: 6,
						skipSeed: uint64(core)*977 + uint64(it)*31 + 7},
					segment{kind: segScan, base: privBase(core), lines: actLines,
						store: true, workPer: 1},
					segment{kind: segBarrier},
				)
			}
			return newSegStream(segs)
		},
	}
}

// Particlefilter models Rodinia's particle filter: every core re-reads the
// shared frame each iteration with moderate compute; near-perfect push
// accuracy with full sharing degree.
func Particlefilter() Workload {
	return Workload{
		Name:        "particlefilter",
		Description: "statistical estimation over a shared frame",
		Class:       "high sharing / medium load",
		Build: func(core, cores int, sc Scale) Stream {
			frameLines := pick(sc, 640, 2560, 65536)
			particleLines := pick(sc, 32, 256, 4096)
			iters := pick(sc, 3, 5, 4)
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for it := 0; it < iters; it++ {
				segs = append(segs,
					segment{kind: segScan, base: sharedBase, lines: frameLines, workPer: 8},
					segment{kind: segScan, base: privBase(core), lines: particleLines,
						store: true, workPer: 2},
					segment{kind: segBarrier},
				)
			}
			return newSegStream(segs)
		},
	}
}

// Conv3D models the 3D convolution kernel [58]: the shared input volume is
// re-read once per output channel; private outputs are written.
func Conv3D() Workload {
	return Workload{
		Name:        "conv3d",
		Description: "3D convolution: shared input re-read per out-channel",
		Class:       "high sharing / medium-high load",
		Build: func(core, cores int, sc Scale) Stream {
			inputLines := pick(sc, 512, 2048, 49152)
			outLines := pick(sc, 32, 192, 2048)
			channels := pick(sc, 3, 6, 8)
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for ch := 0; ch < channels; ch++ {
				segs = append(segs,
					segment{kind: segScan, base: sharedBase, lines: inputLines, workPer: 5},
					segment{kind: segScan, base: privBase(core), lines: outLines,
						store: true, workPer: 1},
					segment{kind: segBarrier},
				)
			}
			return newSegStream(segs)
		},
	}
}

// MLP models the multilayer-perceptron kernel [29]: shared weight layers
// with a heavy compute-per-access ratio; low network load makes it latency-
// rather than bandwidth-bound (the case where baseline prefetching shines).
func MLP() Workload {
	return Workload{
		Name:        "mlp",
		Description: "multilayer perceptron, shared weights, compute-heavy",
		Class:       "high sharing / low load",
		Build: func(core, cores int, sc Scale) Stream {
			layerLines := pick(sc, 512, 2048, 49152)
			layers := pick(sc, 3, 5, 6)
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for l := 0; l < layers; l++ {
				segs = append(segs,
					segment{kind: segScan, base: sharedBase, lines: layerLines, workPer: 96},
					segment{kind: segBarrier},
				)
			}
			return newSegStream(segs)
		},
	}
}

// MV models matrix-vector multiplication [38]: each core streams its private
// matrix partition (the dominant traffic) while re-reading the shared input
// vector; low-to-medium sharing with the highest network load.
func MV() Workload {
	return Workload{
		Name:        "mv",
		Description: "matrix-vector multiply: private rows x shared vector",
		Class:       "low-medium sharing / high load",
		Build: func(core, cores int, sc Scale) Stream {
			vecLines := pick(sc, 320, 1024, 12288)
			rows := pick(sc, 3, 6, 8)
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for r := 0; r < rows; r++ {
				rowBase := privBase(core) + uint64(r*vecLines)*noc.LineBytes
				segs = append(segs,
					// Interleaved: matrix element then vector element.
					segment{kind: segScan, base: rowBase, lines: vecLines, workPer: 1,
						base2: sharedBase, span2: vecLines},
				)
			}
			segs = append(segs, segment{kind: segBarrier})
			return newSegStream(segs)
		},
	}
}

// LUD models Rodinia's lower-upper decomposition: a shared pivot panel read
// by all cores each step plus private trailing-block updates.
func LUD() Workload {
	return Workload{
		Name:        "lud",
		Description: "LU decomposition: shared pivot panel + private blocks",
		Class:       "medium sharing / medium load",
		Build: func(core, cores int, sc Scale) Stream {
			pivotLines := pick(sc, 320, 1024, 16384)
			blockLines := pick(sc, 64, 512, 8192)
			steps := pick(sc, 3, 5, 6)
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for s := 0; s < steps; s++ {
				shrink := pivotLines - s*pivotLines/(2*steps)
				segs = append(segs,
					segment{kind: segScan, base: sharedBase, lines: shrink, workPer: 8},
					segment{kind: segScan, base: privBase(core), lines: blockLines,
						store: true, workPer: 6},
					segment{kind: segBarrier},
				)
			}
			return newSegStream(segs)
		},
	}
}

// Pathfinder models Rodinia's dynamic-programming grid traversal: private
// row segments with two-core boundary sharing only.
func Pathfinder() Workload {
	return Workload{
		Name:        "pathfinder",
		Description: "DP grid traversal, neighbour-boundary sharing",
		Class:       "low sharing / low-medium load",
		Build: func(core, cores int, sc Scale) Stream {
			rowLines := pick(sc, 128, 1024, 16384)
			iters := pick(sc, 3, 6, 8)
			left := (core + cores - 1) % cores
			right := (core + 1) % cores
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for it := 0; it < iters; it++ {
				segs = append(segs,
					segment{kind: segScan, base: privBase(core), lines: rowLines, workPer: 10},
					// Boundary halo reads from the neighbours' rows.
					segment{kind: segScan, base: privBase(left), lines: 4, workPer: 10},
					segment{kind: segScan, base: privBase(right), lines: 4, workPer: 10},
					segment{kind: segScan, base: privBase(core), lines: rowLines,
						store: true, workPer: 1},
					segment{kind: segBarrier},
				)
			}
			return newSegStream(segs)
		},
	}
}

// BFS models Rodinia's breadth-first search: irregular pseudo-random
// accesses over a graph far larger than the LLC. Sharer lists accumulate
// over time but re-use across cores is rare, so speculative pushes mostly
// pollute — the workload the pause knob exists for.
func BFS() Workload {
	return Workload{
		Name:        "bfs",
		Description: "breadth-first search, irregular accesses",
		Class:       "irregular / push-hostile",
		Build: func(core, cores int, sc Scale) Stream {
			span := pick(sc, 2048, 32768, 524288)
			perIter := pick(sc, 256, 2048, 32768)
			iters := pick(sc, 3, 5, 6)
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for it := 0; it < iters; it++ {
				segs = append(segs,
					segment{kind: segRand, base: sharedBase, span: span, n: perIter,
						workPer: 4, seed: uint64(core)*131071 + uint64(it)*8191 + 3},
					segment{kind: segBarrier},
				)
			}
			return newSegStream(segs)
		},
	}
}

// parsecLike builds a low-load compute-dominated PARSEC stand-in.
func parsecLike(name, desc string, workPer, privLines, sharedLines, iters int) Workload {
	return Workload{
		Name:        name,
		Description: desc,
		Class:       "low sharing / low load (PARSEC)",
		Build: func(core, cores int, sc Scale) Stream {
			pl := pick(sc, privLines/4, privLines, privLines*8)
			slines := pick(sc, sharedLines/4, sharedLines, sharedLines*8)
			its := pick(sc, 2, iters, iters)
			var segs []segment
			segs = append(segs, prologue(core, sc))
			for it := 0; it < its; it++ {
				segs = append(segs, segment{kind: segWork, n: 4000})
				if slines > 0 {
					segs = append(segs, segment{kind: segScan, base: sharedBase,
						lines: slines, workPer: workPer})
				}
				segs = append(segs,
					segment{kind: segScan, base: privBase(core), lines: pl, workPer: workPer},
					segment{kind: segScan, base: privBase(core), lines: pl / 2,
						store: true, workPer: workPer},
					segment{kind: segBarrier},
				)
			}
			return newSegStream(segs)
		},
	}
}

// Blackscholes: option pricing, almost pure compute over a small private
// working set.
func Blackscholes() Workload {
	return parsecLike("blackscholes", "option pricing (PARSEC)", 28, 96, 0, 4)
}

// Bodytrack: body tracking with a small shared model read.
func Bodytrack() Workload {
	return parsecLike("bodytrack", "human body tracking (PARSEC)", 16, 128, 48, 4)
}

// Fluidanimate: incompressible fluid simulation, private cells with light
// neighbour sharing.
func Fluidanimate() Workload {
	return parsecLike("fluidanimate", "fluid simulation (PARSEC)", 12, 192, 32, 4)
}

// Freqmine: frequent itemset mining, private tree walks.
func Freqmine() Workload {
	return parsecLike("freqmine", "frequent itemset mining (PARSEC)", 18, 160, 0, 4)
}

// Swaptions: Monte-Carlo pricing, tiny footprint, pure compute.
func Swaptions() Workload {
	return parsecLike("swaptions", "Monte Carlo swaption pricing (PARSEC)", 36, 48, 0, 4)
}
