// Package workload generates per-core memory access streams that reproduce
// the sharing structure of the paper's benchmarks (Table II): working-set
// size, sharing degree, temporal sharer locality, and compute-to-memory
// ratio. The generators are synthetic stand-ins for the compiled
// Rodinia/OpenMP/PARSEC binaries the paper runs under gem5; DESIGN.md §1
// documents the substitution.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"pushmulticast/internal/noc"
)

// OpKind is the kind of one stream operation.
type OpKind uint8

// Stream operation kinds.
const (
	// OpWork represents N non-memory instructions.
	OpWork OpKind = iota
	// OpLoad is a data load of one address.
	OpLoad
	// OpStore is a data store to one address.
	OpStore
	// OpBarrier synchronizes all cores (OpenMP-style join).
	OpBarrier
	// OpEnd terminates the core's stream.
	OpEnd
)

// Op is one operation in a core's instruction stream.
type Op struct {
	Kind OpKind
	// Addr is the byte address for loads/stores.
	Addr uint64
	// N is the instruction count for OpWork.
	N int
}

// Stream produces a core's operation sequence. Implementations must be
// deterministic; Next is called once per consumed op.
type Stream interface {
	Next() Op
}

// Scale selects input sizing.
type Scale uint8

// Input scales.
const (
	// ScaleTiny is for unit tests: sub-millisecond runs.
	ScaleTiny Scale = iota
	// ScaleQuick is the default experiment scale: seconds per run with the
	// cache-pressure ratios of the paper preserved against Scaled configs.
	ScaleQuick
	// ScaleFull stresses full-size caches; minutes per run.
	ScaleFull
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleQuick:
		return "quick"
	case ScaleFull:
		return "full"
	}
	return "unknown"
}

// Workload is a named generator building one Stream per core.
type Workload struct {
	// Name matches the paper's workload naming (Table II).
	Name string
	// Description summarizes the access pattern.
	Description string
	// Class is the paper's qualitative sharing/load classification, used
	// in reports.
	Class string
	// Params is the canonical parameter signature for parameterized
	// workloads (the collective family); it is part of the harness memo
	// identity so same-named variants with different knobs never alias.
	// Empty for the fixed Table II generators.
	Params string
	// Validate, when non-nil, checks the workload's parameters against the
	// machine's core count before any stream is built. core.Build calls it
	// right after config validation; errors must be one-line diagnostics.
	Validate func(cores int) error
	// Build returns the stream for core `core` of `cores` total.
	Build func(core, cores int, sc Scale) Stream
}

// StreamFunc adapts a generator function to Stream.
type StreamFunc func() Op

// Next implements Stream.
func (f StreamFunc) Next() Op { return f() }

// Registry returns all workloads in the paper's figure order.
func Registry() []Workload {
	return []Workload{
		CacheBW(), Multilevel(), Backprop(), Particlefilter(), Conv3D(),
		MLP(), MV(), LUD(), Pathfinder(), BFS(),
		Blackscholes(), Bodytrack(), Fluidanimate(), Freqmine(), Swaptions(),
	}
}

// All returns every bundled workload: the Table II set plus the collective
// family (default parameters). Registry stays the paper set so figure
// defaults (Fig 11, Table II) are unchanged by the collectives.
func All() []Workload {
	return append(Registry(), Collectives()...)
}

// byNameIndex is built once: ByName used to rebuild the whole Registry slice
// on every miss and answer with a bare "unknown workload" that named no
// valid alternatives.
var byNameIndex struct {
	once  sync.Once
	m     map[string]Workload
	names string // sorted, comma-joined, for the miss diagnostic
}

// ByName returns the named workload (paper set or collective defaults). On a
// miss the error lists every valid name, sorted.
func ByName(name string) (Workload, error) {
	byNameIndex.once.Do(func() {
		all := All()
		byNameIndex.m = make(map[string]Workload, len(all))
		names := make([]string, 0, len(all))
		for _, w := range all {
			byNameIndex.m[w.Name] = w
			names = append(names, w.Name)
		}
		sort.Strings(names)
		byNameIndex.names = strings.Join(names, ", ")
	})
	if w, ok := byNameIndex.m[name]; ok {
		return w, nil
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q (valid: %s)", name, byNameIndex.names)
}

// Names lists every bundled workload name: the registry in figure order,
// then the collective family.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name
	}
	return out
}

// NonParsec returns the Rodinia/OpenMP/microbenchmark set used by the
// paper's detailed figures (PARSEC is excluded after Fig 11).
func NonParsec() []Workload {
	return []Workload{
		CacheBW(), Multilevel(), Backprop(), Particlefilter(), Conv3D(),
		MLP(), MV(), LUD(), Pathfinder(), BFS(),
	}
}

// Address-space layout helpers. Each workload partitions a flat physical
// address space into a shared segment and per-core private segments, far
// enough apart that they never alias.
const (
	// sharedBase is the base address of shared data.
	sharedBase uint64 = 1 << 30
	// privateBase is the base of core 0's private segment; each core gets
	// privateStride bytes.
	privateBase   uint64 = 4 << 30
	privateStride uint64 = 64 << 20
)

// SharedBase exposes the shared segment base (Fig 4 tracing and tests).
func SharedBase() uint64 { return sharedBase }

// PrivateBase exposes a core's private segment base for user-defined
// workloads.
func PrivateBase(core int) uint64 { return privBase(core) }

// privBase returns core c's private segment base. The per-core 17-line skew
// spreads the segments across LLC home slices and cache sets; perfectly
// aligned power-of-two bases would alias every core's stream onto the same
// sets (a layout artifact real heap allocations do not have).
func privBase(c int) uint64 {
	return privateBase + uint64(c)*privateStride + uint64(c)*17*noc.LineBytes
}

// lcg is a small deterministic pseudo-random generator for irregular
// workloads (bfs); math/rand is avoided to keep streams bit-stable across
// Go versions.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 16)
}
