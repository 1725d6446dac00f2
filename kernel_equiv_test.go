package pushmulticast

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// equivSchemes are the scheme points the kernel cross-check covers: the
// baseline, the bare push ablation, and the full OrdPush design.
func equivSchemes() []Scheme {
	return []Scheme{Baseline(), AblationPush(), OrdPush()}
}

// withDense selects the dense reference kernel, the wake-driven scheduler's
// one independent oracle.
func withDense(cfg Config) Config {
	cfg.DenseKernel = true
	return cfg
}

// withCheck enables the invariant checker and the event trace. Beyond
// validating protocol invariants on every run, this upgrades the
// equivalence oracle: Results carries the hash and count of the full event
// history, so the cross-kernel comparison covers every injection,
// delivery, filter action, push trigger, and memory access in order — not
// just end-state counters.
func withCheck(cfg Config) Config {
	cfg.Check = true
	cfg.TraceN = 64
	return cfg
}

// checkIdentical asserts two runs produced byte-identical results, down to
// their full causal event histories.
func checkIdentical(t *testing.T, aName, bName string, a, b Results) {
	t.Helper()
	if a.Cycles != b.Cycles {
		t.Errorf("cycle count diverged: %s=%d %s=%d", aName, a.Cycles, bName, b.Cycles)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("stats diverged:\n%s: %+v\n%s:  %+v", aName, a.Stats, bName, b.Stats)
	}
	if a.TraceHash != b.TraceHash || a.TraceEvents != b.TraceEvents {
		t.Errorf("event histories diverged: %s=(hash %#x, %d events) %s=(hash %#x, %d events)",
			aName, a.TraceHash, a.TraceEvents, bName, b.TraceHash, b.TraceEvents)
	}
}

// TestSparseDenseEquivalence is the kernel's correctness contract: for every
// tiny-scale workload and scheme, the sparse (wake-driven) and dense
// (tick-everything) kernels must produce byte-identical results — same cycle
// count, same full counter bundle, same event history. A divergence means a
// component slept through a cycle in which the dense kernel would have made
// progress (a missed wake) or mis-reconstructed a per-cycle counter.
func TestSparseDenseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-checking every workload is slow")
	}
	for _, sch := range equivSchemes() {
		for _, wl := range Workloads() {
			sch, wl := sch, wl
			t.Run(sch.Name+"/"+wl.Name, func(t *testing.T) {
				t.Parallel()
				var sparse, dense Results
				var sErr, dErr error
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					cfg := withCheck(ScaledConfig(Default16()).WithScheme(sch))
					sparse, sErr = RunWorkload(cfg, wl, ScaleTiny)
				}()
				go func() {
					defer wg.Done()
					cfg := withCheck(ScaledConfig(Default16()).WithScheme(sch))
					cfg.DenseKernel = true
					dense, dErr = RunWorkload(cfg, wl, ScaleTiny)
				}()
				wg.Wait()
				if sErr != nil || dErr != nil {
					t.Fatalf("run failed: sparse=%v dense=%v", sErr, dErr)
				}
				checkIdentical(t, "sparse", "dense", sparse, dense)
			})
		}
	}
}

// TestParallelEquivalence is the short-mode-capable slice of the kernel
// oracle: wake-driven vs dense across all equivalence schemes on two
// contrasting workloads (high-sharing cachebw, irregular bfs) at 16 cores,
// and — outside short mode — on the 64-core mesh as well. (The name dates
// from when its second arm was the since-deleted parallel executor; the
// matrix, and so every subtest name, is unchanged.)
func TestParallelEquivalence(t *testing.T) {
	coreCounts := []int{16}
	if !testing.Short() {
		coreCounts = append(coreCounts, 64)
	}
	for _, cores := range coreCounts {
		schemes := equivSchemes()
		if cores == 64 {
			// The bare-push ablation simulates ~1.3M cycles at 64 cores on
			// cachebw — unfiltered pushes congest the mesh, a modeled result
			// already cross-checked at 16 cores above — which is ~45x the
			// cost of every other cell in this matrix. MSP keeps a push
			// scheme in the 64-core matrix and adds PushAck-protocol
			// (directory P-state) coverage at scale instead of repeating a
			// second ProtoOrdPush variant.
			schemes = []Scheme{Baseline(), MSP(), OrdPush()}
		}
		for _, sch := range schemes {
			for _, wlName := range []string{"cachebw", "bfs"} {
				cores, sch, wlName := cores, sch, wlName
				t.Run(fmt.Sprintf("%dc/%s/%s", cores, sch.Name, wlName), func(t *testing.T) {
					t.Parallel()
					base := Default16()
					if cores == 64 {
						base = Default64()
					}
					cfg := withCheck(ScaledConfig(base).WithScheme(sch))
					sparse, err := Run(cfg, wlName, ScaleTiny)
					if err != nil {
						t.Fatal(err)
					}
					dense, err := Run(withDense(cfg), wlName, ScaleTiny)
					if err != nil {
						t.Fatal(err)
					}
					checkIdentical(t, "sparse", "dense", sparse, dense)
				})
			}
		}
	}
}

// TestManycoreEquivalence is the scale point of the kernel oracle: on the
// 256-core 16x16 mesh (the largest supported machine), the sparse and dense
// kernels must still produce byte-identical results down to the full event
// history.
func TestManycoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("256-core cross-check is slow")
	}
	base := ScaledConfig(Default256()).WithScheme(OrdPush())
	// The structural checker sweep walks all 256 tiles; at the default
	// 64-cycle period it dominates this test's runtime. A 512-cycle period
	// keeps every structural invariant checked (and the event-driven layer
	// at full rate) at an eighth of the sweep cost.
	base.CheckEvery = 512
	var sparse, dense Results
	var sErr, dErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sparse, sErr = Run(withCheck(base), "cachebw", ScaleTiny)
	}()
	go func() {
		defer wg.Done()
		cfg := withCheck(base)
		cfg.DenseKernel = true
		dense, dErr = Run(cfg, "cachebw", ScaleTiny)
	}()
	wg.Wait()
	if sErr != nil || dErr != nil {
		t.Fatalf("run failed: sparse=%v dense=%v", sErr, dErr)
	}
	checkIdentical(t, "sparse", "dense", sparse, dense)
}

// TestKernelDeterminism runs the same configuration twice and requires
// fully identical Results (cycles and every counter): the wake-driven
// scheduler must not introduce any ordering nondeterminism.
func TestKernelDeterminism(t *testing.T) {
	for _, sch := range equivSchemes() {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			t.Parallel()
			cfg := withCheck(ScaledConfig(Default16()).WithScheme(sch))
			a, err := Run(cfg, "cachebw", ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg, "cachebw", ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			if a.Cycles != b.Cycles {
				t.Errorf("cycle count not deterministic: %d vs %d", a.Cycles, b.Cycles)
			}
			if !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Errorf("stats not deterministic:\nfirst:  %+v\nsecond: %+v", a.Stats, b.Stats)
			}
		})
	}
}
