package pushmulticast

import (
	"sync"
	"testing"
)

// collectiveSchemes are the scheme points the collective cross-check covers:
// the prefetching baseline and both push designs the collective figure
// compares (ExpCollective).
func collectiveSchemes() []Scheme {
	return []Scheme{Baseline(), PushAck(), OrdPush()}
}

// TestCollectiveEquivalence extends the kernel correctness contract to the
// collective family: for every collective at default parameters and every
// compared scheme, the wake-driven and dense kernels must produce
// byte-identical results — cycle count, full counter bundle, and the complete
// causal event history (trace hash and event count) — with the invariant
// checker armed.
func TestCollectiveEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-checking every collective is slow")
	}
	for _, sch := range collectiveSchemes() {
		for _, wl := range CollectiveWorkloads() {
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

// TestCollectiveParamEquivalence covers the parameterized (non-default)
// corners of the family: partial participation (idle cores at the barriers)
// and alternate fan-outs must also replay byte-identically wake-driven vs
// dense.
func TestCollectiveParamEquivalence(t *testing.T) {
	variants := []struct {
		name string
		p    CollectiveParams
	}{
		{"allreduce", CollectiveParams{Sharers: 8, Fanout: 2}},
		{"broadcast", CollectiveParams{Fanout: 2}},
		{"prodcons", CollectiveParams{Sharers: 12, Fanout: 5}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			wl, err := CollectiveWorkload(v.name, v.p)
			if err != nil {
				t.Fatal(err)
			}
			cfg := withCheck(ScaledConfig(Default16()).WithScheme(OrdPush()))
			sparse, err := RunWorkload(cfg, wl, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := RunWorkload(withDense(cfg), wl, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, "sparse", "dense", sparse, dense)
		})
	}
}

// TestCollectivePushesFire pins the family's reason to exist: the fan-out
// collectives (broadcast, prodcons) must actually trigger pushes under
// OrdPush — their consumers re-reference producer lines past the private L2.
// The ring collectives are honestly unicast (one reader per buffer), so no
// assertion is made for them.
func TestCollectivePushesFire(t *testing.T) {
	for _, name := range []string{"broadcast", "prodcons"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(ScaledConfig(Default16()).WithScheme(OrdPush()), name, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Cache.PushesTriggered == 0 {
				t.Errorf("%s triggered no pushes under OrdPush; the sharing structure is broken", name)
			}
		})
	}
}

// TestCollectiveLossyReplay extends the recovery-layer determinism contract
// to the collectives: a generated lossy plan must replay byte-identically
// across the wake-driven and dense kernels, and the plan must actually bite.
func TestCollectiveLossyReplay(t *testing.T) {
	plan := GenerateLossyPlan(16, 9, 40)
	for _, name := range []string{"broadcast", "prodcons"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mkCfg := func() Config {
				cfg := withCheck(ScaledConfig(Default16()).WithScheme(OrdPush()))
				cfg.Faults = &plan
				return cfg
			}
			sparse, err := Run(mkCfg(), name, ScaleTiny)
			if err != nil {
				t.Fatalf("sparse: %v", err)
			}
			dense, err := Run(withDense(mkCfg()), name, ScaleTiny)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			checkIdentical(t, "sparse", "dense", sparse, dense)
			loss := sparse.Stats.Net.MsgDropped + sparse.Stats.Net.DupSuppressed +
				sparse.Stats.Net.CorruptDetected
			if loss == 0 {
				t.Error("no lossy event ever fired; the plan never bit")
			}
		})
	}
}

// TestCollectiveMemoKeyParams pins the memo-identity fix that rode in with
// the family: two collectives sharing a Name but differing in parameters
// must occupy distinct memo entries, while identical parameters must alias.
func TestCollectiveMemoKeyParams(t *testing.T) {
	cfg := ScaledConfig(Default16()).WithScheme(OrdPush())
	mk := func(p CollectiveParams) memoKey {
		wl, err := CollectiveWorkload("broadcast", p)
		if err != nil {
			t.Fatal(err)
		}
		return NewRun(cfg, wl, ScaleTiny, nil).key()
	}
	f2, f4 := mk(CollectiveParams{Fanout: 2}), mk(CollectiveParams{Fanout: 4})
	if f2 == f4 {
		t.Error("collectives with different fanout share a memo key")
	}
	if again := mk(CollectiveParams{Fanout: 2}); again != f2 {
		t.Error("identical collective parameters got distinct memo keys")
	}
}
