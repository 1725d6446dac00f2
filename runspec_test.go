package pushmulticast

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestResolveMalformed is the one validator's contract, driven by the table
// the pushsim and simd suites share: every bad description is refused with a
// one-line diagnostic naming the offender, before anything is simulated.
func TestResolveMalformed(t *testing.T) {
	ClearRunMemo()
	t.Cleanup(ClearRunMemo)
	for _, tc := range MalformedRunSpecs() {
		if tc.ExtraArgs != nil {
			continue // a flag spelling; cmd/pushsim runs it
		}
		t.Run(tc.Name, func(t *testing.T) {
			data, err := json.Marshal(tc.Spec)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := DecodeRunSpec(tc.WithExtraJSON(data))
			if err == nil {
				_, err = spec.Resolve(nil)
			}
			if err == nil {
				t.Fatal("Resolve accepted a malformed description")
			}
			if strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), tc.Want) {
				t.Fatalf("diagnostic %q; want one line mentioning %q", err, tc.Want)
			}
		})
	}
	if st := RunMemoStats(); st.Misses != 0 {
		t.Fatalf("malformed descriptions started %d simulations", st.Misses)
	}
}

// TestResolveExamples pins what a resolved run is: a configuration that
// validates, an identity that is stable across resolves and distinct across
// descriptions, and — where ExpOptions can express the description — the
// very run the figures' baseConfig().WithScheme() path builds.
func TestResolveExamples(t *testing.T) {
	seen := map[string]string{}
	for _, tc := range ExampleRunSpecs() {
		t.Run(tc.Name, func(t *testing.T) {
			run, err := tc.Spec.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Config.Validate(); err != nil {
				t.Fatalf("resolved config does not validate: %v", err)
			}
			again, err := tc.Spec.Resolve(nil)
			if err != nil || again.Identity() != run.Identity() || !reflect.DeepEqual(again.Config, run.Config) {
				t.Fatalf("second resolve diverged: %v, identity %s vs %s", err, again.Identity(), run.Identity())
			}
			if prev, dup := seen[run.Identity()]; dup {
				t.Fatalf("identity %s shared with %s", run.Identity(), prev)
			}
			seen[run.Identity()] = tc.Name

			s := tc.Spec
			if s.Knobs != nil || s.TraceN != 0 || s.Faults != nil && s.Faults.Intensity > 0 && s.Faults.LossyPerMille > 0 {
				return // not expressible as ExpOptions
			}
			o := ExpOptions{Cores: s.Cores, Scale: run.Scale, Check: s.Check}.withDefaults()
			if f := s.Faults; f != nil {
				seed := max(f.Seed, 1)
				plan := GenerateFaultPlan(o.Cores, seed, f.Intensity)
				if f.LossyPerMille > 0 {
					plan = GenerateLossyPlan(o.Cores, seed, f.LossyPerMille)
				}
				o.Faults = &plan
			}
			base, err := o.baseConfig()
			if err != nil {
				t.Fatal(err)
			}
			fig := NewRun(base.WithScheme(run.Config.Scheme), run.Workload, o.Scale, nil)
			if fig.Identity() != run.Identity() || !reflect.DeepEqual(fig.Config, run.Config) {
				t.Fatalf("figure path built a different run:\n figures %+v\n resolve %+v", fig.Config, run.Config)
			}
		})
	}
}

// TestIdentityIndependentOfHost pins that a run's identity is a property of
// its description alone: the coordinator that formats it and the replica that
// recomputes it may have different processor counts. Resolve used to write
// min(sim_workers, GOMAXPROCS) into the configuration before the memo key was
// formatted, so one description had one identity per host size.
func TestIdentityIndependentOfHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range ExampleRunSpecs() {
		var ids [2]string
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			run, err := tc.Spec.Resolve(nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			ids[i] = run.Identity()
		}
		if ids[0] != ids[1] {
			t.Errorf("%s: identity %s with 1 processor, %s with 4", tc.Name, ids[0], ids[1])
		}
	}
}

// FuzzRunSpec feeds arbitrary bytes through the strict decoder and the one
// validator: the outcome is a one-line error or a run whose configuration
// validates and whose identity is stable across two resolves — never a
// panic, never a half-built run.
func FuzzRunSpec(f *testing.F) {
	for _, table := range [][]RunSpecCase{ExampleRunSpecs(), MalformedRunSpecs()} {
		for _, tc := range table {
			data, err := json.Marshal(tc.Spec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(tc.WithExtraJSON(data))
		}
	}
	// The README's simd examples, one run each, and near misses of the schema.
	f.Add([]byte(`{"scale":"tiny","scheme":"Baseline","workload":{"name":"broadcast","fanout":4}}`))
	f.Add([]byte(`{"scale":"tiny","scheme":"OrdPush","workload":{"name":"cachebw"},"warm_start":"0123456789abcdef"}`))
	f.Add([]byte(`{"scheems":"OrdPush"}`))
	f.Add([]byte(`{"scheme":"OrdPush","workload":{"name":"cachebw"},"knobs":{"tpc_threshold":1e99}}`))
	f.Add([]byte(`{"cores":-16,"faults":{"intensity":1e-320,"seed":18446744073709551615}}`))
	donor := func(id string) ([]byte, uint64, bool) {
		b := []byte("donor " + id)
		return b, SnapshotHash(b), id == "0123456789abcdef"
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeRunSpec(data)
		var run ResolvedRun
		if err == nil {
			run, err = spec.Resolve(donor)
		}
		if err != nil {
			if msg := err.Error(); msg == "" || strings.Contains(msg, "\n") {
				t.Fatalf("diagnostic is not one line: %q", msg)
			}
			return
		}
		if err := run.Config.Validate(); err != nil {
			t.Fatalf("resolved config does not validate: %v", err)
		}
		if run.Workload.Validate != nil {
			if err := run.Workload.Validate(run.Config.Tiles()); err != nil {
				t.Fatalf("resolved workload does not fit its machine: %v", err)
			}
		}
		again, err := spec.Resolve(donor)
		if err != nil || again.Identity() != run.Identity() {
			t.Fatalf("identity unstable across resolves: %v, %s vs %s", err, again.Identity(), run.Identity())
		}
	})
}
