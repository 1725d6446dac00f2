package pushmulticast

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// inertKind is the reason a configuration field may leave every audited run
// unchanged.
type inertKind int

const (
	// observability: the field changes what a run reports about itself (the
	// trace ring, the checker, the Fig 4 sharer-gap record), never the
	// machine: cycles and every other counter stay identical.
	observability inertKind = iota + 1
	// mustNotMove: the field selects how a run is computed, never what it
	// computes: cycles, Stats and trace hash stay identical.
	mustNotMove
	// derived: WithScheme writes the field from Scheme, and Validate refuses
	// it set any other way.
	derived
	// identity: the field labels a run; cycles, Stats and trace hash stay
	// identical.
	identity
)

// inertFields is the audit's allowlist: every Config field, by dotted path,
// that may move nothing on the audit runs, with its reason. with, when set,
// is applied to both sides of the comparison, so that the field has
// something to act on.
var inertFields = map[string]struct {
	kind inertKind
	with func(*Config)
}{
	"Check":           {kind: observability},
	"TraceN":          {kind: observability},
	"TraceSharerGaps": {kind: observability},
	"DenseKernel":     {kind: mustNotMove},
	// The structural scan period only means something with the checker on;
	// 64 is its default.
	"CheckEvery": {kind: mustNotMove, with: func(c *Config) { c.Check, c.CheckEvery = true, 64 }},
	// Read by nothing; benchmark/measure.go still assigns it (ROADMAP 5a).
	"ParallelWorkers":     {kind: mustNotMove},
	"NoC.FilterEnabled":   {kind: derived},
	"NoC.OrdPushInvStall": {kind: derived},
	"Scheme.Name":         {kind: identity},
}

// auditRuns is the canonical run set, cheapest first: a field's walk stops at
// the first run it moves. The lossy run arms the transport and the MSHR retry
// timers; pathfinder at quick scale is the one run whose working set presses
// the LLC and the store buffer. The last run shrinks the LLC slices 16x so
// shared lines are evicted and refetched, the one case the §VI sharer
// predictor (Scheme.PredictPush) acts on; nothing at tiny scale does that
// unassisted.
var auditRuns = []struct {
	spec RunSpec
	edit func(*Config)
	note string // names the edit in the log
}{
	{spec: RunSpec{Scale: "tiny", Scheme: "Baseline", Workload: WorkloadSpec{Name: "cachebw"}}},
	{spec: RunSpec{Scale: "tiny", Scheme: "OrdPush", Workload: WorkloadSpec{Name: "cachebw"}}},
	{spec: RunSpec{Scale: "tiny", Scheme: "PushAck", Workload: WorkloadSpec{Name: "bfs"}}},
	{spec: RunSpec{Scale: "tiny", Scheme: "OrdPush", Workload: WorkloadSpec{Name: "bfs"}, Faults: &FaultSpec{LossyPerMille: 10, Seed: 1}}},
	{spec: RunSpec{Scale: "quick", Scheme: "OrdPush", Workload: WorkloadSpec{Name: "pathfinder"}}},
	{spec: RunSpec{Scale: "tiny", Scheme: "OrdPush", Workload: WorkloadSpec{Name: "bfs"}},
		edit: func(c *Config) { c.LLCSliceSize /= 16 }, note: "LLC/16"},
}

// configFields lists every settable leaf of Config by dotted path, descending
// into the nested NoC and Scheme.
func configFields() []string {
	var out []string
	var walk func(t reflect.Type, prefix string)
	walk = func(t reflect.Type, prefix string) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			switch {
			case !f.IsExported():
			case f.Type.Kind() == reflect.Struct:
				walk(f.Type, prefix+f.Name+".")
			default:
				out = append(out, prefix+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Config{}), "")
	return out
}

// fieldAt returns the settable field of c at a dotted path.
func fieldAt(c *Config, path string) reflect.Value {
	v := reflect.ValueOf(c).Elem()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// perturbations returns the values the audit tries on one field, in order: a
// bool flips; a number is halved, set to 1 (a capacity shrinks toward 1) and
// doubled (a latency grows), and 0 becomes 1; a name changes; the fault plan
// toggles between none and a 10 per-mille lossy one. An error names a field
// of a kind the audit cannot perturb.
func perturbations(path string, cfg Config) ([]reflect.Value, error) {
	v := fieldAt(&cfg, path)
	var vals []reflect.Value
	switch v.Kind() {
	case reflect.Bool:
		vals = append(vals, reflect.ValueOf(!v.Bool()))
	case reflect.Int:
		for _, n := range scaled(v.Int()) {
			vals = append(vals, reflect.ValueOf(n).Convert(v.Type()))
		}
	case reflect.Uint, reflect.Uint8:
		for _, n := range scaled(int64(v.Uint())) {
			vals = append(vals, reflect.ValueOf(uint64(n)).Convert(v.Type()))
		}
	case reflect.String:
		vals = append(vals, reflect.ValueOf(v.String()+"'"))
	case reflect.Pointer:
		if v.Type() != reflect.TypeOf(cfg.Faults) {
			return nil, fmt.Errorf("%s: no perturbation for a %s", path, v.Type())
		}
		var plan *FaultPlan
		if v.IsNil() {
			p := GenerateLossyPlan(cfg.Tiles(), 1, 10)
			plan = &p
		}
		vals = append(vals, reflect.ValueOf(plan))
	default:
		return nil, fmt.Errorf("%s: no perturbation for a %s", path, v.Type())
	}
	return vals, nil
}

// setField sets one field of c. A Scheme field is set the one legal way,
// through WithScheme, keeping the knob values WithScheme would otherwise
// reset.
func setField(c *Config, path string, val reflect.Value) {
	fieldAt(c, path).Set(val)
	if strings.HasPrefix(path, "Scheme.") {
		tpc, tw := c.TPCThreshold, c.TimeWindow
		*c = c.WithScheme(c.Scheme)
		c.TPCThreshold, c.TimeWindow = tpc, tw
	}
}

// shown renders a perturbation value for the log.
func shown(v reflect.Value) any {
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return "no fault plan"
		}
		return "a lossy plan"
	}
	return v.Interface()
}

// scaled is the numeric rule of perturbations.
func scaled(n int64) []int64 {
	switch {
	case n == 0:
		return []int64{1}
	case n <= 2:
		return []int64{n - 1, 2 * n}
	}
	return []int64{n / 2, 1, 2 * n}
}

// outcome is what the audit compares between two runs of one workload.
type outcome struct {
	Results
	err error
}

// moves names the first thing that differs between two outcomes — the
// error, the cycle count, the counters, the event history — or "" when
// nothing does. gaps includes the sharer-gap record among the counters.
func (o outcome) moves(p outcome, gaps bool) string {
	if o.err != nil || p.err != nil {
		if fmt.Sprint(o.err) != fmt.Sprint(p.err) {
			return fmt.Sprintf("the error (%v against %v)", o.err, p.err)
		}
		return ""
	}
	a, b := *o.Stats, *p.Stats
	if !gaps {
		a.SharerGaps, b.SharerGaps = nil, nil
	}
	switch {
	case o.Cycles != p.Cycles:
		return fmt.Sprintf("cycles (%d against %d)", o.Cycles, p.Cycles)
	case !reflect.DeepEqual(a, b):
		return "Stats"
	case o.TraceHash != p.TraceHash || o.TraceEvents != p.TraceEvents:
		return "the trace hash"
	}
	return ""
}

// auditBase is one audit run, resolved and run once unperturbed.
type auditBase struct {
	name string
	cfg  Config
	run  ResolvedRun
	ref  outcome
}

// simulate runs cfg on the base's workload. An abort with ErrUnrecoverable is
// an outcome (the retry budget's); any other error is a configuration
// Validate accepted and the machine cannot run.
func (b auditBase) simulate(t *testing.T, cfg Config) outcome {
	t.Helper()
	res, err := RunWorkload(cfg, b.run.Workload, b.run.Scale)
	if err != nil && !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("%s: Validate accepted a configuration the run cannot finish: %v", b.name, err)
	}
	return outcome{res, err}
}

// TestConfigAudit holds the configuration surface to the rule that every
// setting changes a result. Each settable Config field (with the nested NoC
// and Scheme), perturbed alone on the canonical runs, must move a run's
// cycles, Stats or trace hash, or be on inertFields, whose entries are held
// to their category: observability leaves cycles and counters identical,
// must-not-move and identity leave the trace hash identical too, derived is
// refused by Validate. Each KnobSpec field, set alone, must change the
// resolved Config, in fields the walk proves live: a wire knob accepted and
// then ignored fails. -short skips the walk of live fields and checks the
// allowlist on the first run only.
func TestConfigAudit(t *testing.T) {
	var bases []auditBase
	for _, r := range auditRuns {
		spec := r.spec
		spec.TraceN = 64
		rr, err := spec.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		b := auditBase{name: fmt.Sprintf("%s %s/%s", spec.Workload.Name, spec.Scale, spec.Scheme), cfg: rr.Config, run: rr}
		if spec.Faults != nil {
			b.name += fmt.Sprintf(" lossy %d‰", spec.Faults.LossyPerMille)
		}
		if r.edit != nil {
			r.edit(&b.cfg)
			b.name += " " + r.note
		}
		if b.ref = b.simulate(t, b.cfg); b.ref.err != nil {
			t.Fatalf("%s: %v", b.name, b.ref.err)
		}
		bases = append(bases, b)
		if testing.Short() {
			break
		}
	}
	fields := configFields()
	listed := map[string]bool{}
	for _, path := range fields {
		listed[path] = true
	}
	for path := range inertFields {
		if !listed[path] {
			t.Errorf("inertFields lists %s, which Config no longer has", path)
		}
	}

	t.Run("knobs", func(t *testing.T) { auditKnobs(t, fields) })
	for _, path := range fields {
		t.Run(path, func(t *testing.T) {
			entry, inert := inertFields[path]
			if !inert && testing.Short() {
				t.Skip("the walk of live fields runs without -short")
			}
			t.Parallel()
			var refused error
			for _, b := range bases {
				cfg, ref := b.cfg, b.ref
				if entry.with != nil {
					entry.with(&cfg)
					ref = b.simulate(t, cfg)
				}
				vals, err := perturbations(path, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, val := range vals {
					c := cfg
					setField(&c, path, val)
					if err := c.Validate(); err != nil {
						refused = err
						continue
					}
					if entry.kind == derived {
						t.Fatalf("%s: set alone, Validate accepted it; WithScheme must be its only writer", b.name)
					}
					what := b.simulate(t, c).moves(ref, entry.kind != observability)
					if !inert {
						if what != "" {
							t.Logf("%s set to %v moved %s on %s", path, shown(val), what, b.name)
							return // it earns its keep
						}
						continue
					}
					if what != "" {
						t.Errorf("%s: allowlisted as inert, but moved %s", b.name, what)
					}
					break // an allowlisted field answers for its first perturbation
				}
			}
			if !inert {
				t.Errorf("moved nothing on any audit run (last refusal: %v); delete it, or add it to inertFields with a reason", refused)
			}
		})
	}
}

// auditKnobs resolves the first audit run with each KnobSpec field set alone:
// the resolved Config must differ from the run's own, and only in fields that
// are not on inertFields.
func auditKnobs(t *testing.T, fields []string) {
	base, err := auditRuns[0].spec.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	kt := reflect.TypeOf(KnobSpec{})
	for i := 0; i < kt.NumField(); i++ {
		name := kt.Field(i).Name
		if kt.Field(i).Type.Kind() != reflect.Int {
			t.Errorf("KnobSpec.%s: no probe for a %s", name, kt.Field(i).Type)
			continue
		}
		var changed []string
		for _, v := range []int64{64, 256, 1024} {
			var k KnobSpec
			reflect.ValueOf(&k).Elem().Field(i).SetInt(v)
			spec := auditRuns[0].spec
			spec.Knobs = &k
			rr, err := spec.Resolve(nil)
			if err != nil {
				continue
			}
			for _, path := range fields {
				a, b := fieldAt(&base.Config, path), fieldAt(&rr.Config, path)
				if !reflect.DeepEqual(a.Interface(), b.Interface()) {
					changed = append(changed, path)
				}
			}
			if len(changed) > 0 {
				break
			}
		}
		if len(changed) == 0 {
			t.Errorf("KnobSpec.%s is accepted and changes nothing in the resolved Config", name)
		}
		for _, path := range changed {
			if _, inert := inertFields[path]; inert {
				t.Errorf("KnobSpec.%s sets %s, which the audit allows to move nothing", name, path)
			}
		}
	}
}
