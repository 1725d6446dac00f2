package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pushmulticast/internal/config"
	"pushmulticast/internal/fault"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/workload"
)

// field names one struct field by type and position; coverage is judged per
// field across every instance walked, so a field counts as described once
// the description has been handed it in some instance.
type field struct {
	t reflect.Type
	i int
}

func (f field) String() string { return f.t.String() + "." + f.t.Field(f.i).Name }

// coverage walks machine state with reflect and compares it with the
// addresses a recording codec was handed.
type coverage struct {
	marked  map[uintptr]bool // addresses the description accounted for
	walked  map[field]bool   // every untagged field met, by type
	covered map[field]bool   // ... and those whose address was marked somewhere
	filled  map[field]bool   // ... and the slices among those seen non-empty
	seen    map[seenKey]bool // structs already walked in this pass (cycles)
	badTags []string
}

type seenKey struct {
	t    reflect.Type
	addr uintptr
}

// ours reports whether t is declared in this module; foreign structs
// are opaque leaves judged by their own address.
func ours(t reflect.Type) bool { return strings.HasPrefix(t.PkgPath(), "pushmulticast") }

func (cv *coverage) walkStruct(v reflect.Value) {
	t := v.Type()
	if k := (seenKey{t, v.UnsafeAddr()}); cv.seen[k] {
		return
	} else {
		cv.seen[k] = true
	}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Type.Size() == 0 {
			continue
		}
		if tag, ok := sf.Tag.Lookup("snap"); ok {
			if !strings.HasPrefix(tag, "-,") || len(tag) < len("-,x") {
				cv.badTags = append(cv.badTags, fmt.Sprintf("%v: tag %q must be \"-,<reason>\"", field{t, i}, tag))
			}
			continue
		}
		cv.value(field{t, i}, v.Field(i))
	}
}

// value judges one field (or one element of an array field). Leaves must have
// been handed to the codec. So must pointers, interfaces, slices and maps —
// as themselves, through Mark or a helper that takes their address — and
// what they hold is then walked in turn; an unmarked one is never followed,
// so wiring left untagged is reported rather than chased.
func (cv *coverage) value(f field, v reflect.Value) {
	switch {
	case v.Kind() == reflect.Struct && ours(v.Type()):
		cv.walkStruct(v)
		return
	case v.Kind() == reflect.Array:
		for i := 0; i < v.Len(); i++ {
			cv.value(f, v.Index(i))
		}
		return
	}
	cv.walked[f] = true
	if !cv.marked[v.UnsafeAddr()] {
		return
	}
	cv.covered[f] = true
	if v.Kind() == reflect.Slice && v.Len() > 0 {
		cv.filled[f] = true
	}
	cv.follow(v)
}

// follow walks whatever a marked container or pointer holds.
func (cv *coverage) follow(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			cv.follow(v.Elem())
		}
	case reflect.Struct:
		if ours(v.Type()) && v.CanAddr() {
			cv.walkStruct(v)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len() && !cv.settled(v.Type().Elem()); i++ {
			cv.follow(v.Index(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			cv.follow(it.Value())
		}
	}
}

// settled reports that walking further elements of type t cannot change the
// verdict: t is a struct of leaves only, and every field of it is already
// covered. It keeps the walk from visiting every line of every cache array.
func (cv *coverage) settled(t reflect.Type) bool {
	if t.Kind() != reflect.Struct || !ours(t) {
		return false
	}
	for i := 0; i < t.NumField(); i++ {
		switch ft := t.Field(i).Type; ft.Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map, reflect.Struct:
			return false
		case reflect.Array:
			if k := ft.Elem().Kind(); k == reflect.Struct || k == reflect.Pointer || k == reflect.Array {
				return false
			}
		}
		if _, tagged := t.Field(i).Tag.Lookup("snap"); !tagged && !cv.covered[field{t, i}] {
			return false
		}
	}
	return true
}

// observe encodes s with a recording codec and folds what the description
// touched into the coverage.
func (cv *coverage) observe(t *testing.T, s *System) {
	t.Helper()
	cv.marked = map[uintptr]bool{}
	cv.seen = map[seenKey]bool{}
	c := snapshot.NewEncoder("", "", 0)
	c.Record(func(p any) { cv.marked[reflect.ValueOf(p).Pointer()] = true })
	s.state(c)
	// System is the root: its own fields hold the components (or are tagged),
	// and every component it holds is walked.
	root := reflect.ValueOf(s).Elem()
	for i := 0; i < root.NumField(); i++ {
		if _, tagged := root.Type().Field(i).Tag.Lookup("snap"); !tagged {
			cv.follow(root.Field(i))
		}
	}
}

// TestSnapshotDescribesEveryField is the completeness check behind "adding a
// state field is a one-line edit": every field of every stateful component
// struct is either handed to the codec by the component's description or
// tagged `snap:"-,<reason>"` (config, wiring, pool, scratch, derived,
// transient). A field that is neither — the forgotten-field bug — fails here
// by name. The machines below are chosen so that between them every optional
// component exists and every transient structure (in-flight packets, blocked
// lines' transaction records, retransmit windows, loss obligations) is
// populated at some barrier; mustFill names the slices that must be seen
// non-empty, so that what they hold is walked too.
func TestSnapshotDescribesEveryField(t *testing.T) {
	lossy := func(cfg config.System) config.System {
		plan := fault.GenerateLossyPlan(cfg.Tiles(), 7, 20)
		cfg.Faults = &plan
		cfg.Check, cfg.TraceN = true, 64
		return cfg
	}
	traced := func(cfg config.System) config.System { cfg.TraceSharerGaps = true; return cfg }
	cv := &coverage{walked: map[field]bool{}, covered: map[field]bool{}, filled: map[field]bool{}}
	for _, m := range []struct {
		scheme config.Scheme
		with   func(config.System) config.System
		wl     string
	}{
		{config.OrdPush(), lossy, "cachebw"},
		{config.Baseline(), traced, "cachebw"},
		{config.PredictivePush(), traced, "bfs"},
		// PushAck blocks lines in LP: up to 42 live records a slice.
		{config.PushAck(), func(cfg config.System) config.System { return cfg }, "broadcast"},
	} {
		cfg := m.with(config.Default16().Scaled(16).WithScheme(m.scheme))
		wl, err := workload.ByName(m.wl)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(cfg, wl, workload.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		for barrier := sim.Cycle(1500); barrier <= 12000 && !s.Finished(); barrier += 1500 {
			if err := s.RunTo(barrier, 0); err != nil {
				t.Fatal(err)
			}
			cv.observe(t, s)
		}
	}
	var missing []string
	for f := range cv.walked {
		if !cv.covered[f] {
			missing = append(missing, f.String())
		}
	}
	sort.Strings(missing)
	for _, f := range missing {
		t.Errorf("%s is neither described (handed to the snapshot codec) nor tagged `snap:\"-,<reason>\"`", f)
	}
	mustFill := map[string]bool{"cache.txn.readers": false, "cache.txn.parked": false}
	for f := range cv.filled {
		if _, ok := mustFill[f.String()]; ok {
			mustFill[f.String()] = true
		}
	}
	for name, seen := range mustFill {
		if !seen {
			t.Errorf("no barrier held a non-empty %s: the walk never reached what it holds", name)
		}
	}
	for _, msg := range cv.badTags {
		t.Error(msg)
	}
	t.Logf("%d fields described, %d walked", len(cv.covered), len(cv.walked))
	if len(cv.covered) < 250 {
		t.Errorf("only %d fields were seen described: the walk is not reaching the components", len(cv.covered))
	}
}
