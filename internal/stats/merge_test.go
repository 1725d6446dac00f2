package stats

import (
	"reflect"
	"testing"
)

// fillCounters walks a struct by reflection and assigns a distinct nonzero
// value to every uint64 counter it reaches (through nested structs, arrays,
// and slices), returning the running counter so call sites can chain fills.
func fillCounters(v reflect.Value, next uint64) uint64 {
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(next)
		return next + 1
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			next = fillCounters(v.Field(i), next)
		}
		return next
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			next = fillCounters(v.Index(i), next)
		}
		return next
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Uint64 {
			return next
		}
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			next = fillCounters(v.Index(i), next)
		}
		return next
	default:
		return next
	}
}

// TestAddCoversEveryCounter guards Add against silently dropping counters as
// the bundle grows: it sets every uint64 field of Network, Cache, and Core to
// a distinct nonzero value by reflection, Adds the bundle into a zero one,
// and requires the result to be identical. A counter a future change adds to
// any of the three structs but forgets to merge in Add fails this test
// without the test needing to know the field exists.
func TestAddCoversEveryCounter(t *testing.T) {
	src := New()
	n := fillCounters(reflect.ValueOf(&src.Net).Elem(), 1)
	n = fillCounters(reflect.ValueOf(&src.Cache).Elem(), n)
	n = fillCounters(reflect.ValueOf(&src.Core).Elem(), n)
	if n < 2 {
		t.Fatal("reflection walk found no counters")
	}

	dst := New()
	dst.Add(src)
	if !reflect.DeepEqual(dst.Net, src.Net) {
		t.Errorf("Network merge incomplete:\nsrc: %+v\ndst: %+v", src.Net, dst.Net)
	}
	if !reflect.DeepEqual(dst.Cache, src.Cache) {
		t.Errorf("Cache merge incomplete:\nsrc: %+v\ndst: %+v", src.Cache, dst.Cache)
	}
	if !reflect.DeepEqual(dst.Core, src.Core) {
		t.Errorf("Core merge incomplete:\nsrc: %+v\ndst: %+v", src.Core, dst.Core)
	}

	// Adding twice must double every counter (sums, not overwrites).
	dst.Add(src)
	if dst.Net.FilteredRequests != 2*src.Net.FilteredRequests ||
		dst.Cache.L1Misses != 2*src.Cache.L1Misses ||
		dst.Core.Instructions != 2*src.Core.Instructions {
		t.Error("second Add did not accumulate (counters overwritten instead of summed)")
	}
}
