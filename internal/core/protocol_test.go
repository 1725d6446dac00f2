package core

import (
	"testing"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/workload"
)

// driver wraps a coreless system for directed protocol scenarios.
type driver struct {
	t   *testing.T
	sys *System
}

func newDriver(t *testing.T, sch config.Scheme) *driver {
	t.Helper()
	cfg := tinyConfig(sch)
	sys, err := Build(cfg, workload.Workload{}, workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	return &driver{t: t, sys: sys}
}

func (d *driver) step(n int) {
	for i := 0; i < n; i++ {
		d.sys.Eng.Step()
	}
}

func (d *driver) load(core int, addr uint64) {
	d.t.Helper()
	if _, acc := d.sys.L2s[core].Load(addr, d.sys.Eng.Now()); !acc {
		d.t.Fatalf("load %#x at core %d not accepted", addr, core)
	}
}

func (d *driver) store(core int, addr uint64) {
	d.t.Helper()
	if _, acc := d.sys.L2s[core].Store(addr, d.sys.Eng.Now()); !acc {
		d.t.Fatalf("store %#x at core %d not accepted", addr, core)
	}
}

func (d *driver) state(core int, addr uint64) cache.State {
	st := cache.StateI
	d.sys.L2s[core].ForEachLine(func(tag uint64, l *cache.Line) {
		if tag == addr {
			st = l.State
		}
	})
	return st
}

func (d *driver) dirState(addr uint64) (cache.State, noc.DestSet, uint64) {
	home := d.sys.Cfg.HomeSlice(addr)
	var st cache.State
	var sharers noc.DestSet
	var ver uint64
	if l := d.sys.LLCs[home].Line(addr); l != nil {
		st, sharers, ver = l.State, d.sys.LLCs[home].Dir(l).Sharers(), l.Version
	}
	return st, sharers, ver
}

func (d *driver) check() {
	d.t.Helper()
	if err := d.sys.CheckCoherence(); err != nil {
		d.t.Fatal(err)
	}
}

const lineX = uint64(1<<30) + 64

func TestReadSharedEstablishesSharers(t *testing.T) {
	d := newDriver(t, config.OrdPush())
	for c := 0; c < 4; c++ {
		d.load(c, lineX)
		d.step(300)
	}
	st, sharers, _ := d.dirState(lineX)
	if st != cache.StateLV || sharers.Count() != 4 {
		t.Fatalf("directory %v sharers=%b, want LV with 4 sharers", st, sharers)
	}
	for c := 0; c < 4; c++ {
		if s := d.state(c, lineX); s != cache.StateS {
			t.Fatalf("core %d in %v, want S", c, s)
		}
	}
	d.check()
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := newDriver(t, config.OrdPush())
	for c := 0; c < 3; c++ {
		d.load(c, lineX)
		d.step(300)
	}
	d.store(3, lineX)
	d.step(600)
	st, _, _ := d.dirState(lineX)
	if st != cache.StateLM {
		t.Fatalf("directory %v, want LM", st)
	}
	if s := d.state(3, lineX); s != cache.StateM {
		t.Fatalf("writer in %v, want M", s)
	}
	for c := 0; c < 3; c++ {
		if s := d.state(c, lineX); s != cache.StateI {
			t.Fatalf("old sharer %d in %v, want I", c, s)
		}
	}
	d.check()
}

func TestUpgradeFromShared(t *testing.T) {
	d := newDriver(t, config.OrdPush())
	d.load(2, lineX)
	d.step(300)
	d.store(2, lineX)
	d.step(600)
	if s := d.state(2, lineX); s != cache.StateM {
		t.Fatalf("upgrader in %v, want M", s)
	}
	_, _, ver := d.dirState(lineX)
	if ver != 0 {
		t.Fatalf("directory version %d before writeback, want 0", ver)
	}
	d.check()
}

func TestWriteAfterWriteMigratesOwnership(t *testing.T) {
	d := newDriver(t, config.OrdPush())
	d.store(0, lineX)
	d.step(600)
	d.store(1, lineX)
	d.step(800)
	if s := d.state(1, lineX); s != cache.StateM {
		t.Fatalf("second writer in %v, want M", s)
	}
	if s := d.state(0, lineX); s != cache.StateI {
		t.Fatalf("first writer in %v, want I", s)
	}
	// Recall carried the first writer's version (1 store) to the second.
	d.load(1, lineX)
	d.step(100)
	d.check()
}

func TestReadAfterWriteObservesNewVersion(t *testing.T) {
	d := newDriver(t, config.OrdPush())
	d.store(0, lineX)
	d.step(600)
	d.load(5, lineX)
	d.step(800)
	if s := d.state(5, lineX); s != cache.StateS {
		t.Fatalf("reader in %v, want S", s)
	}
	_, _, ver := d.dirState(lineX)
	if ver != 1 {
		t.Fatalf("directory version %d after recall, want 1", ver)
	}
	d.check()
}

func TestPushAckPStateBlocksWrite(t *testing.T) {
	d := newDriver(t, config.PushAck())
	// Establish sharers 0..2, evict X from core 0, re-reference to push.
	for c := 0; c < 3; c++ {
		d.load(c, lineX)
		d.step(300)
	}
	sets := uint64(d.sys.Cfg.L2Size / noc.LineBytes / d.sys.Cfg.L2Ways)
	for k := uint64(1); k <= 18; k++ {
		d.load(0, lineX+k*sets*64)
		d.step(200)
	}
	d.load(0, lineX) // triggers a push; directory enters P
	// Write from core 3 races the push; it must not complete before every
	// PushAck arrives, and coherence must hold throughout.
	d.store(3, lineX)
	for i := 0; i < 40; i++ {
		d.step(20)
		d.check()
	}
	if s := d.state(3, lineX); s != cache.StateM {
		t.Fatalf("writer in %v after drain, want M", s)
	}
	if d.sys.St.Cache.PushesTriggered == 0 {
		t.Fatal("no push was triggered")
	}
	d.check()
}

func TestLLCEvictionBackInvalidatesSharers(t *testing.T) {
	d := newDriver(t, config.NoPrefetch())
	// Fill one LLC set of X's home slice with sharer-held lines, then
	// force an eviction by touching more lines mapping to the same set.
	home := d.sys.Cfg.HomeSlice(lineX)
	slices := uint64(d.sys.Cfg.Tiles())
	llcSets := uint64(d.sys.Cfg.LLCSliceSize / noc.LineBytes / d.sys.Cfg.LLCWays)
	stride := llcSets * slices * 64 // same slice, same LLC set
	d.load(1, lineX)
	d.step(400)
	if st, _, _ := d.dirState(lineX); st != cache.StateLV {
		t.Fatalf("precondition: dir %v", st)
	}
	for k := uint64(1); k <= 18; k++ {
		d.load(2, lineX+k*stride)
		d.step(400)
	}
	// X must eventually be evicted from the LLC; its sharer copy at core 1
	// must be gone too (inclusive back-invalidation).
	if st, _, _ := d.dirState(lineX); st != cache.StateI && st != cache.StateLFetch {
		// The line may legitimately survive if LRU kept it; force checks
		// only when gone.
		t.Skipf("LLC kept X (state %v); eviction not exercised", st)
	}
	if s := d.state(1, lineX); s != cache.StateI {
		t.Fatalf("sharer copy survived LLC eviction: %v", s)
	}
	d.check()
	_ = home
}

func TestSilentEvictionLeavesStaleSharer(t *testing.T) {
	// The directory sharer list is a conservative superset after silent S
	// eviction — the property push speculation relies on.
	d := newDriver(t, config.OrdPush())
	d.load(0, lineX)
	d.step(300)
	sets := uint64(d.sys.Cfg.L2Size / noc.LineBytes / d.sys.Cfg.L2Ways)
	for k := uint64(1); k <= 18; k++ {
		d.load(0, lineX+k*sets*64)
		d.step(200)
	}
	if s := d.state(0, lineX); s != cache.StateI {
		t.Fatalf("line not silently evicted: %v", s)
	}
	_, sharers, _ := d.dirState(lineX)
	if !sharers.Has(0) {
		t.Fatal("directory dropped the silent-evictor from the sharer list")
	}
	d.check()
}

func TestPushInstallLeavesCleanCache(t *testing.T) {
	d := newDriver(t, config.OrdPush())
	d.load(0, lineX)
	d.step(300)
	d.load(1, lineX)
	d.step(300)
	sets := uint64(d.sys.Cfg.L2Size / noc.LineBytes / d.sys.Cfg.L2Ways)
	for k := uint64(1); k <= 18; k++ {
		d.load(1, lineX+k*sets*64)
		d.step(200)
	}
	d.load(1, lineX) // re-reference triggers push to {0,1}
	d.step(600)
	if err := d.sys.Drain(50_000); err != nil {
		t.Fatal(err)
	}
	d.check()
}
