package prefetch

import (
	"testing"

	"pushmulticast/internal/cache"
	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
)

// nopCore satisfies cache.Requestor.
type nopCore struct{}

func (nopCore) LoadDone(uint64, sim.Cycle)  {}
func (nopCore) StoreDone(uint64, sim.Cycle) {}

func testL2(t *testing.T) (*cache.L2, *sim.Engine) {
	t.Helper()
	cfg := config.Default16()
	st := stats.New()
	eng := sim.NewEngine(0, 0)
	net, err := noc.New(cfg.NoC, eng, st)
	if err != nil {
		t.Fatal(err)
	}
	l2 := cache.NewL2(0, &cfg, net, eng, st, nopCore{})
	return l2, eng
}

func TestBingoLearnsAndReplays(t *testing.T) {
	l2, _ := testL2(t)
	b := NewBingo(l2, 2048, 256)
	// First pass over more regions than the accumulation table holds, so
	// early regions are evicted and their footprints committed to the PHT.
	for line := uint64(0); line < 12*32; line++ {
		b.OnAccess(1<<30+line*64, sim.Cycle(line))
	}
	issuedAfterTrain := b.Issued()
	// Revisit the first region: its footprint must replay.
	b.OnAccess(1<<30, 1000)
	if b.Issued() <= issuedAfterTrain {
		t.Fatal("region revisit did not replay the footprint")
	}
}

func TestBingoNoReplayForColdRegion(t *testing.T) {
	l2, _ := testL2(t)
	b := NewBingo(l2, 2048, 256)
	b.OnAccess(1<<30, 0)
	if b.Issued() != 0 {
		t.Fatalf("cold region issued %d prefetches", b.Issued())
	}
}

func TestBingoPartialFootprint(t *testing.T) {
	l2, _ := testL2(t)
	b := NewBingo(l2, 2048, 256)
	// Touch only even lines of many regions, then revisit one.
	for r := uint64(0); r < 9; r++ {
		for i := uint64(0); i < 32; i += 2 {
			b.OnAccess(1<<30+r*2048+i*64, 0)
		}
	}
	before := b.Issued()
	b.OnAccess(1<<30, 10)
	replayed := b.Issued() - before
	if replayed == 0 || replayed > 16 {
		t.Fatalf("partial footprint replayed %d lines, want 1..16", replayed)
	}
}

func TestStrideDetectsStream(t *testing.T) {
	l2, _ := testL2(t)
	s := NewStride(l2, 16, 4)
	base := uint64(1 << 30)
	for i := uint64(0); i < 6; i++ {
		l2.OnMiss(base+i*64, sim.Cycle(i))
	}
	if s.Issued() == 0 {
		t.Fatal("constant stride not detected")
	}
}

func TestStrideIgnoresRandom(t *testing.T) {
	l2, _ := testL2(t)
	s := NewStride(l2, 16, 4)
	addrs := []uint64{0x40000000, 0x51234000, 0x43210000, 0x60000000, 0x48888000}
	for i, a := range addrs {
		l2.OnMiss(a, sim.Cycle(i))
	}
	if s.Issued() != 0 {
		t.Fatalf("random misses triggered %d prefetches", s.Issued())
	}
}

func TestStrideTracksMultipleStreams(t *testing.T) {
	l2, _ := testL2(t)
	s := NewStride(l2, 16, 4)
	a, b := uint64(1<<30), uint64(2<<30)
	for i := uint64(0); i < 5; i++ {
		l2.OnMiss(a+i*64, sim.Cycle(i))
		l2.OnMiss(b+i*128, sim.Cycle(i))
	}
	if s.Issued() < 16 {
		t.Fatalf("two streams issued only %d prefetches", s.Issued())
	}
}

func TestStrideNegativeStride(t *testing.T) {
	l2, _ := testL2(t)
	s := NewStride(l2, 16, 4)
	base := uint64(1 << 30)
	for i := 0; i < 6; i++ {
		l2.OnMiss(base-uint64(i)*64, sim.Cycle(i))
	}
	if s.Issued() == 0 {
		t.Fatal("negative stride not detected")
	}
}
