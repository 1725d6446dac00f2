package cache

import "testing"

func TestL1HitMiss(t *testing.T) {
	l1 := NewL1(2048, 8)
	if _, hit := l1.Lookup(0x40, 0); hit {
		t.Fatal("cold lookup hit")
	}
	l1.Fill(0x40, 7, 1)
	v, hit := l1.Lookup(0x40, 2)
	if !hit || v != 7 {
		t.Fatalf("hit=%v v=%d, want hit with version 7", hit, v)
	}
}

func TestL1FillUpdatesExisting(t *testing.T) {
	l1 := NewL1(2048, 8)
	l1.Fill(0x40, 1, 0)
	l1.Fill(0x40, 2, 1)
	if v, _ := l1.Lookup(0x40, 2); v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}
}

func TestL1Invalidate(t *testing.T) {
	l1 := NewL1(2048, 8)
	l1.Fill(0x40, 1, 0)
	l1.Invalidate(0x40)
	if l1.Present(0x40) {
		t.Fatal("line present after invalidation")
	}
	l1.Invalidate(0x80) // absent: must be a no-op
}

func TestL1Update(t *testing.T) {
	l1 := NewL1(2048, 8)
	l1.Update(0x40, 9) // absent: no-allocate
	if l1.Present(0x40) {
		t.Fatal("Update must not allocate")
	}
	l1.Fill(0x40, 1, 0)
	l1.Update(0x40, 9)
	if v, _ := l1.Lookup(0x40, 1); v != 9 {
		t.Fatalf("version = %d, want 9", v)
	}
}

func TestL1EvictsLRUWithinSet(t *testing.T) {
	l1 := NewL1(2*64, 2) // 1 set x 2 ways
	l1.Fill(0x000, 1, 0)
	l1.Fill(0x040, 1, 1)
	l1.Lookup(0x000, 2) // make line 0 recently used
	l1.Fill(0x080, 1, 3)
	if !l1.Present(0x000) || l1.Present(0x040) {
		t.Fatal("LRU eviction picked the wrong way")
	}
}
