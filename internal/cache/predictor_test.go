package cache

import (
	"slices"
	"strings"
	"testing"

	"pushmulticast/internal/config"
	"pushmulticast/internal/noc"
)

func TestPredictorRemembersMultiSharerLines(t *testing.T) {
	p := newSharerPredictor(4)
	p.remember(0x40, noc.OneDest(1)) // single sharer: not stored
	if p.Len() != 0 {
		t.Fatal("single-sharer line stored")
	}
	set := noc.OneDest(1).Add(5).Add(9)
	p.remember(0x80, set)
	got, ok := p.predict(0x80)
	if !ok || got != set {
		t.Fatalf("predict = %b,%v", got, ok)
	}
	// One-shot consumption.
	if _, ok := p.predict(0x80); ok {
		t.Fatal("prediction not consumed")
	}
}

func TestPredictorFIFOCapacity(t *testing.T) {
	p := newSharerPredictor(2)
	two := noc.OneDest(0).Add(1)
	p.remember(0x40, two)
	p.remember(0x80, two)
	p.remember(0xc0, two) // evicts 0x40
	if _, ok := p.predict(0x40); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := p.predict(0x80); !ok {
		t.Fatal("second entry lost")
	}
	if _, ok := p.predict(0xc0); !ok {
		t.Fatal("newest entry lost")
	}
}

func TestPredictorUpdateInPlace(t *testing.T) {
	p := newSharerPredictor(2)
	p.remember(0x40, noc.OneDest(0).Add(1))
	p.remember(0x40, noc.OneDest(2).Add(3))
	got, _ := p.predict(0x40)
	if got != noc.OneDest(2).Add(3) {
		t.Fatalf("entry not updated: %b", got)
	}
	if p.Len() != 0 {
		t.Fatal("duplicate entries created")
	}
}

// TestPredictorBoundAfterPredict pins the FIFO bound once a prediction has
// been consumed: predict must take its address out of the replacement order
// too, or the stale slot is evicted first (a no-op), the table outgrows its
// capacity, and order grows without bound.
func TestPredictorBoundAfterPredict(t *testing.T) {
	p := newSharerPredictor(2)
	two := noc.OneDest(0).Add(1)
	const a, b, c, d = 0x40, 0x80, 0xc0, 0x100
	p.remember(a, two)
	p.predict(a)
	for _, addr := range []uint64{a, b, c, d} {
		p.remember(addr, two)
	}
	if p.Len() != 2 || !slices.Equal(p.order, []uint64{c, d}) {
		t.Fatalf("table holds %d entries in order %#x; want the 2 newest, [%#x %#x]", p.Len(), p.order, c, d)
	}
	if err := p.audit(); err != nil {
		t.Fatal(err)
	}
}

// TestPredictorDecodeRefusesDisagreement round-trips an LLC slice with a
// populated predictor, then breaks the rule that order lists exactly the
// entries each way it can break; the decoder must refuse each by name.
func TestPredictorDecodeRefusesDisagreement(t *testing.T) {
	two := noc.OneDest(0).Add(1)
	setup := func() *llcFixture {
		f := newLLCFixture(t, config.PredictivePush())
		for _, addr := range []uint64{0x40, 0x80, 0xc0} {
			f.llc.pred.remember(addr, two)
		}
		f.llc.pred.predict(0x80)
		return f
	}
	if err := setup().roundTrip(); err != nil {
		t.Fatalf("clean predictor refused: %v", err)
	}
	for _, tc := range []struct {
		name  string
		alter func(p *sharerPredictor)
	}{
		{"stale address in order", func(p *sharerPredictor) { p.order = append(p.order, 0x80) }},
		{"entry missing from order", func(p *sharerPredictor) { p.order = p.order[:1] }},
		{"address ordered twice", func(p *sharerPredictor) { p.order[1] = p.order[0] }},
	} {
		f := setup()
		tc.alter(f.llc.pred)
		if err := f.roundTrip(); err == nil || !strings.Contains(err.Error(), "sharer predictor") {
			t.Errorf("%s: decoder says %v, want a refusal naming the sharer predictor", tc.name, err)
		}
	}
	// The capacity is config, not in the bytes; the audit still refuses a
	// table past it.
	p := setup().llc.pred
	p.cap = 1
	if p.audit() == nil {
		t.Error("a table past its capacity passes the audit")
	}
}
