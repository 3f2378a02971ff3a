package sched

import "testing"

// TestControllerPromotesAfterPatience: the controller ignores
// imbalance spikes shorter than its patience window and fires exactly
// once when the threshold holds.
func TestControllerPromotesAfterPatience(t *testing.T) {
	c := NewController()
	// Patience-1 breaches, then a calm run: streak must reset.
	for i := 0; i < Patience-1; i++ {
		if c.Observe(1.5) {
			t.Fatalf("promoted on interrupted streak after %d breaches", i+1)
		}
	}
	if c.Observe(1.0) {
		t.Fatal("promoted on a calm run")
	}
	// Patience consecutive breaches: fires on the last.
	for i := 0; i < Patience-1; i++ {
		if c.Observe(1.3) {
			t.Fatal("promoted before patience expired")
		}
	}
	if !c.Observe(1.3) {
		t.Fatal("did not promote after patience consecutive breaches")
	}
	if !c.Promoted() {
		t.Fatal("Promoted() false after firing")
	}
}

// TestControllerNeverThrashes pins the one-way ratchet: after
// promotion, no observation — however balanced or however skewed —
// produces another transition. Stealing lowers the measured imbalance,
// so a symmetric controller would demote and re-promote forever; the
// ratchet makes the post-promotion signal inert.
func TestControllerNeverThrashes(t *testing.T) {
	c := NewController()
	for i := 0; i < Patience-1; i++ {
		c.Observe(2.0)
	}
	if !c.Observe(2.0) {
		t.Fatal("controller did not promote after patience breaches")
	}
	for _, imb := range []float64{0.9, 1.0, 5.0, 5.0, 5.0, 1.0, 3.0} {
		if c.Observe(imb) {
			t.Fatalf("controller fired again at imbalance %v after promotion", imb)
		}
	}
	if !c.Promoted() {
		t.Fatal("ratchet lost its promoted state")
	}
}

// TestControllerDefaults: the documented threshold and patience, and
// sane behaviour at the threshold boundary.
func TestControllerDefaults(t *testing.T) {
	if PromoteAbove != 1.25 || Patience != 3 {
		t.Fatalf("PromoteAbove=%v Patience=%d, documented 1.25 and 3", PromoteAbove, Patience)
	}
	c := NewController()
	for i := 0; i < Patience-1; i++ {
		if c.Observe(PromoteAbove) {
			t.Fatalf("promoted after %d runs, patience is %d", i+1, Patience)
		}
	}
	if !c.Observe(PromoteAbove) {
		t.Fatal("threshold breach at exactly PromoteAbove did not count")
	}
	// Balanced work never promotes.
	c = NewController()
	for i := 0; i < 100; i++ {
		if c.Observe(1.0) {
			t.Fatal("balanced runs promoted")
		}
	}
}
