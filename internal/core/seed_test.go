package core

import "testing"

// TestDeriveSeedStreams: named streams from one base seed must be
// deterministic and pairwise independent-looking (distinct), and a
// different base must move every stream.
func TestDeriveSeedStreams(t *testing.T) {
	a1 := DeriveSeed(7, "sampling")
	a2 := DeriveSeed(7, "sampling")
	b := DeriveSeed(7, "baseline")
	o := DeriveSeed(8, "sampling")
	if a1 != a2 {
		t.Fatal("DeriveSeed not deterministic")
	}
	if a1 == b {
		t.Fatal("distinct streams collided")
	}
	if a1 == o {
		t.Fatal("distinct base seeds collided")
	}
}
