package core

import "testing"

// TestCountsHistogramViews covers the read-side helpers of Counts.
func TestCountsHistogramViews(t *testing.T) {
	c := Counts{"00": 6, "11": 3, "22": 1}
	if got := c.Prob("00"); got != 0.6 {
		t.Fatalf("Prob(00) = %v, want 0.6", got)
	}
	if got := (Counts{}).Prob("00"); got != 0 {
		t.Fatalf("empty Prob = %v, want 0", got)
	}
	top := c.Top(2)
	if len(top) != 2 || top[0].Key != "00" || top[0].N != 6 || top[1].Key != "11" {
		t.Fatalf("Top(2) = %v", top)
	}
	if got := c.Top(10); len(got) != 3 {
		t.Fatalf("Top(10) returned %d entries", len(got))
	}
}
