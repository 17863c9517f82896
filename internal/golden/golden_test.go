package golden

import (
	"os"
	"path/filepath"
	"testing"
)

// TestEqualToleratesOnlyNumbers: numbers, decimal or bit patterns, may
// differ within Tolerance or one unit in their last printed digit;
// any other token, and any larger difference, makes the files unequal.
func TestEqualToleratesOnlyNumbers(t *testing.T) {
	for _, tc := range []struct {
		got, want string
		equal     bool
	}{
		{"a 0.125 b", "a 0.125 b", true},
		{"a 0.125 b", "a 0.126 b", true},  // last printed digit
		{"a 0.125 b", "a 0.127 b", false}, // two units
		{"x " + Bits(0.1), "x " + Bits(0.1+1e-17), true},
		{"x " + Bits(0.1), "x " + Bits(0.1+1e-6), false},
		{`{"rate":0.30000000000000004}`, `{"rate":0.3}`, true},
		{"0.1.2 17", "0.1.2 17", true},
		{"0.1.2 17", "0.2.1 17", false}, // outcome keys compare exactly
		{"a b", "a b c", false},
		{"E1 0.5", "E2 0.5", false},
	} {
		if got := equal([]byte(tc.got), []byte(tc.want)); got != tc.equal {
			t.Errorf("equal(%q, %q) = %v, want %v", tc.got, tc.want, got, tc.equal)
		}
	}
}

// TestCheckRewritesThenCompares: with the update flag Check writes the
// golden file, and without it the same bytes pass.
func TestCheckRewritesThenCompares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "x.golden")
	*update = true
	Check(t, path, []byte("v "+Bits(1.5)+"\n"))
	*update = false
	Check(t, path, []byte("v "+Bits(1.5)+"\n"))
	if b, err := os.ReadFile(path); err != nil || string(b) != "v 0x3ff8000000000000\n" {
		t.Fatalf("golden file = %q, %v", b, err)
	}
}
