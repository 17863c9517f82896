// Package golden compares test output with committed golden files, so
// a change in any pinned number fails the suite instead of passing
// silently.
//
// Golden files live under each package's testdata directory. Running
// the package's tests with the update flag rewrites them:
//
//	go test ./internal/core -run Golden -update
//
// A change that rewrites a golden file states in CHANGES.md why the
// numbers moved and by how much at most.
//
// On amd64 at GOAMD64 v1 or v2 (what CI runs) a golden must match byte
// for byte. Other targets may fuse multiply-adds, which changes the
// last bits of a float; there every number compares within Tolerance
// instead, and every other token still compares exactly.
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing with them")

// Tolerance is the difference two numbers may have on targets where
// Check cannot demand identical bytes: relative to the larger magnitude,
// and absolute for magnitudes below 1. A number printed with
// fewer significant digits may also differ by one unit in its last
// printed digit, so a value close to a rounding boundary stays equal.
const Tolerance = 1e-9

// Bits renders x as its IEEE-754 bit pattern, "0x" and 16 hex digits,
// so a golden file pins a float exactly rather than at printed
// precision. Check decodes the pattern back when it must compare
// within Tolerance.
func Bits(x float64) string {
	return fmt.Sprintf("0x%016x", math.Float64bits(x))
}

// Check compares got with the golden file at path, or rewrites the
// file when the tests run with the update flag.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the tests with the update flag to create it)", err)
	}
	if exactBits && bytes.Equal(got, want) || !exactBits && equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from the golden file at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
	t.Fatalf("%s differs from the golden file", path)
}

// equal reports whether got and want hold the same tokens, comparing
// numbers within Tolerance and everything else exactly. Tokens are
// separated by white space and by the JSON punctuation ,:[]{}".
func equal(got, want []byte) bool {
	sep := func(r rune) bool { return strings.ContainsRune(" \t\n,:[]{}\"", r) }
	gt, wt := strings.FieldsFunc(string(got), sep), strings.FieldsFunc(string(want), sep)
	if len(gt) != len(wt) {
		return false
	}
	for i := range gt {
		if gt[i] == wt[i] {
			continue
		}
		g, gok := number(gt[i])
		w, wok := number(wt[i])
		if !gok || !wok {
			return false
		}
		slack := max(Tolerance*max(1, math.Abs(g), math.Abs(w)), lastDigit(gt[i]), lastDigit(wt[i]))
		// The factor absorbs the rounding of g-w itself: 0.126-0.125 is
		// a little more than 0.001 in binary.
		if !(math.Abs(g-w) <= slack*(1+Tolerance)) {
			return false
		}
	}
	return true
}

// number parses a decimal token or a Bits pattern.
func number(tok string) (float64, bool) {
	if hex, ok := strings.CutPrefix(tok, "0x"); ok && len(hex) == 16 {
		b, err := strconv.ParseUint(hex, 16, 64)
		return math.Float64frombits(b), err == nil
	}
	x, err := strconv.ParseFloat(tok, 64)
	return x, err == nil
}

// lastDigit is one unit in the last printed digit of a decimal token
// without an exponent ("0.125" gives 0.001, "512" gives 1), and zero
// for any other token.
func lastDigit(tok string) float64 {
	if strings.ContainsAny(tok, "eExXpP") {
		return 0
	}
	if _, frac, ok := strings.Cut(tok, "."); ok {
		return math.Pow(10, -float64(len(frac)))
	}
	return 1
}
