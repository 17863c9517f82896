package circuit

import (
	"math"
	"math/rand"
	"testing"

	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
)

// fuzzRegisters are the registers fuzz inputs select among: qubit
// pairs, the paper's qutrit triple, mixed radix, and a d=5 wire, so
// every kernel dimension the unrolled dense paths special-case (2,3,4)
// plus the generic loop (5) is covered.
var fuzzRegisters = []hilbert.Dims{
	{2, 2},
	{3, 3, 3},
	{2, 3, 4},
	{5, 2},
}

// circuitFromBytes decodes an arbitrary byte string into a valid
// circuit, deterministically: byte 0 picks the register, then each
// subsequent pair of bytes appends one gate (opcode byte, operand
// byte). Angles are derived from the operand so the dense kernels see
// irregular, rounding-sensitive matrices rather than nice roots of
// unity. Every byte string decodes to something runnable — the fuzzer
// explores circuit space, not the decoder's error paths.
func circuitFromBytes(data []byte) *Circuit {
	if len(data) == 0 {
		data = []byte{0}
	}
	dims := fuzzRegisters[int(data[0])%len(fuzzRegisters)]
	c, err := New(dims)
	if err != nil {
		panic(err)
	}
	body := data[1:]
	for i := 0; i+1 < len(body) && c.Len() < 32; i += 2 {
		op, arg := body[i], body[i+1]
		w := int(arg) % len(dims)
		d := dims[w]
		theta := float64(arg) * math.Pi / 64
		var g gates.Gate
		targets := []int{w}
		switch op % 8 {
		case 0:
			g = gates.Z(d)
		case 1:
			phases := make([]float64, d)
			for j := range phases {
				phases[j] = theta * float64(j+1)
			}
			g = gates.SNAP(phases)
		case 2:
			g = gates.X(d)
		case 3:
			g = gates.XPow(d, 1+int(arg)%(d-1))
		case 4:
			g = gates.DFT(d)
		case 5:
			j := int(arg) % (d - 1)
			g = gates.Givens(d, j, j+1, theta, theta/3)
		case 6:
			g = gates.Phase(d, int(arg)%d, theta)
		default:
			w2 := -1
			for o := 1; o < len(dims); o++ {
				cand := (w + o) % len(dims)
				if dims[cand] == d {
					w2 = cand
					break
				}
			}
			if w2 < 0 {
				g = gates.DFT(d)
				break
			}
			if arg%2 == 0 {
				g = gates.CSUM(d, d)
			} else {
				g = gates.CZ(d, d)
			}
			targets = []int{w, w2}
		}
		if err := c.Append(g, targets...); err != nil {
			panic(err)
		}
	}
	return c
}

// FuzzFusionEquivalence feeds arbitrary byte strings through
// circuitFromBytes and asserts the fused and unfused compilations of
// the resulting circuit produce bit-identical pure states, and — when
// the decoded circuit actually fused something — bit-identical noisy
// trajectory shots from equal rng streams and bit-identical noisy
// density matrices. The seed corpus under
// testdata/fuzz covers every kernel class and register shape and is
// replayed by plain `go test`, so the equivalence check runs in CI on
// every build even without -fuzz time.
func FuzzFusionEquivalence(f *testing.F) {
	f.Add([]byte{0})                                           // qubit pair, empty body
	f.Add([]byte{1, 4, 0, 4, 1, 0, 1, 1, 1})                   // qutrits: DFT∘DFT run then diagonals
	f.Add([]byte{2, 0, 2, 1, 2, 2, 2, 3, 2})                   // mixed radix: SNAP chains per wire
	f.Add([]byte{3, 5, 0, 5, 0, 4, 0, 2, 0})                   // d=5 wire: Givens, DFT, X on one wire
	f.Add([]byte{1, 7, 0, 7, 0, 3, 1, 0, 1, 7, 2})             // controlled runs + monomial tail
	f.Add([]byte{2, 6, 9, 6, 9, 6, 9, 1, 9, 4, 9, 4, 9, 2, 9}) // long same-wire run, every class
	f.Fuzz(func(t *testing.T, data []byte) {
		c := circuitFromBytes(data)
		fused, err := c.Compile(noise.Model{})
		if err != nil {
			t.Fatalf("fused compile: %v", err)
		}
		unfused, err := c.CompileWith(noise.Model{}, CompileOptions{DisableFusion: true})
		if err != nil {
			t.Fatalf("unfused compile: %v", err)
		}
		fws, err := fused.NewWorkspace()
		if err != nil {
			t.Fatal(err)
		}
		uws, err := unfused.NewWorkspace()
		if err != nil {
			t.Fatal(err)
		}
		fa := fused.RunPure(fws).RawAmplitudes()
		ua := unfused.RunPure(uws).RawAmplitudes()
		for i := range ua {
			if fa[i] != ua[i] {
				t.Fatalf("pure amplitude %d diverges: fused %v, unfused %v (fused %d ops into %d kernels)",
					i, fa[i], ua[i], fused.Len(), fused.CompiledLen())
			}
		}
		if fused.OpsFused() == 0 || c.Len() == 0 {
			return
		}
		// The circuit fused at least one run: also prove a noisy shot
		// agrees bit-for-bit. Under a gate-noise model channels become
		// barriers, so recompile both ways and drive equal rng streams.
		model := noise.Model{Depol1: 0.05, Dephasing: 0.02}
		nf, err := c.Compile(model)
		if err != nil {
			t.Fatalf("fused noisy compile: %v", err)
		}
		nu, err := c.CompileWith(model, CompileOptions{DisableFusion: true})
		if err != nil {
			t.Fatalf("unfused noisy compile: %v", err)
		}
		nfws, err := nf.NewWorkspace()
		if err != nil {
			t.Fatal(err)
		}
		nuws, err := nu.NewWorkspace()
		if err != nil {
			t.Fatal(err)
		}
		sf, err := nf.RunShot(nfws, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatalf("fused shot: %v", err)
		}
		su, err := nu.RunShot(nuws, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatalf("unfused shot: %v", err)
		}
		sfa, sua := sf.RawAmplitudes(), su.RawAmplitudes()
		for i := range sua {
			if sfa[i] != sua[i] {
				t.Fatalf("noisy shot amplitude %d diverges: fused %v, unfused %v", i, sfa[i], sua[i])
			}
		}
		// The density path applies a fused kernel's stages one by one,
		// then its channels, so it must agree bit-for-bit as well.
		rf, err := nf.RunDensity()
		if err != nil {
			t.Fatalf("fused density: %v", err)
		}
		ru, err := nu.RunDensity()
		if err != nil {
			t.Fatalf("unfused density: %v", err)
		}
		dfa, dua := rf.Matrix().Data, ru.Matrix().Data
		for i := range dua {
			if dfa[i] != dua[i] {
				t.Fatalf("density entry %d diverges: fused %v, unfused %v", i, dfa[i], dua[i])
			}
		}
	})
}
