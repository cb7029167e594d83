package solver

import (
	"math"
	"math/rand"
	"testing"
)

// checkProxRef fails t unless klProx(z, p, eta) has exactly the bits of
// the reference loop's result. Any two NaNs count as equal: which
// operand's payload an IEEE add propagates depends on the operand order,
// which the compiler may pick for a commutative add.
func checkProxRef(t testing.TB, z, p, eta float64) {
	t.Helper()
	got, want := klProx(z, p, eta), klProxRef(z, p, eta)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("klProx(%v, %v, %v) = %v (%#x), reference %v (%#x)", z, p, eta,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// scaledTriple maps three raw words to a prox input in the regime the
// solver visits: eta in [1e-6, 1e4), p in [1e-6, 1e6), and z the input
// whose exact prox is a root within three decades of p, perturbed by a
// relative 1e-16 to 10% either way — from warm starts that sit on the
// root to cold ones far from it.
func scaledTriple(zb, pb, eb uint64) (z, p, eta float64) {
	unit := func(w uint64) float64 { return float64(w>>11) / (1 << 53) }
	eta = math.Pow(10, -6+10*unit(eb))
	p = math.Pow(10, -6+12*unit(pb))
	root := p * math.Pow(10, -3+6*float64(zb>>32)/(1<<32))
	z = root + eta*math.Log(root/p)
	rel := math.Pow(10, -16+15*float64(zb&0xffffffff)/(1<<32))
	if zb&1 != 0 {
		rel = -rel
	}
	return z * (1 + rel), p, eta
}

// certifiedExit reports whether klProx returns through its one-step
// exit: the loop's first pass from u = z, as klProx evaluates it, does
// not return and newtonCertified accepts its Newton point.
func certifiedExit(z, p, eta float64) bool {
	if !(eta > 0 && z >= eta) {
		return false
	}
	lo, hi := 0.0, math.Max(z, p)+eta+1
	tol := 1e-12 * (1 + math.Abs(z))
	q := z / p
	g := z + eta*math.Log(q) - z
	if math.Abs(g) <= tol {
		return false
	}
	if g > 0 {
		hi = z
	} else {
		lo = z
	}
	next := z - g/(1+eta/z)
	return lo < next && next < hi && newtonCertified(z, q, eta, g, next, tol)
}

// thresholdPair returns two priors, adjacent up to float resolution in
// log(z/p), whose first Newton step's remainder falls just under and
// just over the certificate's threshold: the exit is taken at pIn and
// not at pOut.
func thresholdPair(z, eta float64) (pIn, pOut float64) {
	in, out := 0.0, 1.0 // log(z/p); the remainder grows with it
	for certifiedExit(z, z*math.Exp(-out), eta) {
		out *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (in + out) / 2
		if mid == in || mid == out {
			break
		}
		if certifiedExit(z, z*math.Exp(-mid), eta) {
			in = mid
		} else {
			out = mid
		}
	}
	return z * math.Exp(-in), z * math.Exp(-out)
}

// thresholdCases are the (z, eta) pairs thresholdPair is run at: unit
// scale, a large z where tol grows with z, and z = eta.
var thresholdCases = [][2]float64{{1, 1}, {1e6, 10}, {1e-3, 1e-3}}

// TestKLProxMatchesReference holds klProx to the reference loop bit for
// bit on 2²⁰ random triples — half raw float bits (NaN, ±Inf, subnormals
// and all), half scaled draws — and checks that the scaled draws take
// the certified exit often enough for the comparison to mean something.
func TestKLProxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 1 << 19
	exits := 0
	for i := 0; i < n; i++ {
		zb, pb, eb := rng.Uint64(), rng.Uint64(), rng.Uint64()
		checkProxRef(t, math.Float64frombits(zb), math.Float64frombits(pb), math.Float64frombits(eb))
		z, p, eta := scaledTriple(zb, pb, eb)
		checkProxRef(t, z, p, eta)
		if certifiedExit(z, p, eta) {
			exits++
		}
	}
	if exits < n/10 {
		t.Fatalf("only %d of %d scaled draws took the certified exit", exits, n)
	}
}

// TestKLProxThresholdStraddles pins the seeds FuzzKLProx starts from at
// the certificate's edge: thresholdPair's priors sit on either side of
// it, and both agree with the reference.
func TestKLProxThresholdStraddles(t *testing.T) {
	for _, c := range thresholdCases {
		z, eta := c[0], c[1]
		pIn, pOut := thresholdPair(z, eta)
		if !certifiedExit(z, pIn, eta) || certifiedExit(z, pOut, eta) {
			t.Fatalf("z=%v eta=%v: pIn=%v takes the exit %t, pOut=%v %t", z, eta,
				pIn, certifiedExit(z, pIn, eta), pOut, certifiedExit(z, pOut, eta))
		}
		checkProxRef(t, z, pIn, eta)
		checkProxRef(t, z, pOut, eta)
	}
}

// FuzzKLProx holds klProx to the reference loop bit for bit. Each input
// is three raw words, checked both as float bits and through
// scaledTriple. The seeds cover the certificate's edges: z just above
// eta, |g| near z/4 on both sides of the root, remainders just under and
// just over the threshold, z near 1e300, subnormal p and eta >= z, and
// z = +Inf with a NaN prior, where the bracket's math.Max returns +Inf
// before it looks at the NaN.
func FuzzKLProx(f *testing.F) {
	add := func(z, p, eta float64) { f.Add(math.Float64bits(z), math.Float64bits(p), math.Float64bits(eta)) }
	add(math.Nextafter(0.5, 1), 0.3, 0.5)
	add(math.Nextafter(1e-3, 1), 2e-3, 1e-3)
	add(1, math.Exp(-0.25), 1)
	add(1, math.Exp(0.25), 1)
	add(1, math.Exp(-0.25*(1+1e-12)), 1)
	for _, c := range thresholdCases {
		pIn, pOut := thresholdPair(c[0], c[1])
		add(c[0], pIn, c[1])
		add(c[0], pOut, c[1])
	}
	add(1e300, 0.999e300, 1e297)
	add(1e300, 1e-10, 1e290)
	add(math.MaxFloat64/2, math.MaxFloat64/3, 1e300)
	add(1, 5e-324, 0.5)
	add(1e-300, 1e-310, 1e-301)
	add(3e-308, 1e-320, 1e-309)
	add(0.5, 0.3, 1)
	add(1, 1, 1)
	add(-2, 0.5, 0.1)
	f.Add(uint64(0x7ff8000000000001), uint64(0x3ff0000000000000), uint64(0x3ff0000000000000))
	add(math.Inf(1), math.NaN(), 1)
	f.Fuzz(func(t *testing.T, zb, pb, eb uint64) {
		checkProxRef(t, math.Float64frombits(zb), math.Float64frombits(pb), math.Float64frombits(eb))
		z, p, eta := scaledTriple(zb, pb, eb)
		checkProxRef(t, z, p, eta)
	})
}
