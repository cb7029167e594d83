package core_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
)

// sortShareThreshold is the comparison-sort ShareThreshold the radix
// path replaced, kept as its oracle: sort a copy descending, sum it,
// and take the first value whose running prefix reaches share of the
// total.
func sortShareThreshold(truth linalg.Vector, share float64) float64 {
	s := append(linalg.Vector(nil), truth...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	total := s.Sum()
	if total <= 0 {
		return 0
	}
	var run float64
	for _, v := range s {
		run += v
		if run >= share*total {
			return v * (1 - 1e-12)
		}
	}
	return 0
}

// TestShareThresholdMatchesSortOracle: the radix ranking returns the
// sort oracle's threshold bit for bit, on fresh scratch and on one
// workspace reused across lengths (grown, shrunk, regrown), over
// vectors mixing zeros, -0, ties and values spread over 20 decades.
func TestShareThresholdMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	draw := func(n int) linalg.Vector {
		v := linalg.NewVector(n)
		for i := range v {
			switch k := rng.Intn(10); {
			case k == 0:
				v[i] = 0
			case k == 1:
				v[i] = negZero
			case k == 2 && i > 0:
				v[i] = v[rng.Intn(i)] // a tie with an earlier value
			default:
				v[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(20)-10))
			}
		}
		return v
	}
	ws := new(core.Workspace)
	for _, n := range []int{0, 1, 2, 3, 17, 9900, 256, 1, 9900} {
		for trial := 0; trial < 20; trial++ {
			v := draw(n)
			for _, share := range []float64{0.9, 0.5, 1, 0} {
				want := sortShareThreshold(v, share)
				if got := core.ShareThreshold(v, share); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d share=%v: ShareThreshold %v, sort oracle %v", n, share, got, want)
				}
				if got := core.ShareThresholdWS(ws, v, share); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d share=%v: reused workspace %v, sort oracle %v", n, share, got, want)
				}
			}
		}
	}
}

// TestShareThresholdEdgeValues: the inputs a comparison sort orders
// differently from the radix keys (signed zeros, NaNs) or that saturate
// the sums (±Inf, negatives) still give the oracle's bits.
func TestShareThresholdEdgeValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	for _, v := range []linalg.Vector{
		nil,
		{},
		{5},
		{negZero},
		{negZero, 0, negZero, 3},
		{0, negZero},
		{1, nan, 2},
		{inf, 1, 2},
		{inf, math.Inf(-1)},
		{-4, 10, -1, 3, 3},
		{5e-324, 2.225073858507201e-308, 1e300, 1e300},
	} {
		want := sortShareThreshold(v, 0.9)
		if got := core.ShareThreshold(v, 0.9); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: ShareThreshold %v, sort oracle %v", v, got, want)
		}
	}
}
