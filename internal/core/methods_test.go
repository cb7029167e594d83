package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/traffic"
)

func TestWorstCaseBoundsSandwichTruth(t *testing.T) {
	f := europe(t)
	b, err := WorstCaseBounds(f.inst)
	if err != nil {
		t.Fatalf("WorstCaseBounds: %v", err)
	}
	const tol = 1e-5
	for p := range f.truth {
		scale := 1 + f.truth[p]
		if b.Lower[p] > f.truth[p]+tol*scale {
			t.Fatalf("pair %d: lower %v > truth %v", p, b.Lower[p], f.truth[p])
		}
		if b.Upper[p] < f.truth[p]-tol*scale {
			t.Fatalf("pair %d: upper %v < truth %v", p, b.Upper[p], f.truth[p])
		}
		if b.Lower[p] < -tol {
			t.Fatalf("pair %d: negative lower bound %v", p, b.Lower[p])
		}
	}
}

func TestWorstCaseBoundsNontrivial(t *testing.T) {
	// Paper Fig. 8: most bounds are non-trivial (upper below the naive
	// min-link-load cap and often lower > 0).
	f := europe(t)
	b, err := WorstCaseBounds(f.inst)
	if err != nil {
		t.Fatalf("WorstCaseBounds: %v", err)
	}
	tot := f.truth.Sum()
	nontrivialUpper := 0
	for p := range f.truth {
		if b.Upper[p] < tot*0.5 {
			nontrivialUpper++
		}
	}
	if nontrivialUpper < f.net.NumPairs()/2 {
		t.Fatalf("only %d/%d upper bounds are non-trivial", nontrivialUpper, f.net.NumPairs())
	}
}

func TestWCBMidpointBeatsGravityPrior(t *testing.T) {
	// Paper Table 2: WCB prior 0.10 vs gravity 0.26 (EU).
	f := europe(t)
	b, err := WorstCaseBounds(f.inst)
	if err != nil {
		t.Fatalf("WorstCaseBounds: %v", err)
	}
	mid := b.Midpoint()
	mreMid := MRE(mid, f.truth, f.thresh)
	mreGrav := MRE(Gravity(f.inst), f.truth, f.thresh)
	t.Logf("EU: WCB-midpoint MRE %.3f vs gravity %.3f (paper: 0.10 vs 0.26)", mreMid, mreGrav)
	if mreMid >= mreGrav {
		t.Errorf("WCB midpoint (%.3f) should beat gravity (%.3f) as the paper found", mreMid, mreGrav)
	}
}

// worstCaseBoundsCold is the reference WorstCaseBounds is checked against:
// a fresh LP per pair, so no objective starts from another's basis. Pivots
// sums every LP's count.
func worstCaseBoundsCold(in *Instance) (*Bounds, error) {
	dense := in.Rt.R.ToDense()
	p := in.NumPairs()
	b := &Bounds{Lower: linalg.NewVector(p), Upper: linalg.NewVector(p)}
	c := linalg.NewVector(p)
	for pair := 0; pair < p; pair++ {
		lp, err := solver.NewLP(dense, in.Loads)
		if err != nil {
			return nil, err
		}
		c.Zero()
		c[pair] = 1
		_, hi, err := lp.Maximize(c)
		if errors.Is(err, solver.ErrUnbounded) {
			hi = math.Inf(1)
		} else if err != nil {
			return nil, err
		}
		_, lo, err := lp.Minimize(c)
		if err != nil {
			return nil, err
		}
		b.Lower[pair], b.Upper[pair] = math.Max(lo, 0), hi
		b.Pivots += lp.Pivots()
	}
	return b, nil
}

func TestWorstCaseBoundsWarmMatchesCold(t *testing.T) {
	// Use the smaller network but verify warm-started bounds are identical
	// to cold-started ones.
	f := europe(t)
	warm, err := WorstCaseBounds(f.inst)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	cold, err := worstCaseBoundsCold(f.inst)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	for p := range warm.Lower {
		if math.Abs(warm.Lower[p]-cold.Lower[p]) > 1e-5*(1+cold.Lower[p]) {
			t.Fatalf("pair %d lower: warm %v cold %v", p, warm.Lower[p], cold.Lower[p])
		}
		if math.Abs(warm.Upper[p]-cold.Upper[p]) > 1e-5*(1+cold.Upper[p]) {
			t.Fatalf("pair %d upper: warm %v cold %v", p, warm.Upper[p], cold.Upper[p])
		}
	}
	if warm.Pivots <= 0 || cold.Pivots <= 0 {
		t.Fatalf("pivot counters not tracked: warm %d cold %d", warm.Pivots, cold.Pivots)
	}
	t.Logf("pivots: warm %d vs cold %d", warm.Pivots, cold.Pivots)
	if warm.Pivots >= cold.Pivots {
		t.Errorf("warm start (%d pivots) should use fewer pivots than cold (%d)", warm.Pivots, cold.Pivots)
	}
}

func TestBoundsWidthNonNegative(t *testing.T) {
	f := europe(t)
	b, err := WorstCaseBounds(f.inst)
	if err != nil {
		t.Fatal(err)
	}
	for p, w := range b.Width() {
		if w < -1e-6 {
			t.Fatalf("pair %d negative width %v", p, w)
		}
	}
}

func TestEstimateFanoutsRecoversDemands(t *testing.T) {
	f := europe(t)
	loads := f.loadSeries(10)
	est, err := EstimateFanouts(f.rt, loads, SolveOptions{})
	if err != nil {
		t.Fatalf("EstimateFanouts: %v", err)
	}
	// Fanouts must live on per-source simplices.
	for src := 0; src < f.net.NumPoPs(); src++ {
		var sum float64
		for dst := 0; dst < f.net.NumPoPs(); dst++ {
			if dst != src {
				a := est.Alpha[f.net.PairIndex(src, dst)]
				if a < -1e-9 {
					t.Fatalf("negative fanout %v", a)
				}
				sum += a
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("source %d fanouts sum to %v", src, sum)
		}
	}
	// And the reconstructed demands should be decent for large demands.
	mean := f.series.MeanDemand(f.start, 10)
	mre := MRE(est.MeanDemand, mean, ShareThreshold(mean, 0.9))
	t.Logf("EU fanout MRE (window 10) = %.3f (paper Fig. 11 plateaus near 0.2-0.25)", mre)
	if mre > 0.6 {
		t.Errorf("fanout MRE %v too large", mre)
	}
}

func TestFanoutWindowLengthHelps(t *testing.T) {
	// Fig. 11: the error drops with window length, then levels out. (A
	// window of 1 is excluded: a single-snapshot fit is evaluated against
	// that same snapshot, so it scores deceptively well on its own noise.)
	f := europe(t)
	mreAt := func(k int) float64 {
		est, err := EstimateFanouts(f.rt, f.loadSeries(k), SolveOptions{})
		if err != nil {
			t.Fatalf("EstimateFanouts(%d, SolveOptions{}): %v", k, err)
		}
		mean := f.series.MeanDemand(f.start, k)
		return MRE(est.MeanDemand, mean, ShareThreshold(mean, 0.9))
	}
	m3, m20 := mreAt(3), mreAt(20)
	t.Logf("fanout MRE: window 3 = %.3f, window 20 = %.3f", m3, m20)
	if m20 >= m3 {
		t.Errorf("longer window should reduce the error: window 3 %.3f vs window 20 %.3f", m3, m20)
	}
}

func TestEstimateFanoutsRejectsEmpty(t *testing.T) {
	f := europe(t)
	if _, err := EstimateFanouts(f.rt, nil, SolveOptions{}); err == nil {
		t.Fatal("expected error for empty series")
	}
}

func TestVardiRunsAndRanks(t *testing.T) {
	f := europe(t)
	loads := f.loadSeries(50)
	cfg := DefaultVardiConfig()
	lam, _, err := Vardi(f.rt, loads, cfg, SolveOptions{})
	if err != nil {
		t.Fatalf("Vardi: %v", err)
	}
	if len(lam) != f.net.NumPairs() {
		t.Fatalf("Vardi returned %d estimates", len(lam))
	}
	for _, v := range lam {
		if v < 0 {
			t.Fatal("negative Vardi estimate")
		}
	}
	mean := f.series.MeanDemand(f.start, 50)
	mre := MRE(lam, mean, ShareThreshold(mean, 0.9))
	t.Logf("EU Vardi MRE (σ⁻²=0.01, K=50) = %.3f (paper: 0.47)", mre)
	// Vardi is the weakest method in the paper; just require sanity.
	if mre > 3 {
		t.Errorf("Vardi MRE %v beyond even the paper's poor result", mre)
	}
}

func TestVardiStrongPoissonFaithIsWorse(t *testing.T) {
	// Table 1: σ⁻² = 1 performs far worse than σ⁻² = 0.01 on real
	// (non-Poissonian) traffic.
	f := europe(t)
	loads := f.loadSeries(50)
	mean := f.series.MeanDemand(f.start, 50)
	th := ShareThreshold(mean, 0.9)
	weak, _, err := Vardi(f.rt, loads, VardiConfig{SigmaInv2: 0.01}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	strong, _, err := Vardi(f.rt, loads, VardiConfig{SigmaInv2: 1}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mreWeak, mreStrong := MRE(weak, mean, th), MRE(strong, mean, th)
	t.Logf("Vardi MRE: σ⁻²=0.01 %.3f vs σ⁻²=1 %.3f (paper: 0.47 vs 302)", mreWeak, mreStrong)
	if mreStrong < mreWeak {
		t.Errorf("strong Poisson faith (%.3f) should be worse than weak (%.3f)", mreStrong, mreWeak)
	}
}

func TestVardiNeedsTimeSeries(t *testing.T) {
	f := europe(t)
	if _, _, err := Vardi(f.rt, f.loadSeries(1), DefaultVardiConfig(), SolveOptions{}); err == nil {
		t.Fatal("expected error for single sample")
	}
}

func TestVardiOnSyntheticPoissonImprovesWithWindow(t *testing.T) {
	// Fig. 12's mechanism: even under a true Poisson model, short windows
	// give bad covariance estimates; error shrinks as the window grows.
	f := europe(t)
	mean := f.series.MeanDemand(f.start, 50)
	// Work on a scaled-down mean so Poisson noise is substantial.
	scaled := mean.Clone()
	scaled.Scale(0.01)
	th := ShareThreshold(scaled, 0.9)
	mreAt := func(k int) float64 {
		demands := traffic.SyntheticPoisson(scaled, k, 7)
		loads := make([]linalg.Vector, k)
		for i := range demands {
			loads[i] = f.rt.LinkLoads(demands[i])
		}
		lam, _, err := Vardi(f.rt, loads, VardiConfig{SigmaInv2: 1}, SolveOptions{})
		if err != nil {
			t.Fatalf("Vardi: %v", err)
		}
		return MRE(lam, scaled, th)
	}
	m20, m400 := mreAt(20), mreAt(400)
	t.Logf("synthetic-Poisson Vardi MRE: K=20 %.3f, K=400 %.3f", m20, m400)
	if m400 >= m20 {
		t.Errorf("error should shrink with window: K=20 %.3f vs K=400 %.3f", m20, m400)
	}
}

func TestMeasuredInstancePinsDemand(t *testing.T) {
	f := europe(t)
	_, pMax := f.truth.Max()
	mi := MeasuredInstance(f.inst, map[int]float64{pMax: f.truth[pMax]})
	if mi.Rt.R.Rows() != f.rt.R.Rows()+1 {
		t.Fatalf("expected one extra row, got %d vs %d", mi.Rt.R.Rows(), f.rt.R.Rows())
	}
	if mi.Loads[len(mi.Loads)-1] != f.truth[pMax] {
		t.Fatal("measured value not appended to loads")
	}
	est, _, err := Entropy(mi, Gravity(f.inst), 1000, SolveOptions{})
	if err != nil {
		t.Fatalf("Entropy on measured instance: %v", err)
	}
	rel := math.Abs(est[pMax]-f.truth[pMax]) / f.truth[pMax]
	if rel > 0.05 {
		t.Fatalf("measured demand off by %.1f%%", rel*100)
	}
}

func TestDirectMeasurementCurveDecreases(t *testing.T) {
	f := europe(t)
	prior := Gravity(f.inst)
	curve, order, err := DirectMeasurementCurve(f.inst, f.truth, prior, 1000, f.thresh, 4, GreedyMRE)
	if err != nil {
		t.Fatalf("DirectMeasurementCurve: %v", err)
	}
	if len(curve) != 5 || len(order) != 4 {
		t.Fatalf("curve/order lengths %d/%d", len(curve), len(order))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-9 {
			t.Fatalf("greedy curve increased at step %d: %v -> %v", i, curve[i-1], curve[i])
		}
	}
	t.Logf("greedy MRE curve: %v", curve)
}

func TestDirectMeasurementLargestStrategy(t *testing.T) {
	f := europe(t)
	prior := Gravity(f.inst)
	curve, order, err := DirectMeasurementCurve(f.inst, f.truth, prior, 1000, f.thresh, 3, LargestDemand)
	if err != nil {
		t.Fatalf("DirectMeasurementCurve: %v", err)
	}
	// Order must be by decreasing true size.
	for i := 1; i < len(order); i++ {
		if f.truth[order[i]] > f.truth[order[i-1]]+1e-9 {
			t.Fatalf("largest-demand order violated at %d", i)
		}
	}
	if curve[len(curve)-1] > curve[0]+1e-9 {
		t.Fatalf("measuring largest demands should not hurt: %v", curve)
	}
}

func TestDirectMeasurementUnknownStrategy(t *testing.T) {
	f := europe(t)
	if _, _, err := DirectMeasurementCurve(f.inst, f.truth, Gravity(f.inst), 1000, f.thresh, 1, SelectionStrategy(99)); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}
