package stats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("Variance = %v, want 4", v)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice moments should be 0")
	}
}

func TestMeanVector(t *testing.T) {
	samples := []linalg.Vector{{1, 2}, {3, 4}, {5, 6}}
	m := MeanVector(samples)
	if m[0] != 3 || m[1] != 4 {
		t.Fatalf("MeanVector = %v", m)
	}
}

func TestCovarianceMatrixKnown(t *testing.T) {
	// Two perfectly correlated coordinates.
	samples := []linalg.Vector{{1, 2}, {2, 4}, {3, 6}}
	c := CovarianceMatrix(samples)
	// Population variance of {1,2,3} is 2/3.
	if math.Abs(c.At(0, 0)-2.0/3) > 1e-12 {
		t.Fatalf("c00 = %v", c.At(0, 0))
	}
	if math.Abs(c.At(1, 1)-8.0/3) > 1e-12 {
		t.Fatalf("c11 = %v", c.At(1, 1))
	}
	if math.Abs(c.At(0, 1)-4.0/3) > 1e-12 || c.At(0, 1) != c.At(1, 0) {
		t.Fatalf("c01 = %v, c10 = %v", c.At(0, 1), c.At(1, 0))
	}
}

func TestCovarianceMatrixSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var samples []linalg.Vector
	for k := 0; k < 50; k++ {
		v := linalg.NewVector(5)
		for i := range v {
			v[i] = rng.NormFloat64() * float64(i+1)
		}
		samples = append(samples, v)
	}
	c := CovarianceMatrix(samples)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if c.At(i, j) != c.At(j, i) {
				t.Fatal("covariance not symmetric")
			}
		}
		if c.At(i, i) < 0 {
			t.Fatal("negative diagonal variance")
		}
	}
	// PSD check via Cholesky of C + tiny ridge.
	r := c.Clone()
	for i := 0; i < 5; i++ {
		r.Add(i, i, 1e-9)
	}
	if _, err := linalg.NewCholesky(r); err != nil {
		t.Fatalf("covariance not PSD: %v", err)
	}
}

func TestFitPowerLawRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	phi, c := 2.44, 1.5
	var means, vars []float64
	for i := 0; i < 400; i++ {
		m := math.Pow(10, -4+8*rng.Float64())
		v := phi * math.Pow(m, c) * math.Exp(0.05*rng.NormFloat64())
		means = append(means, m)
		vars = append(vars, v)
	}
	fit := FitPowerLaw(means, vars)
	if math.Abs(fit.C-c) > 0.05 {
		t.Fatalf("fitted c = %v, want ≈ %v", fit.C, c)
	}
	if math.Abs(fit.Phi-phi)/phi > 0.15 {
		t.Fatalf("fitted phi = %v, want ≈ %v", fit.Phi, phi)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R² = %v too low", fit.R2)
	}
}

func TestFitPowerLawIgnoresNonPositive(t *testing.T) {
	fit := FitPowerLaw([]float64{0, -1, 1, 2}, []float64{1, 1, 1, 2})
	if fit.N != 2 {
		t.Fatalf("N = %d, want 2", fit.N)
	}
}

func TestLinearRegressionExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	slope, intercept, r2 := LinearRegression(xs, ys)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 || math.Abs(r2-1) > 1e-12 {
		t.Fatalf("got slope=%v intercept=%v r2=%v", slope, intercept, r2)
	}
}

func TestCumulativeShare(t *testing.T) {
	cs := CumulativeShare([]float64{1, 3, 4, 2})
	want := []float64{0.4, 0.7, 0.9, 1.0}
	for i := range want {
		if math.Abs(cs[i]-want[i]) > 1e-12 {
			t.Fatalf("cs[%d] = %v, want %v", i, cs[i], want[i])
		}
	}
}

func TestPoissonSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, lambda := range []float64{0.5, 5, 50, 500} {
		const n = 20000
		var xs []float64
		for i := 0; i < n; i++ {
			xs = append(xs, PoissonSample(rng, lambda))
		}
		m, v := Mean(xs), Variance(xs)
		if math.Abs(m-lambda)/lambda > 0.05 {
			t.Fatalf("lambda=%v: mean %v off", lambda, m)
		}
		if math.Abs(v-lambda)/lambda > 0.10 {
			t.Fatalf("lambda=%v: variance %v off", lambda, v)
		}
	}
}

func TestPoissonSampleEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if PoissonSample(rng, 0) != 0 || PoissonSample(rng, -1) != 0 {
		t.Fatal("non-positive lambda should give 0")
	}
}
