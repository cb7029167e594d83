// Package stats provides the statistical utilities the traffic-matrix
// analysis relies on: sample moments and covariance matrices (the inputs
// to Vardi's second-moment method, §4.2.2), log-log power-law regression
// (for the paper's mean–variance scaling law Var = φ·λ^c of Fig. 6),
// empirical distributions (the cumulative demand shares of Figs. 2–3),
// KL divergence, and seeded Poisson/Gaussian samplers (the synthetic
// experiment of Fig. 12).
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/linalg"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than two
// samples). The paper's moment matching uses population (1/K) normalization,
// matching its definition of Σ̂.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// MeanVector returns the element-wise mean of a set of equal-length samples.
func MeanVector(samples []linalg.Vector) linalg.Vector {
	if len(samples) == 0 {
		return nil
	}
	return MeanVectorInto(linalg.NewVector(len(samples[0])), samples)
}

// MeanVectorInto writes the element-wise mean of the samples into dst
// (which must have the samples' length) and returns it — the reusable
// kernel behind MeanVector for callers that recompute window means every
// re-solve.
func MeanVectorInto(dst linalg.Vector, samples []linalg.Vector) linalg.Vector {
	dst.Zero()
	for _, s := range samples {
		linalg.Axpy(1, s, dst)
	}
	dst.Scale(1 / float64(len(samples)))
	return dst
}

// CovarianceMatrix returns the sample covariance matrix (population
// normalization 1/K, as in the paper's Σ̂) of the given equal-length samples.
func CovarianceMatrix(samples []linalg.Vector) *linalg.Matrix {
	if len(samples) == 0 {
		return linalg.NewMatrix(0, 0)
	}
	n := len(samples[0])
	return CovarianceMatrixInto(linalg.NewMatrix(n, n), linalg.NewVector(n), linalg.NewVector(n), samples)
}

// CovarianceMatrixInto is CovarianceMatrix writing into caller-supplied
// scratch: cov must be n×n, mean and d length n (n the sample length).
// All three are overwritten; cov is returned. Reusing them across the
// streaming engine's periodic Vardi re-solves removes the largest
// per-solve allocation (the dense L×L covariance).
func CovarianceMatrixInto(cov *linalg.Matrix, mean, d linalg.Vector, samples []linalg.Vector) *linalg.Matrix {
	n := len(samples[0])
	if cov.Rows != n || cov.Cols != n || len(mean) != n || len(d) != n {
		panic("stats: CovarianceMatrixInto scratch size mismatch")
	}
	MeanVectorInto(mean, samples)
	for i := range cov.Data {
		cov.Data[i] = 0
	}
	for _, s := range samples {
		linalg.Sub(d, s, mean)
		for i := 0; i < n; i++ {
			if d[i] == 0 {
				continue
			}
			ci := cov.Row(i)
			for j := i; j < n; j++ {
				ci[j] += d[i] * d[j]
			}
		}
	}
	k := 1 / float64(len(samples))
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := cov.At(i, j) * k
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return cov
}

// PowerLawFit is the result of fitting Var = φ·Mean^c by least squares in
// log-log space.
type PowerLawFit struct {
	Phi float64 // multiplicative constant φ
	C   float64 // exponent c
	R2  float64 // coefficient of determination of the log-log regression
	N   int     // number of (mean, variance) pairs used
}

// String renders the fit like the paper reports it.
func (f PowerLawFit) String() string {
	return fmt.Sprintf("Var = %.3g·mean^%.3g (R²=%.3f, n=%d)", f.Phi, f.C, f.R2, f.N)
}

// FitPowerLaw fits variance = φ·mean^c over all pairs with strictly positive
// mean and variance, by ordinary least squares on (log mean, log variance).
func FitPowerLaw(means, variances []float64) PowerLawFit {
	if len(means) != len(variances) {
		panic("stats: FitPowerLaw length mismatch")
	}
	var xs, ys []float64
	for i := range means {
		if means[i] > 0 && variances[i] > 0 {
			xs = append(xs, math.Log(means[i]))
			ys = append(ys, math.Log(variances[i]))
		}
	}
	if len(xs) < 2 {
		return PowerLawFit{Phi: 1, C: 1, N: len(xs)}
	}
	slope, intercept, r2 := LinearRegression(xs, ys)
	return PowerLawFit{Phi: math.Exp(intercept), C: slope, R2: r2, N: len(xs)}
}

// LinearRegression fits y = slope·x + intercept by ordinary least squares and
// returns the slope, intercept and R².
func LinearRegression(xs, ys []float64) (slope, intercept, r2 float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: LinearRegression needs >= 2 equal-length samples")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, my, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2
}

// CumulativeShare sorts xs descending and returns, for each prefix, the
// fraction of the total accounted for by the prefix. Used for the paper's
// Figure 2 ("top 20% of demands carry 80% of traffic").
func CumulativeShare(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	var total float64
	for _, x := range s {
		total += x
	}
	out := make([]float64, len(s))
	var run float64
	for i, x := range s {
		run += x
		if total > 0 {
			out[i] = run / total
		}
	}
	return out
}

// PoissonSample draws a Poisson(λ) variate. For large λ it uses the
// Gaussian approximation with continuity correction (exact inversion would
// be prohibitively slow for the Mbps-scale rates we simulate).
func PoissonSample(rng *rand.Rand, lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		// Knuth inversion.
		l := math.Exp(-lambda)
		k, p := 0, 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return float64(k)
			}
			k++
		}
	}
	x := lambda + math.Sqrt(lambda)*rng.NormFloat64()
	return math.Max(0, math.Round(x))
}
