// Package traffic generates synthetic PoP-to-PoP demand time series
// calibrated to every statistical property the paper reports for the real
// Global Crossing data:
//
//   - pronounced diurnal cycles whose busy periods partly overlap around
//     18:00 GMT between the European and American subnetworks (Fig. 1),
//   - heavy-tailed spatial concentration: the top 20% of demands carry
//     roughly 80% of the traffic (Figs. 2–3),
//   - per-source dominant destinations that violate the gravity assumption,
//     much more strongly in the American network (§5.2.4, Fig. 7),
//   - fanout factors that are far more stable over time than the demands
//     themselves, especially for large demands (Figs. 4–5),
//   - a mean–variance scaling law Var{s_p} = φ·λ_p^c on normalized
//     5-minute busy-hour samples, with exponents c≈1.6 (Europe) and c≈1.5
//     (USA) as in Fig. 6. The multiplicative constant φ is deliberately
//     smaller than the paper's fitted values (0.82 / 2.44): at those
//     absolute levels the law implies >100% relative 5-minute fluctuations
//     for the largest demands, contradicting the stability visible in the
//     paper's own Fig. 4, so the generator keeps the law's form and
//     exponent at a noise level consistent with Figs. 4–5 (see
//     EXPERIMENTS.md, Fig. 6 entry),
//   - largest demands on the order of 1200 Mbps (§5.1.4).
//
// The generated series is the ground truth against which estimators are
// scored; link loads are always derived from it via t = R·s, so routing,
// demands and loads are consistent exactly as in the paper's evaluation
// protocol (§5.1.4).
//
// Generate's output is a function of its Config alone: deterministic in
// Config.Seed and bit-identical at any GOMAXPROCS. Every random draw is
// made on the calling goroutine in one fixed serial order; only the
// deterministic per-element math between the draws runs across cores.
package traffic

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/runner"
	"repro/internal/stats"
)

// MinutesPerDay is the length of the simulated measurement period.
const MinutesPerDay = 24 * 60

// Config parameterizes the demand generator. The Europe and America
// functions return configurations calibrated to the paper's two
// subnetworks.
type Config struct {
	Seed        int64
	NumPoPs     int
	Samples     int     // number of measurement intervals (288 = 24 h at 5 min)
	StepMinutes float64 // polling interval length

	PeakMinute       float64 // busy-period center, minutes after 00:00 GMT
	OffPeakLevel     float64 // trough-to-peak ratio of total traffic
	PeakSharpness    float64 // exponent of the raised-cosine diurnal shape
	TotalPeakMbps    float64 // total network traffic at the busy-period peak
	PoPSkew          float64 // Zipf exponent for PoP size weights
	DominantPerPoP   int     // preferred destinations per source PoP
	DominantStrength float64 // multiplier applied to preferred destinations
	Phi, C           float64 // mean–variance law on normalized demands
	SourceNoise      float64 // σ of the source-common lognormal noise factor
	FanoutDrift      float64 // relative amplitude of slow fanout wobble
	NodeWobble       float64 // relative amplitude of per-PoP diurnal deviation
	PairSpread       float64 // σ of the static lognormal fanout distortion
}

// Europe returns the generator configuration for the 12-PoP European
// subnetwork: earlier busy hour, milder destination skew (gravity works
// reasonably there), φ=0.82, c=1.6.
func Europe(seed int64) Config {
	return Config{
		Seed: seed, NumPoPs: 12, Samples: 288, StepMinutes: 5,
		PeakMinute: 16.5 * 60, OffPeakLevel: 0.3, PeakSharpness: 1.6,
		TotalPeakMbps: 12000, PoPSkew: 1.3,
		DominantPerPoP: 1, DominantStrength: 1.0,
		Phi: 0.01, C: 1.6, SourceNoise: 0.15,
		FanoutDrift: 0.04, NodeWobble: 0.05, PairSpread: 0.8,
	}
}

// America returns the generator configuration for the 25-PoP American
// subnetwork: later busy hour, strong per-source dominant destinations
// (which break the gravity model, §5.2.4), φ=2.44, c=1.5.
func America(seed int64) Config {
	return Config{
		Seed: seed, NumPoPs: 25, Samples: 288, StepMinutes: 5,
		PeakMinute: 20.5 * 60, OffPeakLevel: 0.3, PeakSharpness: 1.6,
		TotalPeakMbps: 30000, PoPSkew: 1.2,
		DominantPerPoP: 3, DominantStrength: 10.0,
		Phi: 0.01, C: 1.5, SourceNoise: 0.15,
		FanoutDrift: 0.04, NodeWobble: 0.05, PairSpread: 0.8,
	}
}

// Scaled returns a generator configuration for an n-PoP backbone, the
// demand side of the scenario lab's scaled(n) family. It keeps the
// paper-calibrated statistical shape (diurnal cycle, heavy-tailed spatial
// concentration, stable fanouts, mean–variance law with the American
// exponent) while growing total traffic linearly with the PoP count —
// 1200 Mbps of peak traffic per PoP, matching the America calibration at
// n = 25 — so per-PoP and per-demand magnitudes stay in the regime the
// estimators were tuned for at any scale.
func Scaled(seed int64, n int) Config {
	return Config{
		Seed: seed, NumPoPs: n, Samples: 288, StepMinutes: 5,
		PeakMinute: 18 * 60, OffPeakLevel: 0.3, PeakSharpness: 1.6,
		TotalPeakMbps: 1200 * float64(n), PoPSkew: 1.2,
		DominantPerPoP: 2, DominantStrength: 5.0,
		Phi: 0.01, C: 1.5, SourceNoise: 0.15,
		FanoutDrift: 0.04, NodeWobble: 0.05, PairSpread: 0.8,
	}
}

// Series is a generated demand time series: Demands[k][p] is the 5-minute
// average rate (Mbps) of PoP pair p during interval k.
type Series struct {
	Cfg     Config
	N       int             // PoPs
	P       int             // ordered pairs N(N−1)
	Times   []float64       // interval start, minutes after 00:00 GMT
	Demands []linalg.Vector // [Samples][P]

	// BaseFanouts are the time-averaged fanout factors α_nm used by the
	// generator (ground truth for fanout-stability analysis).
	BaseFanouts linalg.Vector
	// PoPWeights are the relative sizes of the PoPs.
	PoPWeights linalg.Vector
}

// pairIndex matches topology.Network.PairIndex: row-major with the diagonal
// removed. Kept local so the traffic package has no topology dependency.
func pairIndex(n, src, dst int) int {
	d := dst
	if dst > src {
		d--
	}
	return src*(n-1) + d
}

// genPool runs Generate's per-interval math across the process's cores.
// Its ForEach always works on the calling goroutine too, so a Generate
// nested inside jobs already running on another pool (tmbench's
// experiment drivers, a fleet building several tenants) cannot deadlock.
var genPool = runner.NewPool(0)

// Generate produces a demand series from cfg. The series is a function of
// cfg alone: deterministic in cfg.Seed and bit-identical at any
// GOMAXPROCS. Every random draw is made on the calling goroutine in one
// fixed serial order; only the deterministic math in between fans out
// over intervals.
func Generate(cfg Config) (*Series, error) {
	if cfg.NumPoPs < 2 {
		return nil, fmt.Errorf("traffic: need >= 2 PoPs, got %d", cfg.NumPoPs)
	}
	if cfg.Samples < 1 || cfg.StepMinutes <= 0 {
		return nil, fmt.Errorf("traffic: bad sampling config %d x %v", cfg.Samples, cfg.StepMinutes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.NumPoPs
	p := n * (n - 1)
	s := &Series{Cfg: cfg, N: n, P: p}

	// PoP size weights: Zipf over PoP index (low index = major city), with
	// mild lognormal distortion so no two networks look identical.
	w := linalg.NewVector(n)
	var wSum float64
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i+1), -cfg.PoPSkew) * math.Exp(0.25*rng.NormFloat64())
		wSum += w[i]
	}
	w.Scale(1 / wSum)
	s.PoPWeights = w

	// Base fanouts: gravity-like (proportional to destination weight) with
	// lognormal distortion and a handful of dominant destinations per
	// source. DominantStrength >> 1 makes PoPs send most traffic to a few
	// destinations that differ per PoP — exactly what defeats the gravity
	// model in the American network.
	alpha := linalg.NewVector(p)
	for src := 0; src < n; src++ {
		dominant := map[int]bool{}
		for len(dominant) < cfg.DominantPerPoP && len(dominant) < n-1 {
			d := rng.Intn(n)
			if d != src {
				dominant[d] = true
			}
		}
		var rowSum float64
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			a := w[dst] * math.Exp(cfg.PairSpread*rng.NormFloat64())
			if dominant[dst] {
				a *= 1 + cfg.DominantStrength*rng.Float64()
			}
			alpha[pairIndex(n, src, dst)] = a
			rowSum += a
		}
		for dst := 0; dst < n; dst++ {
			if dst != src {
				alpha[pairIndex(n, src, dst)] /= rowSum
			}
		}
	}
	s.BaseFanouts = alpha

	// Slow fanout wobble: per-pair sinusoid with random phase and period.
	phase := make([]float64, p)
	period := make([]float64, p)
	for i := range phase {
		phase[i] = 2 * math.Pi * rng.Float64()
		period[i] = MinutesPerDay * (0.5 + rng.Float64())
	}
	// Per-PoP deviation from the network-wide diurnal shape.
	nodePhase := make([]float64, n)
	for i := range nodePhase {
		nodePhase[i] = 2 * math.Pi * rng.Float64()
	}

	s.Times = make([]float64, cfg.Samples)
	s.Demands = make([]linalg.Vector, cfg.Samples)
	s0 := cfg.TotalPeakMbps // normalization scale for the variance law
	s2 := cfg.SourceNoise * cfg.SourceNoise
	// The intervals run in blocks of genBlock, three passes each. Passes 1
	// and 3 hold the transcendental math and fan out over the block's
	// intervals on genPool; pass 2 makes the block's RNG draws on this
	// goroutine, in the order a single loop over intervals, sources and
	// destinations would. zSrc and zPair hold those draws between passes
	// 2 and 3, so scratch stays one block of vectors, not a second series.
	zSrc := make([]float64, genBlock*n)
	zPair := make([]float64, genBlock*p)
	// The pairs of source src are the contiguous run
	// [src*(n-1), (src+1)*(n-1)) in destination order (see pairIndex).
	m := n - 1
	for k0 := 0; k0 < cfg.Samples; k0 += genBlock {
		k1 := min(k0+genBlock, cfg.Samples)

		// Pass 1: each pair's mean rate λ under the time-varying fanouts,
		// written into the interval's output vector.
		forEachInterval(k0, k1, func(k int) {
			tm := float64(k) * cfg.StepMinutes
			s.Times[k] = tm
			d := diurnal(tm, cfg)
			sk := linalg.NewVector(p)
			for src := 0; src < n; src++ {
				ingress := w[src] * cfg.TotalPeakMbps * d *
					(1 + cfg.NodeWobble*math.Sin(2*math.Pi*tm/MinutesPerDay+nodePhase[src]))
				row := sk[src*m : (src+1)*m]
				var rowSum float64
				for i := range row {
					pi := src*m + i
					row[i] = alpha[pi] * (1 + cfg.FanoutDrift*math.Sin(2*math.Pi*tm/period[pi]+phase[pi]))
					rowSum += row[i]
				}
				for i, a := range row {
					row[i] = ingress * a / rowSum
				}
			}
			s.Demands[k] = sk
		})

		// Pass 2: the draws. Each source takes one for its common factor,
		// then one per pair with λ > 0; a pair with λ <= 0 draws nothing.
		for k := k0; k < k1; k++ {
			sk := s.Demands[k]
			zs, zp := zSrc[(k-k0)*n:], zPair[(k-k0)*p:]
			for src := 0; src < n; src++ {
				zs[src] = rng.NormFloat64()
				for pi := src * m; pi < (src+1)*m; pi++ {
					if sk[pi] <= 0 {
						continue
					}
					zp[pi] = rng.NormFloat64()
				}
			}
		}

		// Pass 3: the noise, applied in place.
		forEachInterval(k0, k1, func(k int) {
			sk := s.Demands[k]
			zs, zp := zSrc[(k-k0)*n:], zPair[(k-k0)*p:]
			for src := 0; src < n; src++ {
				// Source-common fluctuation: shared by every demand of this
				// source, so it moves the demands but cancels out of the
				// fanouts — the mechanism behind the paper's Figs. 4–5.
				common := math.Exp(cfg.SourceNoise*zs[src] - s2/2)
				for pi := src * m; pi < (src+1)*m; pi++ {
					lambda := sk[pi]
					if lambda <= 0 {
						sk[pi] = 0
						continue
					}
					// Mean–variance law on normalized demands:
					// Var{s/s0} = φ·(λ/s0)^c. Realized with mean-preserving
					// lognormal noise, s = λ·common·pair, where the total
					// log-variance σ² = log(1 + φ·(λ/s0)^{c−2}) hits the law
					// exactly (no zero-censoring as an additive Gaussian would
					// need). The source-common factor's share σ0² is removed
					// from the per-pair share so the product keeps the law.
					relVar := cfg.Phi * math.Pow(lambda/s0, cfg.C-2)
					sp2 := math.Log1p(relVar) - s2
					if sp2 < 0 {
						sp2 = 0
					}
					sigma := math.Sqrt(sp2)
					sk[pi] = lambda * common * math.Exp(sigma*zp[pi]-sp2/2)
				}
			}
		})
	}
	return s, nil
}

// genBlock is how many intervals Generate carries through its three
// passes at a time: enough to keep every worker busy in passes 1 and 3,
// few enough that the block's draws stay a small fraction of the series.
const genBlock = 16

// forEachInterval runs fn(k) for k in [k0, k1) on genPool.
func forEachInterval(k0, k1 int, fn func(k int)) {
	// fn cannot fail and the context is never cancelled, so ForEach
	// always returns nil.
	_ = genPool.ForEach(context.Background(), k1-k0, func(i int) error {
		fn(k0 + i)
		return nil
	})
}

// diurnal is the raised-cosine daily shape, 1 at the peak and OffPeakLevel
// at the trough.
func diurnal(minute float64, cfg Config) float64 {
	x := 0.5 * (1 + math.Cos(2*math.Pi*(minute-cfg.PeakMinute)/MinutesPerDay))
	return cfg.OffPeakLevel + (1-cfg.OffPeakLevel)*math.Pow(x, cfg.PeakSharpness)
}

// TotalTraffic returns the total network traffic per interval.
func (s *Series) TotalTraffic() linalg.Vector {
	tot := linalg.NewVector(len(s.Demands))
	for k, d := range s.Demands {
		tot[k] = d.Sum()
	}
	return tot
}

// BusyWindow returns the start index of the length-k window with the
// largest average total traffic (the paper's shaded busy period).
func (s *Series) BusyWindow(k int) int {
	if k <= 0 || k > len(s.Demands) {
		panic(fmt.Sprintf("traffic: BusyWindow length %d out of range", k))
	}
	tot := s.TotalTraffic()
	var run float64
	for i := 0; i < k; i++ {
		run += tot[i]
	}
	best, bestAt := run, 0
	for i := k; i < len(tot); i++ {
		run += tot[i] - tot[i-k]
		if run > best {
			best, bestAt = run, i-k+1
		}
	}
	return bestAt
}

// Window returns the demand vectors of the half-open interval [start,
// start+k).
func (s *Series) Window(start, k int) []linalg.Vector {
	return s.Demands[start : start+k]
}

// MeanDemand returns the per-pair average over a window.
func (s *Series) MeanDemand(start, k int) linalg.Vector {
	m := linalg.NewVector(s.P)
	for _, d := range s.Window(start, k) {
		linalg.Axpy(1, d, m)
	}
	m.Scale(1 / float64(k))
	return m
}

// Fanouts returns the fanout vector α[k] of interval k: α_nm = s_nm / Σ_m
// s_nm. Sources with zero traffic get a uniform row.
func (s *Series) Fanouts(k int) linalg.Vector {
	return FanoutsOf(s.N, s.Demands[k])
}

// FanoutsOf derives the fanout vector α_nm = s_nm / Σ_m s_nm from any
// demand vector over n PoPs (pair indexing as in topology.Network:
// row-major with the diagonal removed). Sources with zero traffic get a
// uniform row. Shared by Series.Fanouts and the streaming engine's
// online fanout state, so the two can never drift.
func FanoutsOf(n int, d linalg.Vector) linalg.Vector {
	a := linalg.NewVector(n * (n - 1))
	for src := 0; src < n; src++ {
		var tot float64
		for dst := 0; dst < n; dst++ {
			if dst != src {
				tot += d[pairIndex(n, src, dst)]
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			pi := pairIndex(n, src, dst)
			if tot > 0 {
				a[pi] = d[pi] / tot
			} else {
				a[pi] = 1 / float64(n-1)
			}
		}
	}
	return a
}

// SyntheticPoisson generates a time series of K demand vectors whose
// elements are independent Poisson with the given means — the synthetic
// experiment of Fig. 12 that isolates covariance-estimation error.
func SyntheticPoisson(mean linalg.Vector, k int, seed int64) []linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]linalg.Vector, k)
	for i := range out {
		v := linalg.NewVector(len(mean))
		for j, m := range mean {
			v[j] = stats.PoissonSample(rng, m)
		}
		out[i] = v
	}
	return out
}
