package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/linalg"
)

// generateRef is the serial generator Generate replaced, kept verbatim
// as the bit-identity oracle for TestGenerateMatchesReference: every RNG
// draw and every floating-point operation in its original order.
func generateRef(cfg Config) (*Series, error) {
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
	for k := 0; k < cfg.Samples; k++ {
		tm := float64(k) * cfg.StepMinutes
		s.Times[k] = tm
		d := diurnal(tm, cfg)
		sk := linalg.NewVector(p)
		// Time-varying fanouts for this interval.
		for src := 0; src < n; src++ {
			ingress := w[src] * cfg.TotalPeakMbps * d *
				(1 + cfg.NodeWobble*math.Sin(2*math.Pi*tm/MinutesPerDay+nodePhase[src]))
			// Source-common fluctuation: shared by every demand of this
			// source, so it moves the demands but cancels out of the
			// fanouts — the mechanism behind the paper's Figs. 4–5.
			s2 := cfg.SourceNoise * cfg.SourceNoise
			common := math.Exp(cfg.SourceNoise*rng.NormFloat64() - s2/2)
			var rowSum float64
			row := make([]float64, 0, n-1)
			idx := make([]int, 0, n-1)
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				pi := pairIndex(n, src, dst)
				a := alpha[pi] * (1 + cfg.FanoutDrift*math.Sin(2*math.Pi*tm/period[pi]+phase[pi]))
				row = append(row, a)
				idx = append(idx, pi)
				rowSum += a
			}
			for i, a := range row {
				lambda := ingress * a / rowSum
				if lambda <= 0 {
					sk[idx[i]] = 0
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
				sk[idx[i]] = lambda * common * math.Exp(sigma*rng.NormFloat64()-sp2/2)
			}
		}
		s.Demands[k] = sk
	}
	return s, nil
}

// TestGenerateMatchesReference pins Generate to generateRef bit for bit,
// at several GOMAXPROCS settings: the parallel passes may change where
// the math runs, never a single output bit. The hostile configs make
// some λ zero, negative or NaN, which pins the rule that a pair with
// λ <= 0, and only such a pair, takes no draw.
func TestGenerateMatchesReference(t *testing.T) {
	type tc struct {
		name string
		cfg  Config
	}
	with := func(cfg Config, edit func(*Config)) Config {
		edit(&cfg)
		return cfg
	}
	cases := []tc{
		{"europe/1", Europe(1)},
		{"america/1", America(1)},
		{"scaled/1/3", Scaled(1, 3)},
		{"scaled/1/20", Scaled(1, 20)},
		{"zero-peak", with(Europe(1), func(c *Config) { c.TotalPeakMbps = 0 })},
		{"fanout-drift-2", with(Scaled(2, 20), func(c *Config) { c.FanoutDrift = 2 })},
		{"nan-phi", with(Europe(2), func(c *Config) { c.Phi = math.NaN() })},
		// A lognormal spread this wide overflows some sources' base
		// fanouts to Inf/Inf: those rows' λ are NaN and draw, while the
		// other rows stay finite and show any shift in the stream.
		{"nan-rows", with(Europe(1), func(c *Config) { c.PairSpread = 300 })},
		{"one-sample", with(America(2), func(c *Config) { c.Samples = 1 })},
		{"partial-block", with(America(3), func(c *Config) { c.Samples = genBlock + genBlock/2 + 1 })},
	}
	if !testing.Short() {
		cases = append(cases,
			tc{"europe/2", Europe(2)}, tc{"europe/3", Europe(3)},
			tc{"america/2", America(2)}, tc{"america/3", America(3)},
			tc{"scaled/2/3", Scaled(2, 3)}, tc{"scaled/3/20", Scaled(3, 20)},
			tc{"scaled/1/100", Scaled(1, 100)}, tc{"scaled/2/100", Scaled(2, 100)},
			tc{"scaled/1/300", Scaled(1, 300)},
		)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		want, err := generateRef(c.cfg)
		if err != nil {
			t.Fatalf("%s: generateRef: %v", c.name, err)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := Generate(c.cfg)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", c.name, procs, err)
			}
			if diff := seriesBitsDiff(got, want); diff != "" {
				t.Errorf("%s at GOMAXPROCS %d: %s", c.name, procs, diff)
			}
		}
	}
}

// seriesBitsDiff names the first value whose bits differ between a and
// b, or returns "" when they are identical.
func seriesBitsDiff(a, b *Series) string {
	if a.N != b.N || a.P != b.P || len(a.Demands) != len(b.Demands) {
		return fmt.Sprintf("shape N=%d P=%d K=%d, want N=%d P=%d K=%d",
			a.N, a.P, len(a.Demands), b.N, b.P, len(b.Demands))
	}
	diff := vecBitsDiff("Times", a.Times, b.Times)
	if diff == "" {
		diff = vecBitsDiff("BaseFanouts", a.BaseFanouts, b.BaseFanouts)
	}
	if diff == "" {
		diff = vecBitsDiff("PoPWeights", a.PoPWeights, b.PoPWeights)
	}
	for k := 0; k < len(a.Demands) && diff == ""; k++ {
		diff = vecBitsDiff(fmt.Sprintf("Demands[%d]", k), a.Demands[k], b.Demands[k])
	}
	return diff
}

func vecBitsDiff(name string, a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s has %d values, want %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("%s[%d] = %v, want %v", name, i, a[i], b[i])
		}
	}
	return ""
}
