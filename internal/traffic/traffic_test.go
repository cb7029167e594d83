package traffic

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stats"
)

func genEurope(t testing.TB) *Series {
	t.Helper()
	s, err := Generate(Europe(1))
	if err != nil {
		t.Fatalf("Generate(Europe): %v", err)
	}
	return s
}

func genAmerica(t testing.TB) *Series {
	t.Helper()
	s, err := Generate(America(1))
	if err != nil {
		t.Fatalf("Generate(America): %v", err)
	}
	return s
}

func TestGenerateShapes(t *testing.T) {
	s := genEurope(t)
	if s.N != 12 || s.P != 132 {
		t.Fatalf("N=%d P=%d", s.N, s.P)
	}
	if len(s.Demands) != 288 || len(s.Times) != 288 {
		t.Fatalf("samples %d/%d", len(s.Demands), len(s.Times))
	}
	for k, d := range s.Demands {
		if len(d) != 132 {
			t.Fatalf("interval %d has %d demands", k, len(d))
		}
		for p, v := range d {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("demand [%d][%d] = %v", k, p, v)
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{NumPoPs: 1, Samples: 10, StepMinutes: 5}); err == nil {
		t.Fatal("expected error for 1 PoP")
	}
	if _, err := Generate(Config{NumPoPs: 5, Samples: 0, StepMinutes: 5}); err == nil {
		t.Fatal("expected error for 0 samples")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genEurope(t)
	b := genEurope(t)
	for k := range a.Demands {
		for p := range a.Demands[k] {
			if a.Demands[k][p] != b.Demands[k][p] {
				t.Fatal("same seed produced different series")
			}
		}
	}
}

func TestDiurnalCycleAndBusyHourOverlap(t *testing.T) {
	eu := genEurope(t)
	us := genAmerica(t)
	totEU, totUS := eu.TotalTraffic(), us.TotalTraffic()
	// Pronounced diurnal cycle: trough well below peak.
	for name, tot := range map[string]linalg.Vector{"eu": totEU, "us": totUS} {
		mx, _ := tot.Max()
		mn := mx
		for _, x := range tot {
			mn = math.Min(mn, x)
		}
		if mn > 0.6*mx {
			t.Fatalf("%s: diurnal swing too small: min %v max %v", name, mn, mx)
		}
	}
	// Busy windows partly overlap around 18:00 GMT (minute 1080).
	we := eu.BusyWindow(50)
	wu := us.BusyWindow(50)
	euPeakMin := eu.Times[we+25]
	usPeakMin := us.Times[wu+25]
	if euPeakMin > usPeakMin {
		t.Fatalf("EU busy hour (%v) should precede US (%v)", euPeakMin, usPeakMin)
	}
	if usPeakMin-euPeakMin > 6*60 {
		t.Fatalf("busy hours too far apart: %v vs %v", euPeakMin, usPeakMin)
	}
}

func TestTopDemandsCarryMostTraffic(t *testing.T) {
	// Paper Fig. 2: top 20% of demands ≈ 80% of traffic in both networks.
	for _, s := range []*Series{genEurope(t), genAmerica(t)} {
		start := s.BusyWindow(50)
		mean := s.MeanDemand(start, 50)
		cs := stats.CumulativeShare(mean)
		at20 := cs[len(cs)/5-1]
		if at20 < 0.6 || at20 > 0.95 {
			t.Fatalf("top-20%% share = %v, want roughly 0.8", at20)
		}
	}
}

func TestMeanVarianceLawCalibration(t *testing.T) {
	// Paper Fig. 6: a strong power-law mean-variance relation with c ≈ 1.6
	// (EU) / 1.5 (US) on normalized busy-hour 5-minute demands. The
	// generator must reproduce its configured exponent and constant.
	cases := []struct {
		name string
		s    *Series
	}{
		{"europe", genEurope(t)},
		{"america", genAmerica(t)},
	}
	for _, tc := range cases {
		start := tc.s.BusyWindow(50)
		win := tc.s.Window(start, 50)
		s0, _ := tc.s.TotalTraffic().Max()
		var means, vars []float64
		for p := 0; p < tc.s.P; p++ {
			xs := make([]float64, len(win))
			for k := range win {
				xs[k] = win[k][p] / s0
			}
			means = append(means, stats.Mean(xs))
			vars = append(vars, stats.Variance(xs))
		}
		fit := stats.FitPowerLaw(means, vars)
		if math.Abs(fit.C-tc.s.Cfg.C) > 0.2 {
			t.Errorf("%s: fitted c = %.3f, want ≈ %.2f (%s)", tc.name, fit.C, tc.s.Cfg.C, fit)
		}
		if fit.Phi < tc.s.Cfg.Phi/3 || fit.Phi > tc.s.Cfg.Phi*3 {
			t.Errorf("%s: fitted φ = %.4f, want order of %.3f", tc.name, fit.Phi, tc.s.Cfg.Phi)
		}
		if fit.R2 < 0.85 {
			t.Errorf("%s: mean-variance relation too weak: R²=%.3f", tc.name, fit.R2)
		}
	}
}

func TestFanoutsMoreStableThanDemands(t *testing.T) {
	// Paper Figs. 4–5: for large demands, fanouts fluctuate much less than
	// demands over the 24 h period.
	s := genAmerica(t)
	mean := s.MeanDemand(0, len(s.Demands))
	// Pick the largest demand of the largest source PoP.
	_, pMax := mean.Max()
	var demandSeries, fanoutSeries []float64
	for k := range s.Demands {
		demandSeries = append(demandSeries, s.Demands[k][pMax])
		fanoutSeries = append(fanoutSeries, s.Fanouts(k)[pMax])
	}
	cvDemand := math.Sqrt(stats.Variance(demandSeries)) / stats.Mean(demandSeries)
	cvFanout := math.Sqrt(stats.Variance(fanoutSeries)) / stats.Mean(fanoutSeries)
	if cvFanout > 0.5*cvDemand {
		t.Fatalf("fanout CV %v not much smaller than demand CV %v", cvFanout, cvDemand)
	}
}

func TestLargestDemandMagnitude(t *testing.T) {
	// Paper §5.1.4: largest demands on the order of 1200 Mbps.
	s := genAmerica(t)
	start := s.BusyWindow(50)
	mean := s.MeanDemand(start, 50)
	mx, _ := mean.Max()
	if mx < 400 || mx > 4000 {
		t.Fatalf("largest busy-hour demand %v Mbps, want on the order of 1200", mx)
	}
}

func TestFanoutsSumToOne(t *testing.T) {
	s := genEurope(t)
	for _, k := range []int{0, 100, 287} {
		a := s.Fanouts(k)
		for src := 0; src < s.N; src++ {
			var sum float64
			for dst := 0; dst < s.N; dst++ {
				if dst != src {
					sum += a[pairIndex(s.N, src, dst)]
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("interval %d src %d fanout sum %v", k, src, sum)
			}
		}
	}
}

func TestBusyWindowIsArgmax(t *testing.T) {
	s := genEurope(t)
	tot := s.TotalTraffic()
	k := 50
	best := s.BusyWindow(k)
	var bestSum float64
	for i := best; i < best+k; i++ {
		bestSum += tot[i]
	}
	for start := 0; start+k <= len(tot); start++ {
		var sum float64
		for i := start; i < start+k; i++ {
			sum += tot[i]
		}
		if sum > bestSum+1e-9 {
			t.Fatalf("window at %d has sum %v > chosen %v", start, sum, bestSum)
		}
	}
}

func TestSyntheticPoissonMoments(t *testing.T) {
	mean := linalg.Vector{5, 50, 500}
	series := SyntheticPoisson(mean, 4000, 9)
	for j, m := range mean {
		xs := make([]float64, len(series))
		for k := range series {
			xs[k] = series[k][j]
		}
		if got := stats.Mean(xs); math.Abs(got-m)/m > 0.1 {
			t.Fatalf("element %d mean %v, want %v", j, got, m)
		}
		if got := stats.Variance(xs); math.Abs(got-m)/m > 0.15 {
			t.Fatalf("element %d variance %v, want %v", j, got, m)
		}
	}
}

func TestDominantDestinationsStrongerInAmerica(t *testing.T) {
	// Gravity-model violation: the max fanout per source should be much
	// larger (relative to the gravity prediction) in the US config.
	eu, us := genEurope(t), genAmerica(t)
	skew := func(s *Series) float64 {
		// Average over sources of (max fanout) / (gravity fanout of that dst).
		var tot float64
		for src := 0; src < s.N; src++ {
			var mx float64
			var mxDst int
			for dst := 0; dst < s.N; dst++ {
				if dst == src {
					continue
				}
				if a := s.BaseFanouts[pairIndex(s.N, src, dst)]; a > mx {
					mx, mxDst = a, dst
				}
			}
			grav := s.PoPWeights[mxDst]
			tot += mx / grav
		}
		return tot / float64(s.N)
	}
	if skew(us) < 1.5*skew(eu) {
		t.Fatalf("US skew %v should exceed EU skew %v substantially", skew(us), skew(eu))
	}
}

func BenchmarkGenerateAmerica(b *testing.B) {
	cfg := America(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
