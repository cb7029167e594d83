package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// fixture bundles a network, its routing, a generated series and the
// busy-window snapshot used across the estimation tests.
type fixture struct {
	net    *topology.Network
	rt     *topology.Routing
	series *traffic.Series
	start  int           // busy window start
	truth  linalg.Vector // busy-window mean demands
	inst   *Instance     // loads = R·truth
	thresh float64       // 90%-of-traffic threshold
}

var (
	euOnce sync.Once
	euFix  *fixture
	usOnce sync.Once
	usFix  *fixture
)

func buildFixture(t testing.TB, net *topology.Network, cfg traffic.Config) *fixture {
	t.Helper()
	rt, err := net.Route()
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	series, err := traffic.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	start := series.BusyWindow(50)
	truth := series.MeanDemand(start, 50)
	inst, err := NewInstance(rt, rt.LinkLoads(truth))
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return &fixture{
		net: net, rt: rt, series: series, start: start, truth: truth,
		inst: inst, thresh: ShareThreshold(truth, 0.9),
	}
}

func europe(t testing.TB) *fixture {
	euOnce.Do(func() { euFix = buildFixture(t, topology.Europe(1), traffic.Europe(1)) })
	return euFix
}

func america(t testing.TB) *fixture {
	usOnce.Do(func() { usFix = buildFixture(t, topology.America(1), traffic.America(1)) })
	return usFix
}

// loadSeries returns the consistent link-load time series of the busy
// window: t[k] = R·s[k].
func (f *fixture) loadSeries(k int) []linalg.Vector {
	out := make([]linalg.Vector, k)
	for i := 0; i < k; i++ {
		out[i] = f.rt.LinkLoads(f.series.Demands[f.start+i])
	}
	return out
}

func TestMREBasics(t *testing.T) {
	truth := linalg.Vector{10, 20, 1}
	est := linalg.Vector{11, 18, 100}
	got := MRE(est, truth, 5) // only the first two count
	want := (0.1 + 0.1) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MRE = %v, want %v", got, want)
	}
	if MRE(truth, truth, 0) != 0 {
		t.Fatal("MRE of exact estimate should be 0")
	}
	if MRE(est, truth, 1000) != 0 {
		t.Fatal("MRE with nothing above threshold should be 0")
	}
}

func TestShareThreshold(t *testing.T) {
	truth := linalg.Vector{50, 30, 10, 5, 5}
	th := ShareThreshold(truth, 0.9)
	// 50+30+10 = 90 of 100: threshold keeps the top three.
	if n := CountAbove(truth, th); n != 3 {
		t.Fatalf("threshold %v keeps %d demands, want 3", th, n)
	}
	if ShareThreshold(linalg.Vector{0, 0}, 0.9) != 0 {
		t.Fatal("all-zero demands should give 0 threshold")
	}
}

func TestShareThresholdPaperCounts(t *testing.T) {
	// The paper's 90% criterion selects 29 EU and 155 US demands; our
	// synthetic networks should land in the same regime.
	eu, us := europe(t), america(t)
	nEU := CountAbove(eu.truth, eu.thresh)
	nUS := CountAbove(us.truth, us.thresh)
	if nEU < 10 || nEU > 60 {
		t.Errorf("EU: %d demands carry 90%%, paper has 29", nEU)
	}
	if nUS < 60 || nUS > 300 {
		t.Errorf("US: %d demands carry 90%%, paper has 155", nUS)
	}
}

func TestRankCorrelation(t *testing.T) {
	a := linalg.Vector{1, 2, 3, 4}
	if r := RankCorrelation(a, a); math.Abs(r-1) > 1e-12 {
		t.Fatalf("self correlation = %v", r)
	}
	b := linalg.Vector{4, 3, 2, 1}
	if r := RankCorrelation(a, b); math.Abs(r+1) > 1e-12 {
		t.Fatalf("reversed correlation = %v", r)
	}
}

func TestInstanceTotals(t *testing.T) {
	f := europe(t)
	te := f.inst.IngressTotals()
	tx := f.inst.EgressTotals()
	// Ingress totals must equal per-source demand sums.
	for src := 0; src < f.net.NumPoPs(); src++ {
		var want float64
		for dst := 0; dst < f.net.NumPoPs(); dst++ {
			if dst != src {
				want += f.truth[f.net.PairIndex(src, dst)]
			}
		}
		if math.Abs(te[src]-want) > 1e-6*(1+want) {
			t.Fatalf("te[%d] = %v, want %v", src, te[src], want)
		}
	}
	if math.Abs(te.Sum()-tx.Sum()) > 1e-6*te.Sum() {
		t.Fatalf("ingress total %v != egress total %v", te.Sum(), tx.Sum())
	}
	if math.Abs(f.inst.TotalTraffic()-f.truth.Sum()) > 1e-6*f.truth.Sum() {
		t.Fatal("TotalTraffic mismatch")
	}
}

func TestNewInstanceRejectsBadLoads(t *testing.T) {
	f := europe(t)
	if _, err := NewInstance(f.rt, linalg.NewVector(3)); err == nil {
		t.Fatal("expected error for wrong load length")
	}
}

func TestGravityPreservesTotalsAndMarginals(t *testing.T) {
	f := europe(t)
	g := Gravity(f.inst)
	if math.Abs(g.Sum()-f.truth.Sum()) > 1e-6*f.truth.Sum() {
		t.Fatalf("gravity total %v != true total %v", g.Sum(), f.truth.Sum())
	}
	for _, v := range g {
		if v < 0 {
			t.Fatal("negative gravity estimate")
		}
	}
}

func TestGravityBetterInEuropeThanAmerica(t *testing.T) {
	// Paper: gravity MRE ≈ 0.26 EU vs ≈ 0.8 US (Fig. 7, Table 2) because
	// American PoPs have dominating destinations.
	eu, us := europe(t), america(t)
	mreEU := MRE(Gravity(eu.inst), eu.truth, eu.thresh)
	mreUS := MRE(Gravity(us.inst), us.truth, us.thresh)
	t.Logf("gravity MRE: EU=%.3f US=%.3f (paper: 0.26 / 0.78)", mreEU, mreUS)
	if mreEU > 0.5 {
		t.Errorf("EU gravity MRE %v too large", mreEU)
	}
	if mreUS < 1.3*mreEU {
		t.Errorf("US gravity MRE %v should clearly exceed EU %v", mreUS, mreEU)
	}
}

func TestGeneralizedGravityZerosPeers(t *testing.T) {
	f := europe(t)
	peers := map[int]bool{0: true, 1: true}
	g := GeneralizedGravity(f.inst, peers)
	if g[f.net.PairIndex(0, 1)] != 0 || g[f.net.PairIndex(1, 0)] != 0 {
		t.Fatal("peer-to-peer demand not zeroed")
	}
	if g[f.net.PairIndex(0, 2)] == 0 {
		t.Fatal("peer-to-access demand wrongly zeroed")
	}
	if math.Abs(g.Sum()-f.truth.Sum()) > 1e-6*f.truth.Sum() {
		t.Fatal("generalized gravity not renormalized")
	}
}

// TestGravityFanoutsSumToOne checks the fanout view of eq. 5: the
// fanouts of the gravity estimate are α_nm = tx(m) / Σ_{k≠n} tx(k), the
// same for every source up to the excluded diagonal, and each row sums
// to one.
func TestGravityFanoutsSumToOne(t *testing.T) {
	f := europe(t)
	n := f.net.NumPoPs()
	a := traffic.FanoutsOf(n, Gravity(f.inst))
	tx := f.inst.EgressTotals()
	for src := 0; src < n; src++ {
		var sum float64
		for dst := 0; dst < n; dst++ {
			if dst != src {
				sum += a[f.net.PairIndex(src, dst)]
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("source %d fanouts sum to %v", src, sum)
		}
		rowTx := tx.Sum() - tx[src]
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			if got, want := a[f.net.PairIndex(src, dst)], tx[dst]/rowTx; math.Abs(got-want) > 1e-12 {
				t.Fatalf("α[%d→%d] = %v, want tx share %v", src, dst, got, want)
			}
		}
	}
}

func TestKruithofMatchesMarginals(t *testing.T) {
	f := europe(t)
	prior := Gravity(f.inst)
	s, err := Kruithof(f.inst, prior)
	if err != nil {
		t.Fatalf("Kruithof: %v", err)
	}
	te := f.inst.IngressTotals()
	for src := 0; src < f.net.NumPoPs(); src++ {
		var sum float64
		for dst := 0; dst < f.net.NumPoPs(); dst++ {
			if dst != src {
				sum += s[f.net.PairIndex(src, dst)]
			}
		}
		if math.Abs(sum-te[src]) > 1e-4*(1+te[src]) {
			t.Fatalf("row %d sum %v, want %v", src, sum, te[src])
		}
	}
}

func TestKruithofGeneralReachesConsistency(t *testing.T) {
	f := europe(t)
	prior := Gravity(f.inst)
	s, res := KruithofGeneral(f.inst, prior, 3000)
	if !res.Converged {
		t.Logf("KruithofGeneral max error %v after %d iters", res.MaxError, res.Iterations)
	}
	loads := f.rt.LinkLoads(s)
	for l := range loads {
		if f.inst.Loads[l] > 0 {
			rel := math.Abs(loads[l]-f.inst.Loads[l]) / f.inst.Loads[l]
			if rel > 0.01 {
				t.Fatalf("link %d load off by %.2f%%", l, 100*rel)
			}
		}
	}
	// Consistency should also improve the estimate versus the raw prior.
	if m, mp := MRE(s, f.truth, f.thresh), MRE(prior, f.truth, f.thresh); m > mp {
		t.Errorf("KruithofGeneral MRE %v worse than prior %v", m, mp)
	}
}

func TestBayesianImprovesOnPrior(t *testing.T) {
	for _, f := range []*fixture{europe(t), america(t)} {
		prior := Gravity(f.inst)
		est, _, err := Bayesian(f.inst, prior, 1000, SolveOptions{})
		if err != nil {
			t.Fatalf("Bayesian: %v", err)
		}
		mre := MRE(est, f.truth, f.thresh)
		mrePrior := MRE(prior, f.truth, f.thresh)
		t.Logf("%s: Bayes MRE %.3f vs gravity prior %.3f", f.net.Name, mre, mrePrior)
		if mre >= mrePrior {
			t.Errorf("%s: Bayesian (%.3f) did not beat its prior (%.3f)", f.net.Name, mre, mrePrior)
		}
	}
}

func TestEntropyImprovesOnPrior(t *testing.T) {
	for _, f := range []*fixture{europe(t), america(t)} {
		prior := Gravity(f.inst)
		est, _, err := Entropy(f.inst, prior, 1000, SolveOptions{})
		if err != nil {
			t.Fatalf("Entropy: %v", err)
		}
		mre := MRE(est, f.truth, f.thresh)
		mrePrior := MRE(prior, f.truth, f.thresh)
		t.Logf("%s: Entropy MRE %.3f vs gravity prior %.3f", f.net.Name, mre, mrePrior)
		if mre >= mrePrior {
			t.Errorf("%s: Entropy (%.3f) did not beat its prior (%.3f)", f.net.Name, mre, mrePrior)
		}
	}
}

func TestRegularizationSweepShape(t *testing.T) {
	// Fig. 13: small regularization ≈ prior MRE; large regularization
	// should do better on consistent data.
	f := europe(t)
	prior := Gravity(f.inst)
	mrePrior := MRE(prior, f.truth, f.thresh)
	smallEst, _, err := Bayesian(f.inst, prior, 1e-5, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	largeEst, _, err := Bayesian(f.inst, prior, 1e4, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	small := MRE(smallEst, f.truth, f.thresh)
	large := MRE(largeEst, f.truth, f.thresh)
	if math.Abs(small-mrePrior) > 0.05 {
		t.Errorf("tiny regularization MRE %v should sit near prior MRE %v", small, mrePrior)
	}
	if large >= small {
		t.Errorf("large-reg MRE %v should beat small-reg %v", large, small)
	}
}

func TestBayesianRejectsBadReg(t *testing.T) {
	f := europe(t)
	if _, _, err := Bayesian(f.inst, Gravity(f.inst), 0, SolveOptions{}); err == nil {
		t.Fatal("expected error for reg=0")
	}
	if _, _, err := Entropy(f.inst, Gravity(f.inst), -1, SolveOptions{}); err == nil {
		t.Fatal("expected error for negative reg")
	}
	// A NaN reg is refused by name, before a solver pass could turn it
	// into a non-finite estimate.
	for _, solve := range []func(*Instance, linalg.Vector, float64, SolveOptions) (linalg.Vector, int, error){Bayesian, Entropy} {
		if _, iters, err := solve(f.inst, Gravity(f.inst), math.NaN(), SolveOptions{}); err == nil ||
			!strings.Contains(err.Error(), "positive regularization, got NaN") || iters != 0 {
			t.Fatalf("reg=NaN: err %v after %d iterations, want the regularization named", err, iters)
		}
	}
}
