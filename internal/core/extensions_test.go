package core

import (
	"testing"
)

func TestIterativeBayesianConverges(t *testing.T) {
	f := europe(t)
	prior := Gravity(f.inst)
	est, rounds, err := IterativeBayesian(f.inst, prior, DefaultIterativeBayesianConfig())
	if err != nil {
		t.Fatalf("IterativeBayesian: %v", err)
	}
	if rounds < 1 {
		t.Fatalf("rounds = %d", rounds)
	}
	base, _, err := Bayesian(f.inst, prior, 1000, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mreIter := MRE(est, f.truth, f.thresh)
	mreBase := MRE(base, f.truth, f.thresh)
	t.Logf("iterative Bayes MRE %.3f after %d rounds (one-shot %.3f)", mreIter, rounds, mreBase)
	// Refinement must not be substantially worse than the one-shot solve.
	if mreIter > mreBase*1.25+0.02 {
		t.Errorf("iterative refinement degraded the estimate: %.3f vs %.3f", mreIter, mreBase)
	}
	for _, v := range est {
		if v < 0 {
			t.Fatal("negative estimate")
		}
	}
}

func TestIterativeBayesianFreshSnapshots(t *testing.T) {
	f := europe(t)
	cfg := DefaultIterativeBayesianConfig()
	cfg.Rounds = 3
	cfg.Snapshots = f.loadSeries(3)
	est, _, err := IterativeBayesian(f.inst, Gravity(f.inst), cfg)
	if err != nil {
		t.Fatalf("IterativeBayesian with snapshots: %v", err)
	}
	if MRE(est, f.truth, f.thresh) > 1 {
		t.Fatal("snapshot-fed refinement diverged")
	}
}

func TestIterativeBayesianRejectsZeroRounds(t *testing.T) {
	f := europe(t)
	cfg := DefaultIterativeBayesianConfig()
	cfg.Rounds = 0
	if _, _, err := IterativeBayesian(f.inst, Gravity(f.inst), cfg); err == nil {
		t.Fatal("expected error for zero rounds")
	}
}

func TestCaoRunsAndBeatsOrMatchesVardi(t *testing.T) {
	f := europe(t)
	loads := f.loadSeries(50)
	mean := f.series.MeanDemand(f.start, 50)
	th := ShareThreshold(mean, 0.9)
	cfg := DefaultCaoConfig()
	cfg.Phi = f.series.Cfg.Phi
	cfg.C = f.series.Cfg.C
	cao, err := Cao(f.rt, loads, cfg)
	if err != nil {
		t.Fatalf("Cao: %v", err)
	}
	for _, v := range cao {
		if v < 0 {
			t.Fatal("negative Cao estimate")
		}
	}
	vardi, _, err := Vardi(f.rt, loads, DefaultVardiConfig(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mreCao, mreVardi := MRE(cao, mean, th), MRE(vardi, mean, th)
	t.Logf("Cao MRE %.3f vs Vardi %.3f", mreCao, mreVardi)
	// The generalized scaling law matches the generating process, so Cao
	// should not lose badly to strict-Poisson Vardi.
	if mreCao > mreVardi*1.5 {
		t.Errorf("Cao (%.3f) much worse than Vardi (%.3f)", mreCao, mreVardi)
	}
}

func TestCaoRejectsBadConfig(t *testing.T) {
	f := europe(t)
	if _, err := Cao(f.rt, f.loadSeries(1), DefaultCaoConfig()); err == nil {
		t.Fatal("expected error for single sample")
	}
	cfg := DefaultCaoConfig()
	cfg.Phi = 0
	if _, err := Cao(f.rt, f.loadSeries(5), cfg); err == nil {
		t.Fatal("expected error for phi=0")
	}
}
