package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/runner"
)

// sweepRegion is a two-demand region whose truth the sweep estimators
// below score against.
var sweepRegion = region{name: "Europe", truth: linalg.Vector{1, 3}, thresh: 0}

// TestBestOverSweepPicksBest checks that the sweep returns the smallest
// MRE over every reg.
func TestBestOverSweepPicksBest(t *testing.T) {
	s := &Suite{pool: runner.NewPool(2)}
	best, err := s.bestOverSweep(context.Background(), "Entropy w. gravity", func(reg float64) (linalg.Vector, int, error) {
		if reg == 1 {
			return linalg.Vector{1, 3}, 1, nil
		}
		return linalg.Vector{2, 3}, 1, nil
	}, sweepRegion)
	if err != nil || best != 0 {
		t.Fatalf("bestOverSweep = %v, %v; want 0, nil", best, err)
	}
}

// TestBestOverSweepFailedPoint checks that one failed sweep point fails
// the sweep and that the error names the method, the region and the reg,
// instead of the point being dropped from the best-of.
func TestBestOverSweepFailedPoint(t *testing.T) {
	s := &Suite{pool: runner.NewPool(2)}
	boom := errors.New("solver diverged")
	_, err := s.bestOverSweep(context.Background(), "Bayes w. gravity", func(reg float64) (linalg.Vector, int, error) {
		if reg == 1e3 {
			return nil, 0, boom
		}
		return linalg.Vector{1, 3}, 1, nil
	}, sweepRegion)
	if !errors.Is(err, boom) {
		t.Fatalf("bestOverSweep error = %v, want it to wrap %v", err, boom)
	}
	for _, want := range []string{"Bayes w. gravity", "Europe", "reg 1000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestBestOverSweepCancelled checks that a cancelled context fails the
// sweep rather than returning the best of whichever points finished.
func TestBestOverSweepCancelled(t *testing.T) {
	s := &Suite{pool: runner.NewPool(2)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.bestOverSweep(ctx, "Entropy w. gravity", func(float64) (linalg.Vector, int, error) {
		return linalg.Vector{1, 3}, 1, nil
	}, sweepRegion)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("bestOverSweep error = %v, want context.Canceled", err)
	}
}
