// Package core implements every traffic-matrix estimation method the paper
// evaluates (§4): the gravity model, Kruithof's projection, the
// entropy-regularized ("tomogravity") and Bayesian regularized estimators,
// Vardi's second-moment method, the paper's novel constant-fanout estimator
// over a time series of link loads, worst-case LP bounds, and estimation
// combined with direct measurement of selected demands — plus the mean
// relative error metric (eq. 8) used to score them all.
package core

import (
	"fmt"
	"sort"

	"repro/internal/linalg"
	"repro/internal/topology"
)

// Instance is one snapshot estimation problem: a routing matrix and the
// corresponding measured link loads t (Mbps). Loads covers every link,
// access links included, so the marginal totals te(n) and tx(m) of the
// paper's notation are observable.
//
// An Instance is read-only after construction, and every estimation
// method in this package allocates its own scratch state per call — so a
// single Instance may be shared freely by concurrent estimator calls
// (the experiment engine in internal/runner relies on this).
type Instance struct {
	Rt    *topology.Routing
	Loads linalg.Vector
}

// NewInstance validates dimensions and returns an Instance.
func NewInstance(rt *topology.Routing, loads linalg.Vector) (*Instance, error) {
	if len(loads) != rt.R.Rows() {
		return nil, fmt.Errorf("core: %d loads for %d links", len(loads), rt.R.Rows())
	}
	return &Instance{Rt: rt, Loads: loads}, nil
}

// NumPairs returns the number of demands P.
func (in *Instance) NumPairs() int { return in.Rt.Net.NumPairs() }

// IngressTotals returns te(n) for every PoP, read off the ingress access
// link loads.
func (in *Instance) IngressTotals() linalg.Vector {
	n := in.Rt.Net.NumPoPs()
	te := linalg.NewVector(n)
	for pop := 0; pop < n; pop++ {
		te[pop] = in.Loads[in.Rt.IngressRow(pop)]
	}
	return te
}

// EgressTotals returns tx(m) for every PoP, read off the egress access link
// loads.
func (in *Instance) EgressTotals() linalg.Vector {
	n := in.Rt.Net.NumPoPs()
	tx := linalg.NewVector(n)
	for pop := 0; pop < n; pop++ {
		tx[pop] = in.Loads[in.Rt.EgressRow(pop)]
	}
	return tx
}

// TotalTraffic returns the total network traffic Σ te(n).
func (in *Instance) TotalTraffic() float64 { return in.IngressTotals().Sum() }

// MRE is the paper's mean relative error (eq. 8): the average of
// |ŝ_i − s_i| / s_i over the true demands strictly larger than threshold.
// Returns 0 if no demand exceeds the threshold.
func MRE(estimate, truth linalg.Vector, threshold float64) float64 {
	if len(estimate) != len(truth) {
		panic("core: MRE length mismatch")
	}
	var sum float64
	var n int
	for i, s := range truth {
		if s > threshold {
			d := estimate[i] - s
			if d < 0 {
				d = -d
			}
			sum += d / s
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ShareThreshold returns the demand size threshold such that demands above
// it carry approximately the given fraction of total traffic (the paper
// uses 90%, which selects the 29 largest European and 155 largest American
// demands). It returns the largest threshold whose exceeders carry at least
// share of the total. It is ShareThresholdWS on fresh scratch.
func ShareThreshold(truth linalg.Vector, share float64) float64 {
	return ShareThresholdWS(nil, truth, share)
}

// CountAbove returns how many elements of v exceed threshold.
func CountAbove(v linalg.Vector, threshold float64) int {
	n := 0
	for _, x := range v {
		if x > threshold {
			n++
		}
	}
	return n
}

// RankCorrelation returns Spearman's rank correlation between the estimate
// and the truth — the paper notes most methods rank demand sizes very
// accurately even when relative errors are substantial (§5.3.6).
func RankCorrelation(estimate, truth linalg.Vector) float64 {
	if len(estimate) != len(truth) {
		panic("core: RankCorrelation length mismatch")
	}
	re := ranks(estimate)
	rt := ranks(truth)
	n := float64(len(re))
	if n < 2 {
		return 0
	}
	var d2 float64
	for i := range re {
		d := re[i] - rt[i]
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}

// ranks assigns average ranks (1-based) with ties averaged.
func ranks(v linalg.Vector) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}
