package core

import (
	"repro/internal/linalg"
	"repro/internal/topology"
)

// Gravity computes the simple gravity model estimate of eq. (5):
//
//	ŝ_nm = C·te(n)·tx(m),
//
// normalized so the estimated total equals the measured total network
// traffic. It uses only the access-link loads, never the interior links, so
// its estimate is generally not consistent with the interior measurements —
// which is why it serves as a prior for the regularized methods rather than
// as an estimator of its own.
func Gravity(in *Instance) linalg.Vector {
	return GravityFromTotalsInto(nil, in.Rt.Net, in.IngressTotals(), in.EgressTotals())
}

// GravityFromTotalsInto computes the gravity estimate of eq. (5) directly
// from per-PoP ingress totals te(n) and egress totals tx(m), without
// materializing an Instance, and writes it into dst, which is used when
// it has exactly NumPairs elements and reallocated otherwise (nil dst
// always allocates). It is the kernel shared by Gravity and by
// internal/stream's incremental estimator, which sums te and tx over a
// sliding window of collected intervals — sharing the arithmetic is what
// lets the incremental estimate match a batch solve bit-for-bit (up to
// how the window's loads are averaged). The arithmetic — fill order,
// totals, normalization — does not depend on dst, so reusing a buffer
// cannot perturb an estimate.
func GravityFromTotalsInto(dst linalg.Vector, net *topology.Network, te, tx linalg.Vector) linalg.Vector {
	n := net.NumPoPs()
	s := dst
	if len(s) != net.NumPairs() {
		s = linalg.NewVector(net.NumPairs())
	} else {
		s.Zero()
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				s[net.PairIndex(src, dst)] = te[src] * tx[dst]
			}
		}
	}
	// Normalize the estimated total to the measured total traffic.
	tot := te.Sum()
	est := s.Sum()
	if est > 0 {
		s.Scale(tot / est)
	}
	return s
}
