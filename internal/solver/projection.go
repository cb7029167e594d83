package solver

import "sort"

// ProjectSimplexInto overwrites v with its Euclidean projection onto the
// scaled probability simplex { x >= 0 : Σ x_i = radius }. It implements the
// exact O(n log n) sort-based algorithm (Held, Wolfe & Crowder 1974). The
// sorted copy of v lives in scratch (grown as needed and returned by value
// for reuse; nil allocates), so repeated projections — one per source
// group per FISTA iteration in the fanout solver — stop allocating. The
// copy is sorted ascending and walked backwards, visiting coordinates in
// descending order.
func ProjectSimplexInto(v []float64, radius float64, scratch []float64) []float64 {
	n := len(v)
	if n == 0 {
		return scratch
	}
	if radius <= 0 {
		for i := range v {
			v[i] = 0
		}
		return scratch
	}
	if cap(scratch) >= n {
		scratch = scratch[:n]
	} else {
		scratch = make([]float64, n)
	}
	u := scratch
	copy(u, v)
	sort.Float64s(u)
	var cssv float64
	rho := -1
	var theta float64
	for i := 0; i < n; i++ {
		ui := u[n-1-i]
		cssv += ui
		t := (cssv - radius) / float64(i+1)
		if ui-t > 0 {
			rho = i
			theta = t
		}
	}
	if rho < 0 {
		// All mass concentrates on the largest coordinate.
		theta = u[n-1] - radius
	}
	for i := range v {
		x := v[i] - theta
		if x < 0 {
			x = 0
		}
		v[i] = x
	}
	return scratch
}
