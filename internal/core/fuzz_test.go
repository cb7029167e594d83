package core_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/topology"
)

var (
	fuzzOnce sync.Once
	fuzzRt   *topology.Routing
	fuzzErr  error
)

// fuzzRouting is the fixed small topology FuzzEstimate solves on: a 5-PoP
// scaled backbone (20 demands), routed once.
func fuzzRouting(t *testing.T) *topology.Routing {
	fuzzOnce.Do(func() {
		var net *topology.Network
		if net, fuzzErr = topology.Scaled(1, 5); fuzzErr == nil {
			fuzzRt, fuzzErr = net.Route()
		}
	})
	if fuzzErr != nil {
		t.Fatal(fuzzErr)
	}
	return fuzzRt
}

// FuzzEstimate feeds hostile inputs to all four estimator entry points: a
// consistent four-sample load series scaled by scale, with one link's load
// overwritten by load in every sample (NaN, ±Inf, huge, negative), a
// prior of P+priorDelta demands, and — when warm — a warm start of
// P+x0Delta entries. Every call must either return an error named after
// the package ("core: …") or a finite, non-negative estimate with one
// entry per demand; none may panic. The committed corpus
// (testdata/fuzz/FuzzEstimate) pins the inputs that once slipped through:
// fanout publishing NaN for a NaN, +Inf or 1e308 load, and Entropy and
// Bayesian panicking on a mis-sized prior or warm start.
func FuzzEstimate(f *testing.F) {
	f.Add(uint16(0), 1.0, 1.0, int16(0), int16(0), false)
	f.Add(uint16(3), 2.5, 1.0, int16(0), int16(0), true)
	f.Fuzz(func(t *testing.T, link uint16, load, scale float64, priorDelta, x0Delta int16, warm bool) {
		rt := fuzzRouting(t)
		l, p := rt.R.Rows(), rt.R.Cols()
		loads := make([]linalg.Vector, 4)
		for k := range loads {
			d := linalg.NewVector(p)
			for j := range d {
				d[j] = scale * float64(1+(j*7+k*3)%5)
			}
			loads[k] = rt.LinkLoads(d)
			loads[k][int(link)%l] = load
		}
		in, err := core.NewInstance(rt, loads[0])
		if err != nil {
			t.Fatal(err)
		}
		sized := func(n int, v float64) linalg.Vector {
			if n < 0 {
				n = 0
			}
			x := linalg.NewVector(n)
			x.Fill(v)
			return x
		}
		prior := sized(p+int(priorDelta), 1)
		opt := core.SolveOptions{MaxIter: 60}
		if warm {
			opt.X0 = sized(p+int(x0Delta), 0.25)
		}
		check := func(method string, est linalg.Vector, err error) {
			if err != nil {
				if !strings.HasPrefix(err.Error(), "core: ") {
					t.Fatalf("%s: unnamed error %q", method, err)
				}
				return
			}
			if len(est) != p {
				t.Fatalf("%s: estimate has %d entries, want %d", method, len(est), p)
			}
			if !est.AllFinite() {
				t.Fatalf("%s: non-finite estimate with nil error", method)
			}
			for j, v := range est {
				if v < 0 {
					t.Fatalf("%s: estimate[%d] = %v < 0", method, j, v)
				}
			}
		}
		x, _, err := core.Entropy(in, prior, 1000, opt)
		check("Entropy", x, err)
		x, _, err = core.Bayesian(in, prior, 1000, opt)
		check("Bayesian", x, err)
		x, _, err = core.Vardi(rt, loads, core.DefaultVardiConfig(), opt)
		check("Vardi", x, err)
		fe, err := core.EstimateFanouts(rt, loads, opt)
		if err != nil {
			check("EstimateFanouts", nil, err)
		} else {
			check("EstimateFanouts alpha", fe.Alpha, nil)
			check("EstimateFanouts demand", fe.MeanDemand, nil)
		}
	})
}
