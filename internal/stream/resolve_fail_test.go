package stream

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/netsim"
)

// TestFailedResolveKeepsPreviousEstimate: when a window's link loads
// overflow to +Inf the estimator refuses it, and the engine must report
// the failure through Config.OnResolve without publishing anything from
// it — the previous re-solve stays in the snapshot, NaN-free, and the
// warm-start iterates are the ones that previous solve ended on. This is
// the fanout hazard in particular: a NaN alpha carried into the next warm
// start would poison every later solve.
func TestFailedResolveKeepsPreviousEstimate(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	p := sc.Net.NumPairs()
	for _, m := range []Method{MethodEntropy, MethodBayesian, MethodVardi, MethodFanout} {
		t.Run(string(m), func(t *testing.T) {
			var errs []error
			eng, err := New(sc.Rt, Config{
				Method:         m,
				Window:         2,
				ResolveEvery:   1,
				ResolveMaxIter: 200,
				OnResolve: func(d time.Duration, iters int, warm bool, err error) {
					errs = append(errs, err)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for k := 0; k < 2; k++ {
				eng.consume(k, sc.Series.Demands[k].Clone(), p)
			}
			if !eng.TryResolve(ctx) || len(errs) != 1 || errs[0] != nil {
				t.Fatalf("clean window: hook saw %v, want one nil error", errs)
			}
			good, _ := eng.Latest()
			if good.Resolve == nil || good.ResolveInterval != 1 {
				t.Fatalf("clean window not published (interval %d)", good.ResolveInterval)
			}
			warmEst, warmAlpha := eng.takeWarm()

			// Every demand at 1e308: each link load is a sum of several
			// of them and overflows to +Inf. consume skips such an
			// interval, so the overflowing window is parked directly —
			// the estimator must refuse it on its own.
			huge := linalg.NewVector(p)
			huge.Fill(1e308)
			w := resolveWork{rt: sc.Rt, interval: 2, mean: huge,
				loads: []linalg.Vector{eng.ring[len(eng.ring)-1].loads, sc.Rt.LinkLoads(huge)}}
			if mx, _ := w.loads[len(w.loads)-1].Max(); !math.IsInf(mx, 1) {
				t.Fatalf("window loads peak at %v, want +Inf", mx)
			}
			eng.pending.Store(&w)
			if !eng.TryResolve(ctx) {
				t.Fatal("overflowing window was not parked")
			}
			if len(errs) != 2 || errs[1] == nil {
				t.Fatalf("hook saw %v, want the overflowing window's error", errs)
			}
			snap, _ := eng.Latest()
			if snap.ResolveInterval != 1 || snap.ResolveIterations != good.ResolveIterations {
				t.Fatalf("failed re-solve replaced the published one (interval %d)", snap.ResolveInterval)
			}
			for i, v := range snap.Resolve {
				if math.Float64bits(v) != math.Float64bits(good.Resolve[i]) {
					t.Fatalf("published estimate[%d] changed to %v after a failed re-solve", i, v)
				}
			}
			est, alpha := eng.takeWarm()
			if &est[0] != &warmEst[0] || (warmAlpha != nil && &alpha[0] != &warmAlpha[0]) {
				t.Fatal("failed re-solve replaced the warm-start iterates")
			}
		})
	}
}
