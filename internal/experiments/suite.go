// Package experiments contains one driver per table and figure of the
// paper's evaluation section (§5). Each driver runs the corresponding
// experiment on the synthetic Global Crossing stand-in scenarios and
// renders the same rows/series the paper reports, so the shape of every
// result (who wins, by what factor, where the crossovers fall) can be
// compared directly against the original.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/runner"
)

// BusyWindowSamples is the paper's busy-period length: 250 minutes = 50
// five-minute samples (§5.3.4).
const BusyWindowSamples = 50

// Report is a rendered experiment result.
type Report struct {
	ID    string
	Title string
	Lines []string
}

// Render writes the report as text.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s: %s ===\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, l := range r.Lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func (r *Report) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Suite holds the two evaluation scenarios and their busy-window snapshots,
// shared across all experiment drivers. After NewSuiteWithPool returns, the Suite
// is read-only: drivers never mutate it, which is what makes it safe to
// run many drivers concurrently against the same Suite.
type Suite struct {
	EU, US *netsim.Scenario

	// Seed is the scenario seed the suite was built with; drivers that
	// construct additional scenarios (the scenario lab) reuse it so one
	// seed determines the whole evaluation universe.
	Seed int64

	// Busy-window snapshot per region.
	TruthEU, TruthUS   linalg.Vector
	InstEU, InstUS     *core.Instance
	ThreshEU, ThreshUS float64
	StartEU, StartUS   int

	// pool bounds the concurrency of the whole evaluation: RunAll
	// schedules drivers on it and the sweep loops inside drivers borrow
	// its free slots for their inner fan-out.
	pool *runner.Pool
}

// NewSuiteWithPool builds both scenarios with the given seed and runs all
// parallel work on the given pool. NewSuiteWithPool(seed, runner.NewPool(1))
// reproduces the fully serial evaluation.
func NewSuiteWithPool(seed int64, pool *runner.Pool) (*Suite, error) {
	eu, err := netsim.BuildEurope(seed)
	if err != nil {
		return nil, err
	}
	us, err := netsim.BuildAmerica(seed)
	if err != nil {
		return nil, err
	}
	if pool == nil {
		pool = runner.NewPool(0)
	}
	s := &Suite{EU: eu, US: us, Seed: seed, pool: pool}
	if s.TruthEU, s.InstEU, s.ThreshEU, err = eu.Snapshot(BusyWindowSamples); err != nil {
		return nil, err
	}
	if s.TruthUS, s.InstUS, s.ThreshUS, err = us.Snapshot(BusyWindowSamples); err != nil {
		return nil, err
	}
	s.StartEU = eu.BusyWindow(BusyWindowSamples)
	s.StartUS = us.BusyWindow(BusyWindowSamples)
	return s, nil
}

// Pool returns the concurrency pool the suite schedules work on.
func (s *Suite) Pool() *runner.Pool { return s.pool }

// forEach fans an inner sweep loop out over the suite's pool. The body
// must write its result into an index-addressed slot so that report
// assembly stays deterministic regardless of execution order.
func (s *Suite) forEach(ctx context.Context, n int, fn func(i int) error) error {
	return s.pool.ForEach(ctx, n, fn)
}

// regions iterates over both subnetworks uniformly.
type region struct {
	name   string
	sc     *netsim.Scenario
	truth  linalg.Vector
	inst   *core.Instance
	thresh float64
	start  int
}

func (s *Suite) regions() []region {
	return []region{
		{"Europe", s.EU, s.TruthEU, s.InstEU, s.ThreshEU, s.StartEU},
		{"America", s.US, s.TruthUS, s.InstUS, s.ThreshUS, s.StartUS},
	}
}

// Driver is a runnable experiment. Run is a Suite method expression, so
// the receiver comes first and the context second. Cancellation is
// cooperative: RunAll stops scheduling drivers once the context is
// done, and the expensive drivers additionally check it between sweep
// iterations (via Suite.forEach) — but an individual solver call that
// is already running always finishes. Cheap drivers may ignore the
// context entirely.
type Driver struct {
	ID    string
	Title string
	Run   func(*Suite, context.Context) (*Report, error)
}

// RunResult is the outcome of one driver in a RunAll fan-out.
type RunResult = runner.Result[*Report]

// RunAll executes the drivers concurrently on the suite's pool and
// returns their results in input order. Drivers execute in any order,
// but emit (if non-nil) is called strictly in input order as soon as
// every earlier driver has finished, so rendered output is byte-for-byte
// identical between a 1-worker and an N-worker pool. Driver failures are
// reported per-result; only context cancellation (or an emit error)
// aborts the whole run.
func RunAll(ctx context.Context, s *Suite, drivers []Driver, emit func(RunResult) error) ([]RunResult, error) {
	jobs := make([]runner.Job[*Report], len(drivers))
	for i, d := range drivers {
		d := d
		jobs[i] = runner.Job[*Report]{
			ID:  d.ID,
			Run: func(ctx context.Context) (*Report, error) { return d.Run(s, ctx) },
		}
	}
	return runner.Run(ctx, s.pool, jobs, emit)
}

// Drivers returns every experiment in paper order.
func Drivers() []Driver {
	return []Driver{
		{"fig1", "Total network traffic over time", (*Suite).Fig01TotalTraffic},
		{"fig2", "Cumulative demand distributions", (*Suite).Fig02CumulativeDemand},
		{"fig3", "Spatial distribution of traffic", (*Suite).Fig03SpatialDistribution},
		{"fig4", "Largest demands over time", (*Suite).Fig04DemandTimeSeries},
		{"fig5", "Fanout stability", (*Suite).Fig05FanoutStability},
		{"fig6", "Mean-variance scaling law", (*Suite).Fig06MeanVariance},
		{"fig7", "Gravity model vs actual demands", (*Suite).Fig07GravityScatter},
		{"fig8", "Worst-case bounds on demands", (*Suite).Fig08WorstCaseBounds},
		{"fig9", "Priors from worst-case bounds", (*Suite).Fig09WCBPrior},
		{"fig10", "Fanout estimation vs window length (scatter)", (*Suite).Fig10FanoutWindows},
		{"fig11", "Fanout MRE vs window length", (*Suite).Fig11FanoutMRE},
		{"table1", "Vardi MRE for sigma^-2 in {0.01, 1}, K=50", (*Suite).Table1Vardi},
		{"fig12", "Vardi MRE vs window size on synthetic Poisson", (*Suite).Fig12VardiSynthetic},
		{"fig13", "Bayesian/Entropy MRE vs regularization", (*Suite).Fig13RegularizationSweep},
		{"fig14", "Regularized estimates vs actual (America)", (*Suite).Fig14RegularizedScatter},
		{"fig15", "Gravity vs WCB prior under regularization", (*Suite).Fig15PriorComparison},
		{"fig16", "Entropy MRE vs directly measured demands", (*Suite).Fig16DirectMeasurement},
		{"table2", "Best-MRE summary of all methods", (*Suite).Table2Summary},
	}
}

// DriverByID returns the driver with the given ID, searching the paper
// experiments, the extensions and the scenario-lab drivers.
func DriverByID(id string) (Driver, bool) {
	for _, d := range Registry() {
		if d.ID == id {
			return d, true
		}
	}
	return Driver{}, false
}

// sparkline renders a numeric series as a compact unicode bar chart,
// normalized to its own maximum.
func sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	mx := xs[0]
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	if mx <= 0 {
		return strings.Repeat("▁", len(xs))
	}
	var b strings.Builder
	for _, x := range xs {
		i := int(x / mx * float64(len(ramp)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(ramp) {
			i = len(ramp) - 1
		}
		b.WriteRune(ramp[i])
	}
	return b.String()
}

// downsample reduces xs to n points by averaging buckets.
func downsample(xs []float64, n int) []float64 {
	if n <= 0 || len(xs) <= n {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i * len(xs) / n
		hi := (i + 1) * len(xs) / n
		var s float64
		for _, x := range xs[lo:hi] {
			s += x
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}

// topIndices returns the indices of the k largest values of v, descending.
func topIndices(v linalg.Vector, k int) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
