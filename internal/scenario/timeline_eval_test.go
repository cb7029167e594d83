package scenario

import (
	"context"
	"fmt"

	"repro/internal/collector"
	"repro/internal/runner"
	"repro/internal/stream"
	"repro/internal/timeline"
)

// This file holds EvaluateTimeline, the lockstep harness that scores a
// streaming engine's tracking lag over a compiled timeline. Only tests
// run it (TestEvaluateTimeline* in timeline_test.go), so it is test
// code; a change to the engine can be checked against its scores.

// TimelineConfig tunes EvaluateTimeline.
type TimelineConfig struct {
	// Methods are the re-solve estimators to track. Default: entropy and
	// vardi (one regularized single-snapshot method, one second-moment
	// time-series method).
	Methods []stream.Method
	// Window and ResolveEvery configure each method's engine. Defaults: a
	// 6-interval sliding window (stream.Config's), re-solving every
	// interval — the finest tracking granularity, which is what lag is
	// measured against.
	Window       int
	ResolveEvery int
	// ResolveMaxIter/ResolveTol/Reg/SigmaInv2 budget the solves
	// (stream.Config semantics and defaults).
	ResolveMaxIter int
	ResolveTol     float64
	Reg            float64
	SigmaInv2      float64
	// ToleranceFactor sets each event's recovery tolerance to factor ×
	// the pre-event baseline error (default 1.5); Tolerance > 0 overrides
	// with an absolute relative-L1 bound.
	ToleranceFactor float64
	Tolerance       float64
	// BaselineWindow is how many observed pre-event intervals the
	// baseline error averages over (default 6).
	BaselineWindow int
}

func (c TimelineConfig) withDefaults() TimelineConfig {
	if len(c.Methods) == 0 {
		c.Methods = []stream.Method{stream.MethodEntropy, stream.MethodVardi}
	}
	if c.ResolveEvery == 0 {
		c.ResolveEvery = 1
	}
	if c.ResolveMaxIter <= 0 {
		c.ResolveMaxIter = 4000
	}
	if c.ToleranceFactor <= 0 {
		c.ToleranceFactor = 1.5
	}
	if c.BaselineWindow <= 0 {
		c.BaselineWindow = 6
	}
	return c
}

// TimelineRecovery scores one scripted event for one method: how long
// the method's tracking error stayed outside tolerance after the event
// hit.
type TimelineRecovery struct {
	// Event is a human-readable label ("fail_link R3-R7"); Kind and At
	// are the script event's kind and anchor.
	Event string `json:"event"`
	Kind  string `json:"kind"`
	At    int    `json:"at"`
	// EffectiveAt is when recovery starts being measured — the event
	// anchor, except outages, which are measured from the window's end
	// (nothing is observable inside the hole).
	EffectiveAt int `json:"effective_at"`
	// Baseline is the mean relative-L1 error over the observed pre-event
	// intervals (-1 when the event is at the very start and there are
	// none); Tolerance is the re-entry bound derived from it.
	Baseline  float64 `json:"baseline_rel_l1"`
	Tolerance float64 `json:"tolerance_rel_l1"`
	// RecoveredAt is the first interval at or after EffectiveAt whose
	// error is back within Tolerance (-1: never during the timeline);
	// LagWindows is RecoveredAt − EffectiveAt.
	RecoveredAt int  `json:"recovered_at"`
	LagWindows  int  `json:"lag_windows"`
	Recovered   bool `json:"recovered"`
}

// TimelineScore is one method's tracking record over a timeline.
type TimelineScore struct {
	Method string `json:"method"`
	// Errors is the per-interval relative L1 error of the method's
	// published estimate against the scripted truth, indexed by timeline
	// interval; -1 marks intervals with no observation (outage holes and
	// intervals consumed in a close-out batch below the newest).
	Errors []float64 `json:"rel_l1"`
	// Resolves counts completed full re-solves; WarmResolves how many of
	// them were warm-started; Iterations their total solver iterations.
	Resolves     int `json:"resolves"`
	WarmResolves int `json:"warm_resolves"`
	Iterations   int `json:"iterations"`
	// FinalEpoch is the topology epoch the engine ended on.
	FinalEpoch int                `json:"final_epoch"`
	Recoveries []TimelineRecovery `json:"recoveries"`
}

// EvaluateTimeline replays a compiled timeline through one streaming
// engine per method — routing hot-swaps armed, outage holes skipped —
// and scores per-method tracking lag: the per-interval error of the
// published estimate against the scripted truth, and for every
// discrete event the number of windows until the error re-entered
// tolerance. Methods fan out on the pool; each method's replay is
// driven in deterministic lockstep (ingest, wait for the publication,
// execute the parked re-solve synchronously), so results are
// byte-identical regardless of pool parallelism.
func EvaluateTimeline(ctx context.Context, pool *runner.Pool, tl *timeline.Timeline, cfg TimelineConfig) ([]TimelineScore, error) {
	cfg = cfg.withDefaults()
	jobs := make([]runner.Job[TimelineScore], 0, len(cfg.Methods))
	for _, m := range cfg.Methods {
		m := m
		jobs = append(jobs, runner.Job[TimelineScore]{
			ID: "timeline/" + string(m),
			Run: func(ctx context.Context) (TimelineScore, error) {
				return trackTimeline(ctx, tl, m, cfg)
			},
		})
	}
	rs, err := runner.Run(ctx, pool, jobs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]TimelineScore, len(rs))
	for i, r := range rs {
		out[i] = r.Value
	}
	return out, nil
}

// trackTimeline drives one method's engine through the timeline in
// lockstep. The driver mirrors the engine's close-out rule to know
// exactly how many intervals each ingested step consumes and whether a
// re-solve was parked, waits for precisely those publications, and runs
// every parked re-solve on this goroutine — no
// scheduling race, hence deterministic output.
func trackTimeline(ctx context.Context, tl *timeline.Timeline, m stream.Method, cfg TimelineConfig) (TimelineScore, error) {
	score := TimelineScore{Method: string(m), Errors: make([]float64, len(tl.Steps))}
	for i := range score.Errors {
		score.Errors[i] = -1
	}
	parks := make(chan struct{}, len(tl.Steps)+1)
	eng, err := stream.New(tl.Epochs[0].Rt, stream.Config{
		Window:          cfg.Window,
		ResolveEvery:    cfg.ResolveEvery,
		Method:          m,
		Reg:             cfg.Reg,
		SigmaInv2:       cfg.SigmaInv2,
		ResolveMaxIter:  cfg.ResolveMaxIter,
		ResolveTol:      cfg.ResolveTol,
		ResolveDispatch: func() { parks <- struct{}{} },
	})
	if err != nil {
		return score, err
	}
	if err := tl.RegisterSwaps(eng); err != nil {
		return score, err
	}
	store := collector.NewStore(tl.Base.Net.NumPairs())
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.Run(runCtx, store) }()

	var version uint64
	cursor, since := 0, 0
	for _, st := range tl.Steps {
		if err := ctx.Err(); err != nil {
			return score, err
		}
		if st.Missing {
			continue // an outage: nothing reaches the store
		}
		for p, mbps := range st.Demand {
			store.Ingest(collector.RateRecord{LSP: p, Interval: st.Interval, RateMbps: mbps, Poller: "timeline-eval"})
		}
		consumed, parked := 0, 0
		for cursor <= st.Interval {
			if !tl.Steps[cursor].Missing {
				consumed++
				if cfg.ResolveEvery > 0 {
					if since++; since >= cfg.ResolveEvery {
						parked++
						since = 0
					}
				}
				cursor++
			} else if st.Interval > cursor+1 {
				cursor++ // hole closed out: skipped without a publication
			} else {
				break // hole still open: everything behind it waits
			}
		}
		if consumed == 0 {
			continue
		}
		version += uint64(consumed)
		snap, err := eng.WaitVersion(ctx, version)
		if err != nil {
			return score, err
		}
		if parked > 0 {
			// Every park pings ResolveDispatch; draining them all
			// guarantees the latest-wins slot holds the newest window
			// before this goroutine claims it.
			for i := 0; i < parked; i++ {
				select {
				case <-parks:
				case err := <-done:
					return score, fmt.Errorf("scenario: timeline engine stopped early: %v", err)
				case <-ctx.Done():
					return score, ctx.Err()
				}
			}
			if !eng.TryResolve(ctx) {
				return score, fmt.Errorf("scenario: timeline re-solve vanished")
			}
			version++
			if snap, err = eng.WaitVersion(ctx, version); err != nil {
				return score, err
			}
			score.Resolves++
			if snap.ResolveWarm {
				score.WarmResolves++
			}
			score.Iterations += snap.ResolveIterations
		}
		est := snap.Resolve
		if est == nil {
			est = snap.Gravity
		}
		score.Errors[snap.Interval] = RelL1(est, tl.Steps[snap.Interval].Demand)
		score.FinalEpoch = snap.TopologyEpoch
	}
	cancel()
	<-done
	score.Recoveries = recoveriesFor(tl, score.Errors, cfg)
	return score, nil
}

// recoveriesFor derives the per-event recovery records from one
// method's observed error series. Diurnal cycles are continuous bends,
// not step changes, so they carry no recovery record.
func recoveriesFor(tl *timeline.Timeline, errs []float64, cfg TimelineConfig) []TimelineRecovery {
	var out []TimelineRecovery
	for _, ev := range tl.Script.Events {
		if ev.Kind == "diurnal" {
			continue
		}
		effect := ev.At
		label := ev.Kind
		switch ev.Kind {
		case "fail_link", "restore":
			label = ev.Kind + " " + ev.Link
		case "flash_crowd":
			label = fmt.Sprintf("flash_crowd %s-%s x%g", ev.FlashCrowd.Src, ev.FlashCrowd.Dst, ev.FlashCrowd.Factor)
		case "outage":
			effect = ev.Outage.Until
			label = fmt.Sprintf("outage [%d,%d)", ev.At, ev.Outage.Until)
		}
		r := TimelineRecovery{
			Event: label, Kind: ev.Kind, At: ev.At, EffectiveAt: effect,
			Baseline: -1, RecoveredAt: -1, LagWindows: -1,
		}
		sum, n := 0.0, 0
		for t := ev.At - 1; t >= 0 && n < cfg.BaselineWindow; t-- {
			if errs[t] >= 0 {
				sum += errs[t]
				n++
			}
		}
		tol := cfg.Tolerance
		if n > 0 {
			r.Baseline = sum / float64(n)
			if tol <= 0 {
				tol = r.Baseline * cfg.ToleranceFactor
			}
		}
		r.Tolerance = tol
		for t := effect; t < len(errs); t++ {
			if errs[t] < 0 {
				continue
			}
			// With no baseline and no absolute tolerance, the first
			// observation counts as recovered — there is nothing to
			// compare against.
			if tol <= 0 || errs[t] <= tol {
				r.RecoveredAt = t
				r.LagWindows = t - effect
				r.Recovered = true
				break
			}
		}
		out = append(out, r)
	}
	return out
}
