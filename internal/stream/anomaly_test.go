package stream

import (
	"context"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/netsim"
)

// TestDriftAnomalyDetector replays a flat demand series with one
// 2-interval surge and checks the detector's full trajectory: quiet
// baseline, a rising edge on the surge (one episode), recovery inside
// the surge plateau (drift returns to zero), a second episode on the
// step back down, and a clean tail.
func TestDriftAnomalyDetector(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	P := sc.Net.NumPairs()
	eng, err := New(sc.Rt, Config{
		Window:          1,
		MinCoverage:     1,
		AnomalyFactor:   4,
		AnomalyWindow:   3,
		AnomalyMinDrift: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(P)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)

	scales := []float64{1, 1, 1, 1, 3, 3, 1, 1}
	for iv, scale := range scales {
		for p := 0; p < P; p++ {
			store.Ingest(collector.RateRecord{LSP: p, Interval: iv, RateMbps: sc.Series.Demands[0][p] * scale})
		}
	}
	if _, err := eng.WaitVersion(ctx, uint64(len(scales))); err != nil {
		t.Fatalf("WaitVersion: %v", err)
	}
	cancel()
	<-done

	want := []struct {
		active    bool
		anomalies int
	}{
		{false, 0}, {false, 0}, {false, 0}, {false, 0},
		{true, 1},  // step up: drift ~2 against a zero baseline
		{false, 1}, // surge plateau: interval-to-interval drift back to 0
		{true, 2},  // step down: a second episode
		{false, 2},
	}
	points := eng.Metrics()
	if len(points) != len(want) {
		t.Fatalf("got %d metric points, want %d", len(points), len(want))
	}
	for i, w := range want {
		p := points[i]
		if p.AnomalyActive != w.active || p.Anomalies != w.anomalies {
			t.Errorf("interval %d: active=%v anomalies=%d, want %v/%d (drift %v)",
				i, p.AnomalyActive, p.Anomalies, w.active, w.anomalies, p.Drift)
		}
	}
	if lm, ok := eng.LastMetric(); !ok || lm.Version != points[len(points)-1].Version {
		t.Errorf("LastMetric = %+v ok=%v, want newest point", lm, ok)
	}

	// The flag and episode count survive a checkpoint round trip.
	eng2, err := New(sc.Rt, Config{Window: 1, MinCoverage: 1, AnomalyFactor: 4, AnomalyWindow: 3, AnomalyMinDrift: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(eng.Checkpoint()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	snap, ok := eng2.Latest()
	if !ok || snap.Anomalies != 2 || snap.AnomalyActive {
		t.Fatalf("restored snapshot anomalies=%d active=%v ok=%v, want 2/false/true", snap.Anomalies, snap.AnomalyActive, ok)
	}
}

// TestAnomalyDisabledAndValidation: the detector is inert at factor 0,
// and negative knobs are rejected.
func TestAnomalyDisabledAndValidation(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, sc, eng, 4, 4)
	for _, p := range eng.Metrics() {
		if p.AnomalyActive || p.Anomalies != 0 {
			t.Fatalf("detector fired while disabled: %+v", p)
		}
	}
	for _, bad := range []Config{
		{AnomalyFactor: -1},
		{AnomalyWindow: -1},
		{AnomalyMinDrift: -0.1},
	} {
		if _, err := New(sc.Rt, bad); err == nil {
			t.Errorf("config %+v accepted, want error", bad)
		}
	}
}

// TestOnResolveHook: every completed re-solve reports through
// Config.OnResolve, warm flag included.
func TestOnResolveHook(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	type obsv struct {
		iters int
		warm  bool
	}
	ch := make(chan obsv, 64)
	eng, err := New(sc.Rt, Config{
		Window:       3,
		ResolveEvery: 2,
		OnResolve: func(d time.Duration, iters int, warm bool, err error) {
			if d < 0 || iters <= 0 || err != nil {
				t.Errorf("OnResolve(d=%v iters=%d err=%v)", d, iters, err)
			}
			ch <- obsv{iters, warm}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := host(t, ctx, eng, store)
	// Paced, so the host drains each parked re-solve before the next
	// interval lands (an instant replay collapses every schedule into
	// one latest-wins solve).
	if err := collector.Replay(ctx, store, sc.Series, 8, 25*time.Millisecond); err != nil {
		t.Fatalf("replay: %v", err)
	}
	var got []obsv
	for len(got) < 2 {
		select {
		case o := <-ch:
			got = append(got, o)
		case <-ctx.Done():
			t.Fatalf("OnResolve fired %d times before timeout, want >= 2", len(got))
		}
	}
	cancel()
	<-done
	if got[0].warm {
		t.Error("first resolve reported warm")
	}
	warmSeen := false
	for _, o := range got[1:] {
		warmSeen = warmSeen || o.warm
	}
	if !warmSeen {
		t.Error("no warm resolve reported")
	}
}
