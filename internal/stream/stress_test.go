package stream

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/netsim"
)

// TestConcurrentReadersUnderRapidPublish is the -race stress test of the
// snapshot API: while a replay publishes as fast as the engine can
// consume (with re-solves and adaptive cadence enabled), goroutines
// hammer Latest, WaitVersion, Metrics and Checkpoint — and scribble over
// every vector they get back, so any internal aliasing either trips the
// race detector or corrupts a later reader's view (which the monotonic
// version check would catch).
func TestConcurrentReadersUnderRapidPublish(t *testing.T) {
	concurrentReaderStress(t, Config{
		Window:          3,
		ResolveEvery:    2,
		DriftThreshold:  0.05,
		ResolveMaxEvery: 8,
		ResolveMaxIter:  300, // keep re-solves cheap; this test is about locking, not convergence
	})
}

// TestConcurrentReadersFanoutPooledBuffers is the same stress against
// the constant-fanout method: the re-solve path then exercises both
// warm-start slots (takeWarm/setWarm hand the previous estimate AND the
// fanout iterate across solves), the pooled engine workspaces, and
// collector.Take's ownership transfer — so any published vector that
// aliases a recycled buffer is scribbled on by the readers and trips the
// race detector.
func TestConcurrentReadersFanoutPooledBuffers(t *testing.T) {
	concurrentReaderStress(t, Config{
		Window:         3,
		Method:         MethodFanout,
		ResolveEvery:   2,
		ResolveMaxIter: 300,
	})
}

func concurrentReaderStress(t *testing.T, cfg Config) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	engineDone := host(t, ctx, eng, store)

	const cycles = 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	scribble := func(vs ...[]float64) {
		for _, v := range vs {
			for i := range v {
				v[i] = -1
			}
		}
	}
	fail := make(chan string, 16)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, ok := eng.Latest()
				if ok {
					if snap.Version < lastVersion {
						select {
						case fail <- "version ran backwards":
						default:
						}
						return
					}
					lastVersion = snap.Version
					scribble(snap.Gravity, snap.Mean, snap.Fanouts, snap.Resolve)
				}
				eng.Metrics()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); ; v++ {
			wctx, wcancel := context.WithTimeout(ctx, time.Second)
			snap, err := eng.WaitVersion(wctx, v)
			wcancel()
			if err == nil {
				scribble(snap.Gravity, snap.Mean, snap.Fanouts, snap.Resolve)
				v = snap.Version
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cp := eng.Checkpoint()
			scribble(cp.PrevMean)
			if cp.Snapshot != nil {
				scribble(cp.Snapshot.Gravity, cp.Snapshot.Mean, cp.Snapshot.Fanouts, cp.Snapshot.Resolve)
			}
			for _, e := range cp.Ring {
				scribble(e.Demand)
			}
		}
	}()

	if err := collector.Replay(ctx, store, sc.Series, cycles, 0); err != nil {
		t.Fatal(err)
	}
	// Wait until every interval has been published, under the readers'
	// fire.
	for v := uint64(1); ; {
		snap, err := eng.WaitVersion(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Interval >= cycles-1 {
			break
		}
		v = snap.Version + 1
	}
	close(stop)
	wg.Wait()
	cancel()
	<-engineDone
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// The stream itself must have stayed intact: one metric point per
	// publication, versions contiguous from 1.
	points := eng.Metrics()
	if len(points) == 0 {
		t.Fatal("no metric points after stress run")
	}
	for i, p := range points {
		if p.Version != uint64(i+1) {
			t.Fatalf("metric point %d has version %d — publications lost or duplicated under contention", i, p.Version)
		}
	}
}
