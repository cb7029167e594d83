package serve

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/stream"
)

// encodePair builds the serve-coord snapshot shape: a gravity-only
// 100-PoP tenant (9900 pairs, no resolve) publishing version 2 after
// version 1, with `moved` pairs changed in gravity, mean and fanouts
// (moved < 0 moves every pair, as every interval close does).
func encodePair(moved int) (prev, next stream.Snapshot) {
	return publicationPair(100*99, moved, false)
}

// publicationPair builds version 2 after version 1 over `pairs` pairs,
// with `moved` pairs changed in gravity, mean and fanouts (moved < 0
// moves every pair). withResolve adds a re-solve both versions carry
// unchanged, as a tenant publishes between its re-solves.
func publicationPair(pairs, moved int, withResolve bool) (prev, next stream.Snapshot) {
	rng := rand.New(rand.NewSource(1))
	vec := func() linalg.Vector {
		v := linalg.NewVector(pairs)
		for i := range v {
			v[i] = rng.ExpFloat64() * 100
		}
		return v
	}
	prev = demandSnapshot(1, vec(), nil)
	prev.Mean, prev.Fanouts = vec(), vec()
	next = demandSnapshot(2, prev.Gravity.Clone(), nil)
	next.Mean, next.Fanouts = prev.Mean.Clone(), prev.Fanouts.Clone()
	if moved < 0 || moved > pairs {
		moved = pairs
	}
	for _, v := range []linalg.Vector{next.Gravity, next.Mean, next.Fanouts} {
		for i := 0; i < moved; i++ {
			v[i] *= 1 + 0.01*rng.NormFloat64()
		}
	}
	if withResolve {
		prev.Resolve = vec()
		next.Resolve = prev.Resolve.Clone()
	}
	return prev, next
}

// BenchmarkHubEncode times the hub's per-publication encode (NewEntry)
// on a 9900-pair snapshot: moved=all is the interval close on a
// gravity-only tenant, whose delta cannot win; moved=1 keeps its delta.
// pairs=europe is an interval close on a Europe tenant between
// re-solves (132 pairs, every pair moved, resolve carried), where the
// frame weighs far more than on 9900 pairs. Run with -benchmem.
func BenchmarkHubEncode(b *testing.B) {
	for _, c := range []struct {
		name  string
		moved int
	}{{"moved=all", -1}, {"moved=1", 1}} {
		b.Run(c.name, newEntryLoop(encodePair(c.moved)))
	}
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pairs=europe", newEntryLoop(publicationPair(sc.Net.NumPairs(), -1, true)))
}

// newEntryLoop is the benchmark body: NewEntry for next over prev.
func newEntryLoop(prev, next stream.Snapshot) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewEntry(next, &prev, DefaultDeltaRatio); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestDeltaSizeBound pins the encoder's delta size bound on the two
// encode shapes: it must stay under the real delta's size and, where
// every pair moved, pass the ratio limit so NewEntry skips the delta.
// How the coordinates are cut into pieces must not change it.
func TestDeltaSizeBound(t *testing.T) {
	for _, moved := range []int{-1, 1, 0} {
		prev, next := encodePair(moved)
		body, bound, err := encodeSnapshot(&next, &prev, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 3, 8} {
			if _, b, err := encodeSnapshot(&next, &prev, procs); err != nil || b != bound {
				t.Fatalf("moved=%d: %d pieces bound %d B (%v), one piece %d B", moved, procs, b, err, bound)
			}
		}
		delta, err := json.Marshal(ComputeDelta(prev, next))
		if err != nil {
			t.Fatal(err)
		}
		if bound > len(delta) {
			t.Fatalf("moved=%d: bound %d B exceeds the %d B delta", moved, bound, len(delta))
		}
		limit := deltaLimit(len(body), DefaultDeltaRatio)
		if moved < 0 && float64(bound) <= limit {
			t.Fatalf("moved=all: bound %d B does not pass the %.0f B limit", bound, limit)
		}
		if moved < 0 && len(delta)-bound > 1024 {
			t.Errorf("moved=all: bound %d B is %d B short of the delta", bound, len(delta)-bound)
		}
	}
}
