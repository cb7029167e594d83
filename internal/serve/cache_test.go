package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stream"
)

// encodePair builds the serve-coord snapshot shape: a gravity-only
// 100-PoP tenant (9900 pairs, no resolve) publishing version 2 after
// version 1, with `moved` pairs changed in gravity, mean and fanouts
// (moved < 0 moves every pair, as every interval close does).
func encodePair(moved int) (prev, next stream.Snapshot) {
	const pairs = 100 * 99
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
	return prev, next
}

// BenchmarkHubEncode times the hub's per-publication encode (NewEntry)
// on a 9900-pair snapshot: moved=all is the interval close on a
// gravity-only tenant, whose delta cannot win; moved=1 keeps its delta.
// Run with -benchmem.
func BenchmarkHubEncode(b *testing.B) {
	for _, c := range []struct {
		name  string
		moved int
	}{{"moved=all", -1}, {"moved=1", 1}} {
		b.Run(c.name, newEntryLoop(encodePair(c.moved)))
	}
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

// TestNewEntryAllocations guards the skip: an all-pairs-moved
// publication must cost little more than its body. Building and then
// dropping the delta allocated about 7.5× the body per call.
func TestNewEntryAllocations(t *testing.T) {
	prev, next := encodePair(-1)
	e, err := NewEntry(next, &prev, DefaultDeltaRatio)
	if err != nil {
		t.Fatal(err)
	}
	if e.Delta != nil {
		t.Fatal("an all-pairs-moved publication kept its delta")
	}
	r := testing.Benchmark(newEntryLoop(prev, next))
	if got, max := r.AllocedBytesPerOp(), int64(4*len(e.JSON)); got > max {
		t.Fatalf("NewEntry allocated %d B/op on a %d B body, want at most %d", got, len(e.JSON), max)
	}
}

// TestDeltaSizeBound pins the bound on the two encode shapes: it must
// stay under the real delta's size and, where every pair moved, pass
// the ratio limit so NewEntry skips the delta.
func TestDeltaSizeBound(t *testing.T) {
	for _, moved := range []int{-1, 1, 0} {
		prev, next := encodePair(moved)
		body, err := json.Marshal(next)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := json.Marshal(ComputeDelta(prev, next))
		if err != nil {
			t.Fatal(err)
		}
		bound := deltaSizeBound(body, prev, next, math.Inf(1))
		if bound > len(delta) {
			t.Fatalf("moved=%d: bound %d B exceeds the %d B delta", moved, bound, len(delta))
		}
		limit := deltaLimit(len(body), DefaultDeltaRatio)
		if moved < 0 && float64(deltaSizeBound(body, prev, next, limit)) <= limit {
			t.Fatalf("moved=all: bound %d B does not pass the %.0f B limit", bound, limit)
		}
		if moved < 0 && len(delta)-bound > 1024 {
			t.Errorf("moved=all: bound %d B is %d B short of the delta", bound, len(delta)-bound)
		}
	}
}
