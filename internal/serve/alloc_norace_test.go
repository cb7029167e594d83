//go:build !race

package serve

import "testing"

// The race detector inflates the byte counts testing.Benchmark reports,
// so the allocation budget below is measured in non-race builds only.

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
