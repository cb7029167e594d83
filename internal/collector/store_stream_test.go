package collector

import "testing"

// The streaming-consumer surface of the store: O(1) latest-interval
// tracking, readiness wake-ups, and pruning of consumed intervals.

func TestLatestIntervalTracksIngest(t *testing.T) {
	s := NewStore(4)
	if got := s.LatestInterval(); got != -1 {
		t.Fatalf("empty store LatestInterval = %d, want -1", got)
	}
	s.Ingest(RateRecord{LSP: 0, Interval: 3, RateMbps: 1})
	s.Ingest(RateRecord{LSP: 1, Interval: 1, RateMbps: 1})
	if got := s.LatestInterval(); got != 3 {
		t.Fatalf("LatestInterval = %d, want 3", got)
	}
}

func TestPruneDiscardsAndRefusesLateRecords(t *testing.T) {
	s := NewStore(2)
	for iv := 0; iv < 4; iv++ {
		s.Ingest(RateRecord{LSP: 0, Interval: iv, RateMbps: float64(iv)})
	}
	s.Prune(2)
	if _, _, ok := s.Matrix(1); ok {
		t.Fatal("interval 1 still present after Prune(2)")
	}
	if _, _, ok := s.Matrix(2); !ok {
		t.Fatal("interval 2 missing after Prune(2)")
	}
	// A straggling upload for a pruned interval must not resurrect it.
	s.Ingest(RateRecord{LSP: 1, Interval: 0, RateMbps: 9})
	if _, _, ok := s.Matrix(0); ok {
		t.Fatal("late record resurrected pruned interval 0")
	}
	if got := s.LatestInterval(); got != 3 {
		t.Fatalf("LatestInterval = %d after prune, want 3", got)
	}
	if got := len(s.Intervals()); got != 2 {
		t.Fatalf("%d intervals after prune, want 2", got)
	}
}

// pending drains the subscription and reports whether a wake-up was
// waiting.
func pending(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestSubscribeWakesOnReadinessEdges: a full 100-PoP interval (9900
// records) wakes a subscriber at most twice — once for the new latest
// interval, once for complete coverage — however the records arrive.
func TestSubscribeWakesOnReadinessEdges(t *testing.T) {
	const pairs = 9900
	s := NewStore(pairs)
	ch, cancel := s.Subscribe()
	defer cancel()
	wakes := 0
	for lsp := 0; lsp < pairs; lsp++ {
		s.Ingest(RateRecord{LSP: lsp, Interval: 0, RateMbps: 1})
		if pending(ch) {
			wakes++
		}
	}
	if wakes > 2 {
		t.Fatalf("one %d-record interval woke the subscriber %d times, want at most 2", pairs, wakes)
	}
}

// TestSubscribeIgnoresDuplicatesAndPartials: a re-upload of a reported
// LSP and a partial record for an interval below the latest change no
// consumer's readiness, so they wake nobody.
func TestSubscribeIgnoresDuplicatesAndPartials(t *testing.T) {
	s := NewStore(3)
	ch, cancel := s.Subscribe()
	defer cancel()
	s.Ingest(RateRecord{LSP: 0, Interval: 1, RateMbps: 1})
	pending(ch) // the new latest interval's wake-up
	for _, rec := range []RateRecord{
		{LSP: 0, Interval: 1, RateMbps: 2}, // duplicate, interval incomplete
		{LSP: 0, Interval: 0, RateMbps: 1}, // partial, below the latest
		{LSP: 1, Interval: 0, RateMbps: 1},
	} {
		s.Ingest(rec)
		if pending(ch) {
			t.Fatalf("record %+v woke the subscriber", rec)
		}
	}
	// A duplicate for an interval that is already complete wakes nobody
	// either: only the record completing it does.
	s.Ingest(RateRecord{LSP: 2, Interval: 0, RateMbps: 1})
	if !pending(ch) {
		t.Fatal("the record completing interval 0 left no wake-up")
	}
	s.Ingest(RateRecord{LSP: 2, Interval: 0, RateMbps: 5})
	if pending(ch) {
		t.Fatal("a duplicate for a complete interval woke the subscriber")
	}
}

// TestSubscribeCompletionLeavesWakeupPending: the record that completes
// an interval leaves a wake-up pending even when the subscriber has not
// drained an earlier one (the two coalesce) and when it has (a fresh one
// is queued), so a consumer never sleeps through a ready interval.
func TestSubscribeCompletionLeavesWakeupPending(t *testing.T) {
	for _, drain := range []bool{false, true} {
		s := NewStore(4)
		ch, cancel := s.Subscribe()
		for lsp := 0; lsp < 3; lsp++ {
			s.Ingest(RateRecord{LSP: lsp, Interval: 0, RateMbps: 1})
		}
		if drain {
			pending(ch)
		}
		s.Ingest(RateRecord{LSP: 3, Interval: 0, RateMbps: 1})
		if !pending(ch) {
			t.Fatalf("drained=%v: the completing record left no wake-up", drain)
		}
		cancel()
		if _, ok := <-ch; ok {
			t.Fatal("channel still open after cancel")
		}
		// Ingest after cancel must not panic or block.
		s.Ingest(RateRecord{LSP: 0, Interval: 1, RateMbps: 1})
	}
}
