package stream

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/linalg"
)

// CheckpointFormat is the version tag written into every checkpoint
// file. Load rejects unknown versions instead of guessing, so a format
// change can never silently corrupt a restored engine. Format 2 added
// TopologyEpoch for routing hot-swaps (SwapRouting); format-1 files are
// still accepted and read as epoch 0, which is what every pre-swap
// engine was.
const CheckpointFormat = 2

// checkpointEntry is one sliding-window interval in a checkpoint. Only
// the collected demand vector is stored: link loads are recomputed from
// it on restore, so a checkpoint can never smuggle in loads inconsistent
// with the routing matrix.
type checkpointEntry struct {
	Interval int           `json:"interval"`
	Demand   linalg.Vector `json:"demand"`
}

// Checkpoint is a serializable image of an Engine's state: the window
// ring, the consumption cursor, the adaptive-cadence and warm-start
// state, the latest published snapshot and the metric history. Captured
// with Engine.Checkpoint, persisted with SaveCheckpoint, and applied to
// a fresh engine (same scenario, same method) with Engine.Restore — the
// crash-safe persistence behind `tmserve -checkpoint-dir`.
type Checkpoint struct {
	Format int `json:"format"`
	// NumPairs and NumLinks pin the problem dimensions, so restoring
	// against a different scenario fails with a clear error instead of a
	// slice panic deep in a solver.
	NumPairs int    `json:"num_pairs"`
	NumLinks int    `json:"num_links"`
	Method   Method `json:"method"`
	// TopologyEpoch is the active topology epoch at capture time. Restore
	// demands the engine already be on the same epoch (hosts replay their
	// SwapRouting calls first), because the ring's demand vectors must be
	// re-expanded against the routing they will actually stream under.
	TopologyEpoch int `json:"topology_epoch,omitempty"`

	// Consumption state: the window ring and the next-interval cursor.
	Ring    []checkpointEntry `json:"ring"`
	Next    int               `json:"next"`
	Skipped int               `json:"skipped"`

	// Adaptive-cadence state.
	SinceResolve int           `json:"since_resolve"`
	CurEvery     int           `json:"cur_every"`
	DriftPeak    float64       `json:"drift_peak"`
	PrevMean     linalg.Vector `json:"prev_mean,omitempty"`

	// Warm-start state. WarmAlpha is MethodFanout's solved fanout
	// iterate; the estimate warm start is re-seeded from
	// Snapshot.Resolve on restore.
	WarmAlpha linalg.Vector `json:"warm_alpha,omitempty"`

	// Snapshot is the latest published state (nil before the first
	// publication); Metrics is the error history backing /metrics.
	Snapshot *Snapshot     `json:"snapshot,omitempty"`
	Metrics  []MetricPoint `json:"metrics,omitempty"`
}

// Checkpoint captures the engine's current state. Safe to call from any
// goroutine while the engine runs; the consumption state and the
// snapshot are each captured atomically (a publication may land between
// the two captures, which a Restore tolerates — the engine re-consumes
// at most one already-published interval).
func (e *Engine) Checkpoint() Checkpoint {
	cp := Checkpoint{
		Format: CheckpointFormat,
		Method: e.cfg.Method,
	}

	e.stateMu.Lock()
	cp.NumPairs = e.rt.Net.NumPairs()
	cp.NumLinks = e.rt.R.Rows()
	cp.TopologyEpoch = e.epoch
	cp.Ring = make([]checkpointEntry, len(e.ring))
	for i, w := range e.ring {
		cp.Ring[i] = checkpointEntry{Interval: w.interval, Demand: w.demand.Clone()}
	}
	cp.Next = e.next
	cp.Skipped = e.skipped
	cp.SinceResolve = e.sinceResolve
	cp.CurEvery = e.curEvery
	cp.DriftPeak = e.driftPeak
	cp.PrevMean = cloneVec(e.prevMean)
	cp.WarmAlpha = cloneVec(e.warmAlpha)
	e.stateMu.Unlock()

	e.mu.RLock()
	if e.have {
		snap := e.snap.cloneForRead()
		cp.Snapshot = &snap
	}
	cp.Metrics = make([]MetricPoint, len(e.metrics))
	copy(cp.Metrics, e.metrics)
	e.mu.RUnlock()
	return cp
}

// Restore applies a checkpoint to a freshly created engine, before Run:
// the window ring (with loads recomputed against this engine's
// routing), the consumption cursor, the cadence and warm-start state,
// and the latest snapshot — which Latest/WaitVersion serve immediately,
// so a restarted daemon is never dark while the collector refills. The checkpoint must match the engine's problem dimensions
// and re-solve method.
//
// Cursor semantics across restarts: interval indices are the stream's
// identity, so records below the restored cursor are treated as
// re-deliveries of data the window already contains and are not
// consumed again — that is what makes a restart idempotent instead of
// double-counting. A restarted deterministic source that renumbers from
// interval 0 (collector.Replay, the simulated live deployment) is
// therefore deduplicated until it catches back up to the cursor and
// resumes the stream from there; an endless tenant (cycles -1)
// reaches that point after cursor×pace of replayed time. A source that
// numbers intervals by wall clock continues seamlessly.
func (e *Engine) Restore(cp Checkpoint) error {
	if e.started.Load() {
		return fmt.Errorf("stream: Restore after Run")
	}
	if cp.Format != 1 && cp.Format != CheckpointFormat {
		return fmt.Errorf("stream: checkpoint format %d, this build reads %d", cp.Format, CheckpointFormat)
	}
	e.stateMu.Lock()
	rt, epoch := e.rt, e.epoch
	e.stateMu.Unlock()
	if cp.TopologyEpoch != epoch {
		return fmt.Errorf("stream: checkpoint is on topology epoch %d, engine on %d (SwapRouting to the checkpointed epoch before Restore)",
			cp.TopologyEpoch, epoch)
	}
	if cp.NumPairs != rt.Net.NumPairs() || cp.NumLinks != rt.R.Rows() {
		return fmt.Errorf("stream: checkpoint is for a %d-pair/%d-link scenario, engine has %d/%d",
			cp.NumPairs, cp.NumLinks, rt.Net.NumPairs(), rt.R.Rows())
	}
	if cp.Method != e.cfg.Method {
		return fmt.Errorf("stream: checkpoint method %q, engine configured for %q (delete the checkpoint to switch)",
			cp.Method, e.cfg.Method)
	}

	ring := cp.Ring
	// A restart may shrink the window; keep the newest entries.
	if len(ring) > e.cfg.Window {
		ring = ring[len(ring)-e.cfg.Window:]
	}
	entries := make([]windowEntry, len(ring))
	next := cp.Next
	for i, ce := range ring {
		if len(ce.Demand) != rt.Net.NumPairs() {
			return fmt.Errorf("stream: checkpoint ring entry %d has %d demands, want %d",
				i, len(ce.Demand), rt.Net.NumPairs())
		}
		if i > 0 && ce.Interval <= entries[i-1].interval {
			return fmt.Errorf("stream: checkpoint ring intervals not increasing at entry %d", i)
		}
		demand := ce.Demand.Clone()
		loads := rt.LinkLoads(demand)
		if !inRange(demand) || !inRange(loads) { // consume's gate
			return fmt.Errorf("stream: checkpoint ring entry %d has a negative or non-finite demand, or link loads past %g Mbps", i, maxLoad)
		}
		entries[i] = windowEntry{interval: ce.Interval, demand: demand, loads: loads}
		if ce.Interval >= next {
			next = ce.Interval + 1 // cursor can never trail the ring
		}
	}
	if cp.PrevMean != nil && len(cp.PrevMean) != rt.Net.NumPairs() {
		return fmt.Errorf("stream: checkpoint prev-mean has %d demands, want %d",
			len(cp.PrevMean), rt.Net.NumPairs())
	}
	if !inRange(cp.PrevMean) {
		return fmt.Errorf("stream: checkpoint prev-mean has a demand outside [0, %g] Mbps", maxLoad)
	}

	e.stateMu.Lock()
	e.ring = entries
	e.next = next
	e.skipped = cp.Skipped
	e.sinceResolve = cp.SinceResolve
	e.curEvery = cp.CurEvery
	if e.cfg.ResolveMaxEvery > e.cfg.ResolveEvery && e.cfg.DriftThreshold > 0 {
		// Back-off still enabled: keep the checkpointed cadence, clamped
		// into the new config's range.
		if e.curEvery > e.cfg.ResolveMaxEvery {
			e.curEvery = e.cfg.ResolveMaxEvery
		}
		if e.curEvery < e.cfg.ResolveEvery {
			e.curEvery = e.cfg.ResolveEvery
		}
	} else {
		// The restart disabled the adaptive back-off (or never had it):
		// a backed-off cadence from the old config must not survive,
		// or a fixed-cadence daemon would re-solve far less often than
		// its ResolveEvery asks.
		e.curEvery = e.cfg.ResolveEvery
	}
	e.driftPeak = cp.DriftPeak
	e.prevMean = cloneVec(cp.PrevMean)
	if cp.Snapshot != nil {
		// The anomaly flag and episode count ride the checkpointed
		// snapshot; the baseline ring re-seeds from live drifts (it
		// only judges once full, so the restart is a quiet ramp-up,
		// not a false positive).
		e.anomActive = cp.Snapshot.AnomalyActive
		e.anomCount = cp.Snapshot.Anomalies
	}
	if cp.Snapshot != nil && cp.Snapshot.Resolve != nil &&
		cp.Method != MethodFanout && len(cp.Snapshot.Resolve) == rt.Net.NumPairs() {
		e.warmEst = cp.Snapshot.Resolve.Clone()
	}
	if len(cp.WarmAlpha) == rt.Net.NumPairs() {
		e.warmAlpha = cp.WarmAlpha.Clone()
	}
	e.stateMu.Unlock()

	e.mu.Lock()
	if cp.Snapshot != nil {
		e.snap = cp.Snapshot.cloneForRead()
		e.have = true
	}
	e.metrics = append([]MetricPoint(nil), cp.Metrics...)
	if len(e.metrics) > metricsHistory {
		e.metrics = e.metrics[len(e.metrics)-metricsHistory:]
	}
	e.mu.Unlock()
	return nil
}

// SaveCheckpoint atomically persists a checkpoint: the JSON is written
// to a temporary file in the target directory, synced, and renamed over
// the destination, so a crash mid-write leaves the previous checkpoint
// intact rather than a truncated one.
func SaveCheckpoint(path string, cp Checkpoint) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("stream: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("stream: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("stream: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("stream: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("stream: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("stream: install checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. The
// caller distinguishes a missing file (fresh start) from a corrupt one
// with errors.Is(err, os.ErrNotExist).
func LoadCheckpoint(path string) (Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return Checkpoint{}, fmt.Errorf("stream: parse checkpoint %s: %w", path, err)
	}
	return cp, nil
}
