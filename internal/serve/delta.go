// Package serve is the million-client read path over the streaming
// estimation engines: every publication of a stream.Engine is encoded
// exactly once (JSON, plus gzip on demand) into an immutable cache
// entry that all clients share, consecutive publications are delta
// encoded as sparse changed-coordinate patches (backbone demand drifts
// slowly between publications — the same property the engines' warm
// starts exploit — so the wire format exploits it too), and a per-
// tenant broadcast Hub multiplexes every long-poll waiter and SSE
// subscriber off one WaitVersion loop instead of one goroutine and one
// deep copy per client. On top of the hub, Server cuts the versioned
// /v1 HTTP API: ETag conditional gets, full-vs-delta content
// negotiation, SSE event streams and a uniform error envelope.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
	"repro/internal/stream"
)

// DeltaFormat is the version tag every encoded delta carries. Apply
// rejects unknown formats instead of guessing.
const DeltaFormat = 1

// VecPatch is a sparse edit of one snapshot vector: resize to Len
// (new coordinates start at zero, a nil source vector counts as all
// zeros), then set V[k] at index I[k] for every k. A nil *VecPatch in
// a Delta means the vector is carried over from the base unchanged.
type VecPatch struct {
	Len int       `json:"len"`
	I   []int     `json:"i,omitempty"`
	V   []float64 `json:"v,omitempty"`
}

// DeltaScalars carries every non-vector Snapshot field wholesale —
// they are a few dozen bytes against kilobytes of matrix, so sparse
// encoding them would complicate the apply rule for nothing.
type DeltaScalars struct {
	Interval          int           `json:"interval"`
	Window            int           `json:"window"`
	Covered           int           `json:"covered"`
	Skipped           int           `json:"skipped"`
	Drift             float64       `json:"drift"`
	TopologyEpoch     int           `json:"topology_epoch"`
	AnomalyActive     bool          `json:"anomaly_active,omitempty"`
	Anomalies         int           `json:"anomalies,omitempty"`
	GravityMRE        float64       `json:"gravity_mre"`
	ResolveMethod     stream.Method `json:"resolve_method,omitempty"`
	ResolveMRE        float64       `json:"resolve_mre"`
	ResolveInterval   int           `json:"resolve_interval"`
	ResolveDuration   int64         `json:"resolve_duration_ns"`
	ResolveIterations int           `json:"resolve_iterations"`
	ResolveWarm       bool          `json:"resolve_warm"`
	TimeRFC3339       string        `json:"time"`
}

// Delta is one snapshot-to-snapshot patch. The apply rule (see Apply):
// starting from the snapshot whose Version == From, replace every
// scalar field with Set, apply each vector patch (resize to Len, then
// sparse writes), set Resolve to nil when ResolveNil, and stamp the
// result Version = To. Applying a delta to the snapshot it was computed
// from reproduces the target snapshot byte-exactly under json.Marshal.
type Delta struct {
	Format int    `json:"format"`
	From   uint64 `json:"from"`
	To     uint64 `json:"to"`

	Set DeltaScalars `json:"set"`

	Gravity *VecPatch `json:"gravity,omitempty"`
	Mean    *VecPatch `json:"mean,omitempty"`
	Fanouts *VecPatch `json:"fanouts,omitempty"`
	Resolve *VecPatch `json:"resolve,omitempty"`
	// ResolveNil records a Resolve that went away (non-nil to nil).
	// Today's engines never unpublish a re-solve, but the format must
	// not silently mis-apply if one ever does.
	ResolveNil bool `json:"resolve_nil,omitempty"`
}

// carried reports whether coordinate i of next must be carried by a
// patch over prev: its bits differ from prev's (0 past prev's end).
// Bits, not ==, so that 0 → -0 is carried and a patched vector
// marshals to the same bytes as next.
func carried(prev, next linalg.Vector, i int) bool {
	var base float64
	if i < len(prev) {
		base = prev[i]
	}
	return math.Float64bits(next[i]) != math.Float64bits(base)
}

// diffVec computes the sparse patch turning prev into next, nil when
// they are identical (same length, same values).
func diffVec(prev, next linalg.Vector) *VecPatch {
	if len(prev) == len(next) {
		same := true
		for i := range next {
			if carried(prev, next, i) {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	p := &VecPatch{Len: len(next)}
	for i := range next {
		if carried(prev, next, i) {
			p.I = append(p.I, i)
			p.V = append(p.V, next[i])
		}
	}
	return p
}

// MaxPatchLen caps the vector length a delta may resize to, so a
// hostile or corrupt delta cannot make Apply allocate without bound. It
// is four times the pair count of the largest scenario backbone (500
// PoPs, 249,500 pairs).
const MaxPatchLen = 1 << 20

// applyVec executes one patch on a (possibly nil) base vector,
// returning a fresh vector — the base is never mutated.
func applyVec(base linalg.Vector, p *VecPatch) (linalg.Vector, error) {
	if p == nil {
		if base == nil {
			return nil, nil
		}
		return base.Clone(), nil
	}
	if p.Len < 0 || p.Len > MaxPatchLen {
		return nil, fmt.Errorf("serve: vector patch length %d outside [0,%d]", p.Len, MaxPatchLen)
	}
	if len(p.I) != len(p.V) {
		return nil, fmt.Errorf("serve: vector patch has %d indices but %d values", len(p.I), len(p.V))
	}
	out := linalg.NewVector(p.Len)
	copy(out, base) // copy stops at min(len(base), p.Len)
	for k, i := range p.I {
		if i < 0 || i >= p.Len {
			return nil, fmt.Errorf("serve: vector patch index %d out of range [0,%d)", i, p.Len)
		}
		out[i] = p.V[k]
	}
	return out, nil
}

// ComputeDelta builds the patch turning prev into next. It never fails:
// any pair of snapshots (including dimension changes across a topology
// swap and Resolve nil transitions) has a delta, though a large one may
// not be worth the wire (see EncodeDelta's ratio fallback).
func ComputeDelta(prev, next stream.Snapshot) *Delta {
	d := &Delta{
		Format: DeltaFormat,
		From:   prev.Version,
		To:     next.Version,
		Set: DeltaScalars{
			Interval:          next.Interval,
			Window:            next.Window,
			Covered:           next.Covered,
			Skipped:           next.Skipped,
			Drift:             next.Drift,
			TopologyEpoch:     next.TopologyEpoch,
			AnomalyActive:     next.AnomalyActive,
			Anomalies:         next.Anomalies,
			GravityMRE:        next.GravityMRE,
			ResolveMethod:     next.ResolveMethod,
			ResolveMRE:        next.ResolveMRE,
			ResolveInterval:   next.ResolveInterval,
			ResolveDuration:   int64(next.ResolveDuration),
			ResolveIterations: next.ResolveIterations,
			ResolveWarm:       next.ResolveWarm,
			TimeRFC3339:       next.Time.Format(timeLayout),
		},
		Gravity: diffVec(prev.Gravity, next.Gravity),
		Mean:    diffVec(prev.Mean, next.Mean),
		Fanouts: diffVec(prev.Fanouts, next.Fanouts),
	}
	switch {
	case next.Resolve == nil && prev.Resolve != nil:
		d.ResolveNil = true
	case next.Resolve != nil:
		d.Resolve = diffVec(prev.Resolve, next.Resolve)
	}
	return d
}

// timeLayout round-trips time.Time exactly as encoding/json does (the
// RFC3339Nano layout time.Time.MarshalJSON emits), so an applied
// snapshot marshals byte-identically to the original.
const timeLayout = time.RFC3339Nano

// parseSnapshotTime parses the delta's publication timestamp; the
// parsed value marshals back to the same RFC3339Nano string.
func parseSnapshotTime(s string) (time.Time, error) {
	t, err := time.Parse(timeLayout, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("serve: delta time %q: %w", s, err)
	}
	return t, nil
}

// Apply executes a delta on its base snapshot, returning the target.
// The base must be the snapshot the delta was computed from (checked by
// Version); vectors are never shared with the base, so the result is
// safe to retain and mutate.
func Apply(base stream.Snapshot, d *Delta) (stream.Snapshot, error) {
	if d.Format != DeltaFormat {
		return stream.Snapshot{}, fmt.Errorf("serve: delta format %d, this build applies %d", d.Format, DeltaFormat)
	}
	if base.Version != d.From {
		return stream.Snapshot{}, fmt.Errorf("serve: delta is from version %d, base is %d", d.From, base.Version)
	}
	t, err := parseSnapshotTime(d.Set.TimeRFC3339)
	if err != nil {
		return stream.Snapshot{}, err
	}
	out := stream.Snapshot{
		Version:           d.To,
		Interval:          d.Set.Interval,
		Window:            d.Set.Window,
		Covered:           d.Set.Covered,
		Skipped:           d.Set.Skipped,
		Drift:             d.Set.Drift,
		TopologyEpoch:     d.Set.TopologyEpoch,
		AnomalyActive:     d.Set.AnomalyActive,
		Anomalies:         d.Set.Anomalies,
		GravityMRE:        d.Set.GravityMRE,
		ResolveMethod:     d.Set.ResolveMethod,
		ResolveMRE:        d.Set.ResolveMRE,
		ResolveInterval:   d.Set.ResolveInterval,
		ResolveIterations: d.Set.ResolveIterations,
		ResolveWarm:       d.Set.ResolveWarm,
		Time:              t,
		ResolveDuration:   time.Duration(d.Set.ResolveDuration),
	}
	if out.Gravity, err = applyVec(base.Gravity, d.Gravity); err != nil {
		return stream.Snapshot{}, fmt.Errorf("serve: gravity: %w", err)
	}
	if out.Mean, err = applyVec(base.Mean, d.Mean); err != nil {
		return stream.Snapshot{}, fmt.Errorf("serve: mean: %w", err)
	}
	if out.Fanouts, err = applyVec(base.Fanouts, d.Fanouts); err != nil {
		return stream.Snapshot{}, fmt.Errorf("serve: fanouts: %w", err)
	}
	if !d.ResolveNil {
		if out.Resolve, err = applyVec(base.Resolve, d.Resolve); err != nil {
			return stream.Snapshot{}, fmt.Errorf("serve: resolve: %w", err)
		}
	}
	return out, nil
}

// EncodeDelta computes and encodes the prev→next patch, returning nil
// when the encoded delta is no win: larger than ratio × the full
// encoding (fullSize), e.g. after a re-solve landed (every coordinate
// moved) or a topology swap resized the vectors. Callers then fall back
// to the full snapshot, which is the correct wire choice exactly then.
func EncodeDelta(prev, next stream.Snapshot, fullSize int, ratio float64) []byte {
	data, err := json.Marshal(ComputeDelta(prev, next))
	if err != nil {
		return nil // a snapshot that fails to marshal never got here
	}
	if float64(len(data)) > deltaLimit(fullSize, ratio) {
		return nil
	}
	return data
}

// deltaLimit is the largest encoded delta worth sending against a full
// encoding of fullSize bytes (ratio <= 0 selects DefaultDeltaRatio).
func deltaLimit(fullSize int, ratio float64) float64 {
	if ratio <= 0 {
		ratio = DefaultDeltaRatio
	}
	return ratio * float64(fullSize)
}

// digits counts the decimal digits of a non-negative index.
func digits(i int) int {
	d := 1
	for ; i >= 10; i /= 10 {
		d++
	}
	return d
}

// DecodeDelta parses one encoded delta.
func DecodeDelta(data []byte) (*Delta, error) {
	var d Delta
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("serve: decode delta: %w", err)
	}
	return &d, nil
}

// DefaultDeltaRatio is the size ratio past which a delta is dropped in
// favor of the full snapshot.
const DefaultDeltaRatio = 0.5
