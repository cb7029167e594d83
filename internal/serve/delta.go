// Package serve is the million-client read path over the streaming
// estimation engines: every publication of a stream.Engine is encoded
// exactly once (JSON, plus gzip on demand) into an immutable cache
// entry that all clients share, consecutive publications are delta
// encoded as sparse changed-coordinate patches (backbone demand drifts
// slowly between publications — the same property the engines' warm
// starts exploit — so the wire format exploits it too). encoding/json
// writes every byte but the snapshot's vector coordinates, so
// stream.Snapshot's tags are the only wire schema. A per-tenant
// broadcast Hub multiplexes every long-poll waiter and SSE subscriber
// off one WaitVersion loop instead of one goroutine and one deep copy
// per client. On top of the hub, Server cuts the versioned
// /v1 HTTP API: ETag conditional gets, full-vs-delta content
// negotiation, SSE event streams and a uniform error envelope.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
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

	// Set is the target snapshot's own JSON without "version" and its
	// vectors: every scalar field, with stream.Snapshot's tags as schema.
	Set json.RawMessage `json:"set"`

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

// ComputeDelta builds the patch turning prev into next: any pair of
// snapshots has one (a topology swap resizes, Resolve may turn nil),
// though a large one may not be worth the wire (see EncodeDelta). Set
// is nil when next does not marshal.
func ComputeDelta(prev, next stream.Snapshot) *Delta {
	d := &Delta{
		Format:  DeltaFormat,
		From:    prev.Version,
		To:      next.Version,
		Set:     marshalSet(next),
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

// setCuts turn a snapshot marshalled with version 0 and nil vectors
// into a delta's Set: To carries the version, the patches the vectors.
// Like the frame's keys, they cannot occur inside a JSON string.
var setCuts = [...]string{`"version":0,`, `"gravity":null,"mean":null,"fanouts":null,`}

// marshalSet is s's Set, or nil when s does not marshal or lacks a cut
// (a renamed or reordered field).
func marshalSet(s stream.Snapshot) json.RawMessage {
	s.Version, s.Gravity, s.Mean, s.Fanouts, s.Resolve = 0, nil, nil, nil, nil
	set, err := json.Marshal(&s)
	for _, cut := range setCuts {
		i := bytes.Index(set, []byte(cut))
		if err != nil || i < 0 {
			return nil
		}
		set = append(set[:i], set[i+len(cut):]...)
	}
	return set
}

// unsetTime marks a Set without a time: decoding a "time" replaces it,
// an absent or null one does not. (A snapshot may carry the zero time.)
var unsetTime = time.Date(1, 1, 1, 0, 0, 0, 0, time.FixedZone("unset", 0))

// Apply executes a delta on its base snapshot, returning the target.
// The base must be the snapshot the delta was computed from (checked by
// Version); vectors are never shared with the base, so the result is
// safe to retain and mutate. The version comes from To and the vectors
// from the patches alone; a Set absent, null, not an object or without
// a time is refused.
func Apply(base stream.Snapshot, d *Delta) (stream.Snapshot, error) {
	if d.Format != DeltaFormat {
		return stream.Snapshot{}, fmt.Errorf("serve: delta format %d, this build applies %d", d.Format, DeltaFormat)
	}
	if base.Version != d.From {
		return stream.Snapshot{}, fmt.Errorf("serve: delta is from version %d, base is %d", d.From, base.Version)
	}
	out := &stream.Snapshot{Time: unsetTime}
	err := json.Unmarshal(d.Set, &out)
	switch {
	case len(d.Set) == 0 || out == nil: // absent or null
		return stream.Snapshot{}, errors.New("serve: delta has no set")
	case err != nil:
		return stream.Snapshot{}, fmt.Errorf("serve: delta set: %w", err)
	case out.Time == unsetTime:
		return stream.Snapshot{}, errors.New("serve: delta set has no time")
	}
	out.Version, out.Resolve = d.To, nil
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
	return *out, nil
}

// EncodeDelta computes and encodes the prev→next patch, returning nil
// when the encoded delta is no win: larger than ratio × the full
// encoding (fullSize), e.g. after a re-solve landed (every coordinate
// moved) or a topology swap resized the vectors. Callers then fall back
// to the full snapshot, which is the correct wire choice exactly then.
func EncodeDelta(prev, next stream.Snapshot, fullSize int, ratio float64) []byte {
	d := ComputeDelta(prev, next)
	data, err := json.Marshal(d)
	if err != nil || d.Set == nil {
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
