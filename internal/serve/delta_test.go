package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/scenario"
	"repro/internal/stream"
)

// demandSnapshot builds a snapshot whose vectors come from a scenario's
// demand series — realistic slow-drift data for the round-trip property.
func demandSnapshot(version uint64, d linalg.Vector, resolve linalg.Vector) stream.Snapshot {
	fan := d.Clone()
	fan.Scale(0.5)
	return stream.Snapshot{
		Version:  version,
		Interval: int(version) - 1,
		Window:   6,
		Covered:  len(d),
		Skipped:  int(version) % 2,
		Drift:    0.01 * float64(version),
		Gravity:  d.Clone(),
		Mean:     d.Clone(),
		Fanouts:  fan,

		GravityMRE:        0.2 / float64(version),
		Resolve:           resolve,
		ResolveMethod:     stream.MethodEntropy,
		ResolveMRE:        0.1,
		ResolveInterval:   int(version) - 2,
		ResolveDuration:   1234567 * time.Duration(version),
		ResolveIterations: 42,
		ResolveWarm:       version > 1,
		Time:              time.Date(2026, 8, 8, 12, 0, int(version), 987654321, time.UTC),
	}
}

// TestDeltaRoundTripScenarioFamilies is the wire-format property test:
// for consecutive snapshots built from real scenario demand series —
// including topology churn (failure:*) and 100-PoP scale — the delta
// must survive a JSON round trip and apply back to the target snapshot
// byte-exactly under json.Marshal.
func TestDeltaRoundTripScenarioFamilies(t *testing.T) {
	specs := []string{"scaled:16", "noisy:europe:0.05", "failure:europe:worst", "ecmp:europe"}
	if !testing.Short() {
		specs = append(specs, "scaled:100", "failure:america:worst")
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			in, err := scenario.Build(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			demands := in.Sc.Series.Demands
			steps := 8
			if len(demands) < steps+1 {
				steps = len(demands) - 1
			}
			// Resolve toggles through nil→set→set→nil to cover every
			// transition the apply rule documents.
			resolveFor := func(k int, d linalg.Vector) linalg.Vector {
				if k%4 == 0 {
					return nil
				}
				return d.Clone()
			}
			prev := demandSnapshot(1, demands[0], resolveFor(0, demands[0]))
			for k := 1; k <= steps; k++ {
				next := demandSnapshot(uint64(k+1), demands[k], resolveFor(k, demands[k]))
				wire, err := json.Marshal(ComputeDelta(prev, next))
				if err != nil {
					t.Fatal(err)
				}
				d, err := DecodeDelta(wire)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Apply(prev, d)
				if err != nil {
					t.Fatalf("step %d: %v", k, err)
				}
				wantB, err := json.Marshal(next)
				if err != nil {
					t.Fatal(err)
				}
				gotB, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotB, wantB) {
					t.Fatalf("step %d: applied snapshot differs from the original\n got: %.200s\nwant: %.200s", k, gotB, wantB)
				}
				prev = next
			}
		})
	}
}

// TestDeltaDimensionChange covers a topology swap mid-stream: the
// vectors resize and the patch must rebuild them, still byte-exactly.
func TestDeltaDimensionChange(t *testing.T) {
	small := linalg.NewVector(4)
	for i := range small {
		small[i] = float64(i + 1)
	}
	big := linalg.NewVector(7)
	for i := range big {
		big[i] = float64(10 * (i + 1))
	}
	prev := demandSnapshot(3, small, small.Clone())
	next := demandSnapshot(4, big, nil) // also the resolve non-nil→nil leg
	d := ComputeDelta(prev, next)
	if !d.ResolveNil {
		t.Fatal("resolve removal not recorded")
	}
	got, err := Apply(prev, d)
	if err != nil {
		t.Fatal(err)
	}
	gotB, _ := json.Marshal(got)
	wantB, _ := json.Marshal(next)
	if !bytes.Equal(gotB, wantB) {
		t.Fatalf("resized apply differs:\n got %s\nwant %s", gotB, wantB)
	}
}

// TestApplyRejects pins the guardrails: wrong format, wrong base
// version, and corrupt patches must all fail loudly — with an error,
// never a panic or an unbounded allocation, since clients apply
// whatever bytes the server sends.
func TestApplyRejects(t *testing.T) {
	v := linalg.NewVector(3)
	prev := demandSnapshot(1, v, nil)
	next := demandSnapshot(2, v, nil)
	d := ComputeDelta(prev, next)

	bad := *d
	bad.Format = 99
	if _, err := Apply(prev, &bad); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := Apply(next, d); err == nil {
		t.Error("wrong base version accepted")
	}
	for _, c := range []struct {
		name string
		p    *VecPatch
		want string
	}{
		{"index past length", &VecPatch{Len: 2, I: []int{5}, V: []float64{1}}, "vector patch index 5 out of range [0,2)"},
		{"negative index", &VecPatch{Len: 2, I: []int{-3}, V: []float64{1}}, "vector patch index -3 out of range [0,2)"},
		{"values short", &VecPatch{Len: 2, I: []int{0, 1}, V: []float64{1}}, "vector patch has 2 indices but 1 values"},
		{"negative length", &VecPatch{Len: -1}, "vector patch length -1 outside [0,1048576]"},
		{"length past cap", &VecPatch{Len: MaxPatchLen + 1}, "vector patch length 1048577 outside [0,1048576]"},
	} {
		corrupt := *d
		corrupt.Gravity = c.p
		if _, err := Apply(prev, &corrupt); err == nil || err.Error() != "serve: gravity: serve: "+c.want {
			t.Errorf("%s: Apply error %v, want %q", c.name, err, c.want)
		}
	}
	// A set as the wire carries it: absent, null, not an object, or
	// without a time is refused with its cause named.
	for _, c := range []struct {
		name, set, want string
	}{
		{"set absent", ``, "serve: delta has no set"},
		{"set null", `,"set":null`, "serve: delta has no set"},
		{"set a number", `,"set":5`, "serve: delta set: json: cannot unmarshal number into Go value of type stream.Snapshot"},
		{"set an array", `,"set":[{"time":"2026-01-01T00:00:00Z"}]`, "serve: delta set: json: cannot unmarshal array"},
		{"set a string", `,"set":"x"`, "serve: delta set: json: cannot unmarshal string"},
		{"set without time", `,"set":{"interval":1}`, "serve: delta set has no time"},
		{"set with a null time", `,"set":{"time":null}`, "serve: delta set has no time"},
		{"set with a bad time", `,"set":{"time":"yesterday"}`, `serve: delta set: parsing time "yesterday"`},
	} {
		wire, err := DecodeDelta([]byte(`{"format":1,"from":1,"to":2` + c.set + `}`))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := Apply(prev, wire); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: Apply error %v, want %q", c.name, err, c.want)
		}
	}
	// A set carrying the version or a vector changes nothing: they come
	// from to and the patches alone, a nil Resolve included.
	next.Resolve = nil
	prev.Resolve = linalg.Vector{4}
	want, _ := json.Marshal(next)
	set := ComputeDelta(prev, next).Set
	for _, member := range []string{`"version":99`, `"gravity":[9,9,9,9]`, `"mean":null`, `"fanouts":[]`, `"resolve":[7]`, `"Resolve":[7],"VERSION":0`} {
		wire := ComputeDelta(prev, next)
		wire.Set = json.RawMessage(`{` + member + `,` + string(set[1:]))
		data, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecodeDelta(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Apply(prev, d)
		if err != nil {
			t.Fatalf("set with %s: %v", member, err)
		}
		if gotB, _ := json.Marshal(got); !bytes.Equal(gotB, want) {
			t.Errorf("set with %s changed the result:\n got %s\nwant %s", member, gotB, want)
		}
	}
}

// TestEncodeDeltaRatioFallback: a barely-changed snapshot encodes as a
// small delta, while one where every coordinate moved (a re-solve
// landing, a topology swap) must fall back to nil so callers serve the
// full body instead.
func TestEncodeDeltaRatioFallback(t *testing.T) {
	n := 200
	base := linalg.NewVector(n)
	for i := range base {
		base[i] = float64(i) + 0.25
	}
	prev := demandSnapshot(1, base, nil)

	drift := base.Clone()
	drift[17] += 1
	small := demandSnapshot(2, drift, nil)
	full, err := json.Marshal(small)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeDelta(prev, small, len(full), DefaultDeltaRatio)
	if data == nil {
		t.Fatal("one-coordinate drift did not produce a delta")
	}
	if len(data) > len(full)/2 {
		t.Fatalf("delta is %dB against a %dB snapshot — no win", len(data), len(full))
	}

	moved := base.Clone()
	for i := range moved {
		moved[i] *= 1.7
	}
	big := demandSnapshot(2, moved, nil)
	fullBig, _ := json.Marshal(big)
	if EncodeDelta(prev, big, len(fullBig), DefaultDeltaRatio) != nil {
		t.Fatal("every-coordinate change still emitted a delta; want full-snapshot fallback")
	}
}

// TestVecPatchNilAndIdentity: identical vectors diff to nil, and a nil
// patch applies as a clone that shares no backing array with the base.
func TestVecPatchNilAndIdentity(t *testing.T) {
	v := linalg.NewVector(5)
	for i := range v {
		v[i] = float64(i)
	}
	if diffVec(v, v.Clone()) != nil {
		t.Fatal("identical vectors produced a patch")
	}
	out, err := applyVec(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	out[0] = 99
	if v[0] == 99 {
		t.Fatal("nil-patch apply shares memory with the base")
	}
	if got, err := applyVec(nil, nil); err != nil || got != nil {
		t.Fatalf("nil base + nil patch gave (%v, %v), want (nil, nil)", got, err)
	}
}
