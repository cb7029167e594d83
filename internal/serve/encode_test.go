package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/linalg"
	"repro/internal/stream"
)

// edgeFloats are the values whose encodings differ most between
// formatters: signed zeros, both sides of encoding/json's exponent-form
// thresholds (1e-6, 1e21), subnormals, integers past 2^53 and the
// extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999999999999e-7, 1e21, 9.99999999999999e20,
	5e-324, 2.225073858507201e-308, 1 << 53, 1<<53 + 2, 123456789012345678, 1e20,
	0.1, -12.5, math.MaxFloat64, -1e-300, 3.0000000000000004,
}

// edgeVec is an n-coordinate vector cycling through edgeFloats and
// plain values, offset so each vector of a snapshot differs.
func edgeVec(n, offset int) linalg.Vector {
	v := linalg.NewVector(n)
	for i := range v {
		if k := i + offset; k%3 == 0 {
			v[i] = edgeFloats[k/3%len(edgeFloats)]
		} else {
			v[i] = float64(k) * 1.37
		}
	}
	return v
}

// marshalOracle is the byte contract of Entry.JSON.
func marshalOracle(t *testing.T, snap stream.Snapshot) []byte {
	t.Helper()
	body, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// encodeProcs are the piece counts the encoder is driven with: inline,
// the machine's own, and more goroutines than this machine has cores.
func encodeProcs() []int { return []int{1, 2, 3, runtime.GOMAXPROCS(0), 8} }

// TestEncodeMatchesMarshal: at every piece count, the encoder's body is
// json.Marshal's plus a newline, for vector lengths on both sides of a
// piece boundary, every Resolve shape (nil, empty, set) and a nil
// Gravity.
func TestEncodeMatchesMarshal(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	for _, n := range []int{0, 1, pieceCoords - 1, pieceCoords, pieceCoords + 1, 3*pieceCoords + 7} {
		for _, shape := range []string{"resolve-nil", "resolve-empty", "resolve-set", "gravity-nil"} {
			snap := stream.Snapshot{
				Version: 9, Interval: 8, Window: 6, Covered: n, Skipped: 1, Drift: 0.125,
				TopologyEpoch: 2, Gravity: edgeVec(n, 0), Mean: edgeVec(n, 1), Fanouts: edgeVec(n, 2),
				GravityMRE: 0.5, ResolveMRE: 1e-7, ResolveInterval: 7, ResolveDuration: 1500 * time.Microsecond,
				ResolveIterations: 40, Time: time.Date(2026, 3, 1, 12, 0, 0, 123456789, time.UTC),
			}
			switch shape {
			case "resolve-empty":
				snap.Resolve = linalg.Vector{}
			case "resolve-set":
				snap.Resolve, snap.ResolveMethod, snap.ResolveWarm = edgeVec(n, 3), stream.MethodEntropy, true
			case "gravity-nil":
				snap.Gravity = nil
			}
			want := marshalOracle(t, snap)
			for _, procs := range encodeProcs() {
				got, _, err := encodeSnapshot(&snap, nil, procs)
				if err != nil {
					t.Fatalf("n=%d %s procs=%d: %v", n, shape, procs, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d %s procs=%d: body differs from json.Marshal\n got %.300s\nwant %.300s", n, shape, procs, got, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("n=%d %s procs=%d: body has cap %d for %d bytes", n, shape, procs, cap(got), len(got))
				}
			}
		}
	}
}

// TestEncodeScalarFields: the frame follows json.Marshal on the scalar
// fields too — omitempty on the anomaly fields, negative and extreme
// integers, escaped resolve_method strings (HTML characters, control
// bytes, invalid UTF-8, U+2028/U+2029) and a zoned, sub-second time.
func TestEncodeScalarFields(t *testing.T) {
	zone := time.FixedZone("x", -(3*3600 + 30*60))
	v := linalg.Vector{1, 2}
	for i, snap := range []stream.Snapshot{
		{Version: math.MaxUint64, Interval: -1, Window: math.MaxInt, Covered: math.MinInt, Skipped: -7},
		{AnomalyActive: true, Anomalies: 3, Gravity: v, Mean: v, Fanouts: v},
		{Anomalies: -2, ResolveMethod: "<a&b>", Resolve: v},
		{ResolveMethod: "q\"b\\s\n\r\t\b\f\x01\x1f\x7f"},
		{ResolveMethod: "bad\xffutf8\xe2\x82", Mean: linalg.Vector{}},
		{ResolveMethod: "sep\u2028para\u2029 \u00e9\u20ac\U0001d11e"},
		{ResolveMethod: stream.MethodVardi, Time: time.Date(1999, 12, 31, 23, 59, 59, 1, zone)},
		{ResolveDuration: -time.Nanosecond, Drift: 1e6, GravityMRE: math.Copysign(0, -1), Time: time.Unix(0, 0)},
	} {
		want := marshalOracle(t, snap)
		got, _, err := encodeSnapshot(&snap, nil, 2)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: body differs from json.Marshal\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestEncodeRefusesWhatMarshalRefuses: a non-finite value anywhere — a
// scalar, the first coordinate, the last coordinate of the last piece —
// or a time json.Marshal cannot write fails the encode.
func TestEncodeRefusesWhatMarshalRefuses(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n := 3*pieceCoords + 7
	base := func() stream.Snapshot {
		return stream.Snapshot{Gravity: edgeVec(n, 0), Mean: edgeVec(n, 1), Fanouts: edgeVec(n, 2), Resolve: edgeVec(n, 3)}
	}
	for name, mutate := range map[string]func(*stream.Snapshot){
		"drift NaN":          func(s *stream.Snapshot) { s.Drift = math.NaN() },
		"resolve_mre +Inf":   func(s *stream.Snapshot) { s.ResolveMRE = math.Inf(1) },
		"first coordinate":   func(s *stream.Snapshot) { s.Gravity[0] = math.NaN() },
		"last coordinate":    func(s *stream.Snapshot) { s.Resolve[n-1] = math.Inf(-1) },
		"piece boundary":     func(s *stream.Snapshot) { s.Mean[pieceCoords] = math.NaN() },
		"year past 9999":     func(s *stream.Snapshot) { s.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"gravity_mre -Inf":   func(s *stream.Snapshot) { s.GravityMRE = math.Inf(-1) },
		"fanouts last piece": func(s *stream.Snapshot) { s.Fanouts[n-2] = math.NaN() },
	} {
		snap := base()
		mutate(&snap)
		if _, err := json.Marshal(snap); err == nil {
			t.Fatalf("%s: the oracle accepts it", name)
		}
		for _, procs := range encodeProcs() {
			if body, _, err := encodeSnapshot(&snap, nil, procs); err == nil {
				t.Fatalf("%s procs=%d: encoded %d bytes", name, procs, len(body))
			}
		}
	}
}

// TestHubCountsEncodeFailureInLastPiece: Hub.Run refuses a publication
// whose only non-finite value is the last coordinate of its last piece,
// counts it once, and serves the next version.
func TestHubCountsEncodeFailureInLastPiece(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n := 3*pieceCoords + 7
	snap := func(version uint64) stream.Snapshot {
		s := demandSnapshot(version, edgeVec(n, int(version)), edgeVec(n, 5))
		s.Time = time.Unix(1700000000+int64(version), 0).UTC()
		return s
	}
	src := newFakeSource()
	h := NewHub(src, HubConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		h.Run(ctx)
		close(done)
	}()
	defer func() { cancel(); <-done }()
	src.Publish(snap(1))
	waitFor(t, "v1", func() bool { return h.Stats().Version == 1 })
	broken := snap(2)
	broken.Resolve[n-1] = math.NaN()
	src.Publish(broken)
	waitFor(t, "the encode failure", func() bool { return h.Stats().EncodeFailures > 0 })
	good := snap(3)
	src.Publish(good)
	waitFor(t, "v3", func() bool { return h.Stats().Version == 3 })
	if st := h.Stats(); st.EncodeFailures != 1 || st.Broadcasts != 2 {
		t.Fatalf("%d encode failures, %d broadcasts; want 1 and 2", st.EncodeFailures, st.Broadcasts)
	}
	if e := h.Cache().Latest(); !bytes.Equal(e.JSON, marshalOracle(t, good)) {
		t.Fatal("v3 body differs from json.Marshal")
	}
}

// TestEncodeConcurrent: hubs encode on their own goroutines, so
// encodes overlap and share the piece pool; each must still produce its
// own snapshot's bytes.
func TestEncodeConcurrent(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			n := 2*pieceCoords + 3*w
			snap := demandSnapshot(uint64(w+1), edgeVec(n, w), nil)
			want, err := json.Marshal(snap)
			if err != nil {
				errs <- err
				return
			}
			want = append(want, '\n')
			for i := 0; i < 5; i++ {
				e, err := NewEntry(snap, nil, 0)
				if err == nil && !bytes.Equal(e.JSON, want) {
					err = errors.New("concurrent encode differs from json.Marshal")
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotSchema sets every stream.Snapshot field to a distinct
// non-zero value by reflection, so a field added later is covered with
// no edit here: the body is json.Marshal's plus a newline at 1, 2 and 8
// pieces, and the delta from another such snapshot applies back to its
// exact bytes.
func TestSnapshotSchema(t *testing.T) {
	prev, next := schemaSnapshot(t, 1), schemaSnapshot(t, 2)
	want := marshalOracle(t, next)
	for _, procs := range []int{1, 2, 8} {
		got, _, err := encodeSnapshot(&next, &prev, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("procs=%d: body differs from json.Marshal\n got %.300s\nwant %.300s", procs, got, want)
		}
	}
	d, err := DecodeDelta(EncodeDelta(prev, next, math.MaxInt32, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply(prev, d)
	if err != nil {
		t.Fatal(err)
	}
	if gotB := marshalOracle(t, got); !bytes.Equal(gotB, want) {
		t.Fatalf("applied delta differs from the target\n got %.300s\nwant %.300s", gotB, want)
	}
}

// schemaSnapshot gives field k of stream.Snapshot a value made of seed
// and k, shared with no other field and no other seed. Vectors run
// past one encode piece, so that 2 and 8 procs cut them.
func schemaSnapshot(t *testing.T, seed int) stream.Snapshot {
	var s stream.Snapshot
	v := reflect.ValueOf(&s).Elem()
	for k := 0; k < v.NumField(); k++ {
		f, n := v.Field(k), 100*seed+k+1
		switch {
		case f.Type() == reflect.TypeOf(time.Time{}):
			f.Set(reflect.ValueOf(time.Date(2026, 1, 1, 0, 0, n, n, time.FixedZone("z", 3600*seed))))
		case f.Type() == reflect.TypeOf(linalg.Vector(nil)):
			vec := linalg.NewVector(pieceCoords + n)
			for i := range vec {
				vec[i] = float64(n) + 1.5*float64(i%(seed+2))
			}
			f.Set(reflect.ValueOf(vec))
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanInt():
			f.SetInt(int64(n))
		case f.CanUint():
			f.SetUint(uint64(n))
		case f.CanFloat():
			f.SetFloat(float64(n) + 0.25)
		case f.Kind() == reflect.String:
			f.SetString(fmt.Sprintf("m<%d>", n))
		default:
			t.Fatalf("field %s of type %s: give it a value here", v.Type().Field(k).Name, f.Type())
		}
	}
	return s
}
