package serve

// The snapshot frame and delta scalars as they were written by hand,
// field by field, before encoding/json wrote them: kept as byte
// oracles, so that the bytes on the wire are proven unchanged.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/linalg"
	"repro/internal/stream"
)

// oracleFrame writes snap as json.Marshal does, except that a non-empty
// vector is written as "[]" and becomes a slot at the offset between
// its brackets. Field order, omitempty and null for a nil vector follow
// stream.Snapshot's tags. prev supplies the slots' delta bases.
func oracleFrame(b []byte, snap, prev *stream.Snapshot) ([]byte, []slot, error) {
	var base stream.Snapshot
	if prev != nil {
		base = *prev
	}
	var slots []slot
	vec := func(v, bv linalg.Vector) {
		if v == nil {
			b = append(b, "null"...)
			return
		}
		b = append(b, '[')
		if len(v) > 0 {
			slots = append(slots, slot{at: len(b), vec: v, base: bv})
		}
		b = append(b, ']')
	}
	var err error
	float := func(f float64) {
		if err == nil {
			b, err = appendFloat(b, f)
		}
	}
	b = append(b, `{"version":`...)
	b = strconv.AppendUint(b, snap.Version, 10)
	b = append(b, `,"interval":`...)
	b = strconv.AppendInt(b, int64(snap.Interval), 10)
	b = append(b, `,"window":`...)
	b = strconv.AppendInt(b, int64(snap.Window), 10)
	b = append(b, `,"covered":`...)
	b = strconv.AppendInt(b, int64(snap.Covered), 10)
	b = append(b, `,"skipped":`...)
	b = strconv.AppendInt(b, int64(snap.Skipped), 10)
	b = append(b, `,"drift":`...)
	float(snap.Drift)
	b = append(b, `,"topology_epoch":`...)
	b = strconv.AppendInt(b, int64(snap.TopologyEpoch), 10)
	if snap.AnomalyActive {
		b = append(b, `,"anomaly_active":true`...)
	}
	if snap.Anomalies != 0 {
		b = append(b, `,"anomalies":`...)
		b = strconv.AppendInt(b, int64(snap.Anomalies), 10)
	}
	b = append(b, `,"gravity":`...)
	vec(snap.Gravity, base.Gravity)
	b = append(b, `,"mean":`...)
	vec(snap.Mean, base.Mean)
	b = append(b, `,"fanouts":`...)
	vec(snap.Fanouts, base.Fanouts)
	b = append(b, `,"gravity_mre":`...)
	float(snap.GravityMRE)
	if len(snap.Resolve) > 0 {
		b = append(b, `,"resolve":`...)
		vec(snap.Resolve, base.Resolve)
	}
	if snap.ResolveMethod != "" {
		b = append(b, `,"resolve_method":`...)
		b = oracleString(b, string(snap.ResolveMethod))
	}
	b = append(b, `,"resolve_mre":`...)
	float(snap.ResolveMRE)
	b = append(b, `,"resolve_interval":`...)
	b = strconv.AppendInt(b, int64(snap.ResolveInterval), 10)
	b = append(b, `,"resolve_duration_ns":`...)
	b = strconv.AppendInt(b, int64(snap.ResolveDuration), 10)
	b = append(b, `,"resolve_iterations":`...)
	b = strconv.AppendInt(b, int64(snap.ResolveIterations), 10)
	b = append(b, `,"resolve_warm":`...)
	b = strconv.AppendBool(b, snap.ResolveWarm)
	b = append(b, `,"time":`...)
	if err != nil {
		return nil, nil, err
	}
	t, err := snap.Time.MarshalJSON()
	if err != nil {
		return nil, nil, err
	}
	b = append(append(b, t...), '}')
	return b, slots, nil
}

// oracleString quotes s as json.Marshal does: HTML-escaped (<, >, &),
// control bytes as \b \f \n \r \t or \u00XX, invalid UTF-8 as \ufffd,
// and U+2028/U+2029 escaped.
func oracleString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// oracleBody is the hand-written body: oracleFrame's bytes with the
// coordinates formatted serially into its slots, plus a newline.
func oracleBody(snap *stream.Snapshot) ([]byte, error) {
	frame, slots, err := oracleFrame(make([]byte, 0, 512), snap, nil)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range slots {
		total += len(s.vec)
	}
	body, _, err := appendCoords(nil, frame, slots, false, 0, total)
	if err != nil {
		return nil, err
	}
	tail := frame
	if len(slots) > 0 {
		tail = frame[slots[len(slots)-1].at:]
	}
	return append(append(body, tail...), '\n'), nil
}

// oracleScalars copied every non-vector Snapshot field by hand.
type oracleScalars struct {
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

// oracleDelta is Delta with its Set spelled out as oracleScalars.
type oracleDelta struct {
	Format     int           `json:"format"`
	From       uint64        `json:"from"`
	To         uint64        `json:"to"`
	Set        oracleScalars `json:"set"`
	Gravity    *VecPatch     `json:"gravity,omitempty"`
	Mean       *VecPatch     `json:"mean,omitempty"`
	Fanouts    *VecPatch     `json:"fanouts,omitempty"`
	Resolve    *VecPatch     `json:"resolve,omitempty"`
	ResolveNil bool          `json:"resolve_nil,omitempty"`
}

// oracleEncodeDelta is the hand-copied prev→next delta, marshalled.
func oracleEncodeDelta(prev, next stream.Snapshot) ([]byte, error) {
	d := &oracleDelta{
		Format: DeltaFormat,
		From:   prev.Version,
		To:     next.Version,
		Set: oracleScalars{
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
			TimeRFC3339:       next.Time.Format(time.RFC3339Nano),
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
	return json.Marshal(d)
}

// matchOracles checks next over prev against the oracles: NewEntry's
// body and kept delta, and EncodeDelta under no size limit. When the
// pair is in the format's scope, the delta must also apply back to
// next's bytes.
func matchOracles(t *testing.T, name string, prev, next stream.Snapshot, ratio float64) {
	t.Helper()
	want, wantErr := oracleBody(&next)
	e, err := NewEntry(next, &prev, ratio)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: NewEntry error %v, oracle error %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(e.JSON, want) {
		t.Fatalf("%s: body differs from the oracle\n got %.400s\nwant %.400s", name, e.JSON, want)
	}
	wantDelta, err := oracleEncodeDelta(prev, next)
	if err != nil {
		t.Fatalf("%s: the oracle delta does not marshal: %v", name, err)
	}
	got := EncodeDelta(prev, next, len(wantDelta), 1)
	if !bytes.Equal(got, wantDelta) {
		t.Fatalf("%s: delta differs from the oracle\n got %.400s\nwant %.400s", name, got, wantDelta)
	}
	kept := wantDelta
	if float64(len(kept)) > deltaLimit(len(want), ratio) {
		kept = nil
	}
	if !bytes.Equal(e.Delta, kept) {
		t.Fatalf("%s: entry delta differs from the oracle\n got %.400s\nwant %.400s", name, e.Delta, kept)
	}
	for _, v := range [][2]linalg.Vector{{prev.Gravity, next.Gravity}, {prev.Mean, next.Mean}, {prev.Fanouts, next.Fanouts}} {
		if (v[0] == nil) != (v[1] == nil) && len(v[1]) == 0 {
			return // a patch cannot turn a vector nil, or nil to empty
		}
	}
	if !utf8.ValidString(string(next.ResolveMethod)) {
		return // decoding any JSON string turns invalid UTF-8 into U+FFFD
	}
	d, err := DecodeDelta(got)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	applied, err := Apply(prev, d)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if gotB := marshalOracle(t, applied); !bytes.Equal(gotB, want) {
		t.Fatalf("%s: applied delta differs from the target\n got %.400s\nwant %.400s", name, gotB, want)
	}
}

// TestEncodeShapesMatchOracle: the encode tests' snapshot shapes encode
// and delta to the hand-written bytes.
func TestEncodeShapesMatchOracle(t *testing.T) {
	for _, moved := range []int{-1, 1, 0} {
		prev, next := encodePair(moved)
		matchOracles(t, "encodePair "+strconv.Itoa(moved), prev, next, DefaultDeltaRatio)
	}
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
		{Drift: math.NaN(), Time: time.Unix(1, 0)},
		{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		snap.Version++
		prev := demandSnapshot(snap.Version-1, linalg.Vector{3, 4, 5}, nil)
		matchOracles(t, "scalar case "+strconv.Itoa(i), prev, snap, DefaultDeltaRatio)
	}
	for _, n := range []int{0, 1, pieceCoords + 1} {
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
			prev := demandSnapshot(8, edgeVec(n, 4), edgeVec(n, 5))
			matchOracles(t, shape+" n="+strconv.Itoa(n), prev, snap, DefaultDeltaRatio)
		}
	}
}

// TestFuzzCorpusMatchesOracle: every committed FuzzDelta input, and
// every seed FuzzDelta adds, draws a pair that encodes and deltas to
// the hand-written bytes.
func TestFuzzCorpusMatchesOracle(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDelta")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][2][]byte{}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		args := corpusArgs(t, f.Name(), data)
		inputs[f.Name()] = [2][]byte{args[0], args[1]}
	}
	if len(inputs) < 19 {
		t.Fatalf("%d corpus files, want the 19 committed at least", len(inputs))
	}
	for i, seed := range longDeltaSeeds() {
		inputs["long seed "+strconv.Itoa(i)] = seed
	}
	for name, in := range inputs {
		sh := fuzzBytes(in[0])
		prevShape, nextShape, modes, ratioByte := sh.next(), sh.next(), sh.next(), sh.next()
		r := fuzzBytes(in[1])
		prev := r.snapshot(3, prevShape, modes, stream.Snapshot{})
		next := r.snapshot(4, nextShape, modes/3, prev)
		matchOracles(t, name, prev, next, float64(ratioByte%9)/4)
	}
}

// corpusArgs parses a "go test fuzz v1" file of []byte arguments.
func corpusArgs(t *testing.T, name string, data []byte) [][]byte {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: header %q", name, lines[0])
	}
	var args [][]byte
	for _, l := range lines[1:] {
		lit, ok := strings.CutPrefix(l, "[]byte(")
		if lit, ok2 := strings.CutSuffix(lit, ")"); ok && ok2 {
			s, err := strconv.Unquote(lit)
			if err == nil {
				args = append(args, []byte(s))
				continue
			}
		}
		t.Fatalf("%s: argument %q is not a []byte literal", name, l)
	}
	if len(args) != 3 {
		t.Fatalf("%s: %d arguments, want 3", name, len(args))
	}
	return args
}

// oracleMethods are resolve_method strings that exercise every escape:
// HTML characters, control bytes, invalid UTF-8 and U+2028/U+2029.
var oracleMethods = []stream.Method{
	"", stream.MethodEntropy, stream.MethodVardi, "<a&b>", "q\"b\\s\n\r\t\b\f\x01\x1f\x7f",
	"bad\xffutf8\xe2\x82", "sep\u2028para\u2029 \u00e9\u20ac\U0001d11e", "\x00",
}

// randomSnapshot draws a snapshot over base: extreme and plain
// integers, edge floats, both anomaly fields on and off, a resolve
// method that needs escaping, a zoned sub-second time, and vectors that
// are nil, empty, resized or partly carried from base.
func randomSnapshot(rng *rand.Rand, version uint64, base stream.Snapshot) stream.Snapshot {
	ints := func() int {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return []int{math.MinInt, math.MaxInt, -1}[rng.Intn(3)]
		default:
			return rng.Intn(2001) - 1000
		}
	}
	floats := func() float64 {
		if rng.Intn(2) == 0 {
			return edgeFloats[rng.Intn(len(edgeFloats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
	}
	vec := func(base linalg.Vector) linalg.Vector {
		switch rng.Intn(8) {
		case 0:
			return nil
		case 1:
			return linalg.Vector{}
		}
		n := len(base)
		if n == 0 || rng.Intn(4) == 0 {
			n = 1 + rng.Intn(12)
		}
		v := linalg.NewVector(n)
		for i := range v {
			if i < len(base) && rng.Intn(2) == 0 {
				v[i] = base[i]
			} else {
				v[i] = floats()
			}
		}
		return v
	}
	method := oracleMethods[rng.Intn(len(oracleMethods))]
	if rng.Intn(4) == 0 {
		raw := make([]byte, rng.Intn(8))
		rng.Read(raw)
		method = stream.Method(raw)
	}
	zone := time.UTC
	if rng.Intn(3) > 0 {
		zone = time.FixedZone("z", (rng.Intn(48*60)-24*60+1)*60)
	}
	s := stream.Snapshot{
		Version:           version,
		Interval:          ints(),
		Window:            ints(),
		Covered:           ints(),
		Skipped:           ints(),
		Drift:             floats(),
		TopologyEpoch:     ints(),
		AnomalyActive:     rng.Intn(2) == 0,
		Anomalies:         ints(),
		Gravity:           vec(base.Gravity),
		Mean:              vec(base.Mean),
		Fanouts:           vec(base.Fanouts),
		GravityMRE:        floats(),
		ResolveMethod:     method,
		ResolveMRE:        floats(),
		ResolveInterval:   ints(),
		ResolveDuration:   time.Duration(ints()),
		ResolveIterations: ints(),
		ResolveWarm:       rng.Intn(2) == 0,
		Time: time.Date(1+rng.Intn(9999), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
			rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(1e9), zone),
	}
	if rng.Intn(3) > 0 {
		s.Resolve = vec(base.Resolve)
	}
	return s
}

// TestRandomPairsMatchOracle: 2000 seeded random snapshot pairs encode
// and delta to the hand-written bytes.
func TestRandomPairsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		prev := randomSnapshot(rng, rng.Uint64(), stream.Snapshot{})
		next := randomSnapshot(rng, rng.Uint64(), prev)
		matchOracles(t, "pair "+strconv.Itoa(i), prev, next, float64(rng.Intn(9))/4)
	}
}
