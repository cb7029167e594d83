package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/linalg"
	"repro/internal/stream"
)

// pieceCoords is the fewest vector coordinates one encode piece formats.
// A snapshot with fewer than two pieces' worth (every Europe-sized
// tenant) is formatted inline on the caller's goroutine: below this the
// hand-off to another goroutine costs more than the formatting it moves.
const pieceCoords = 4096

// pieceBufs holds the scratch buffers pieces format into. Each is
// returned once its bytes are copied into the body, so a steady stream
// of publications reuses the same few buffers.
var pieceBufs = sync.Pool{New: func() any { return new([]byte) }}

// slot is one non-empty vector of a snapshot body: its coordinates go
// at offset at of the frame, and base is its delta base (a nil base
// counts as all zeros, as carried reads it).
type slot struct {
	at   int
	vec  linalg.Vector
	base linalg.Vector
}

// piece is one goroutine's share of the coordinates and what it made
// of them.
type piece struct {
	buf   *[]byte
	bound int
	err   error
}

// encodeSnapshot returns json.Marshal(snap) plus a trailing newline,
// byte for byte, and (when prev is non-nil) a lower bound on the size
// of the encoded prev→snap delta (see appendCoords). It writes the
// frame (every byte but the vector coordinates) serially, cuts the
// coordinates of gravity, mean, fanouts and resolve, taken in order,
// into at most procs pieces of at least pieceCoords each, formats the
// pieces in parallel into pooled scratch, and copies frame and pieces
// into one exact-size body. A non-finite value fails the encode, as it
// fails json.Marshal.
func encodeSnapshot(snap, prev *stream.Snapshot, procs int) (body []byte, bound int, err error) {
	frame, slots, err := appendFrame(make([]byte, 0, 512), snap, prev)
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, s := range slots {
		total += len(s.vec)
	}
	n := min(procs, total/pieceCoords)
	if n < 1 {
		n = 1
	}
	pieces := make([]piece, n)
	format := func(p int) {
		pc := &pieces[p]
		pc.buf = pieceBufs.Get().(*[]byte)
		*pc.buf, pc.bound, pc.err = appendCoords((*pc.buf)[:0], frame, slots, prev != nil, p*total/n, (p+1)*total/n)
	}
	var wg sync.WaitGroup
	for p := 1; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			format(p)
		}(p)
	}
	format(0)
	wg.Wait()

	tail := frame
	if len(slots) > 0 {
		tail = frame[slots[len(slots)-1].at:]
	}
	size := len(tail) + 1
	for _, pc := range pieces {
		size += len(*pc.buf)
		bound += pc.bound
		if err == nil {
			err = pc.err
		}
	}
	if err == nil {
		body = make([]byte, 0, size)
		for _, pc := range pieces {
			body = append(body, *pc.buf...)
		}
		body = append(append(body, tail...), '\n')
	}
	for _, pc := range pieces {
		pieceBufs.Put(pc.buf)
	}
	return body, bound, err
}

// appendCoords formats coordinates [lo, hi) of the slots' concatenation:
// a vector's first coordinate is preceded by the frame bytes between
// the previous slot (or the frame's start) and its own, any other by a
// comma. withBound also sums the delta size bound over them:
// each one the delta carries costs at least its encoded bytes, its
// index's digits and two commas (one in each of the patch's "i" and "v"
// arrays); a patch's own framing covers the commas its last coordinate
// lacks.
func appendCoords(dst, frame []byte, slots []slot, withBound bool, lo, hi int) ([]byte, int, error) {
	bound, start, from := 0, 0, 0
	for _, s := range slots {
		end := start + len(s.vec)
		for g := max(lo, start); g < min(hi, end); g++ {
			i := g - start
			if i == 0 {
				dst = append(dst, frame[from:s.at]...)
			} else {
				dst = append(dst, ',')
			}
			at := len(dst)
			var err error
			if dst, err = appendFloat(dst, s.vec[i]); err != nil {
				return dst, 0, err
			}
			if withBound && carried(s.base, s.vec, i) {
				bound += len(dst) - at + digits(i) + 2
			}
		}
		start, from = end, s.at
	}
	return dst, bound, nil
}

// appendFrame writes snap as json.Marshal does, except that a non-empty
// vector is written as "[]" and becomes a slot at the offset between
// its brackets. Field order, omitempty and null for a nil vector follow
// stream.Snapshot's tags. prev supplies the slots' delta bases.
func appendFrame(b []byte, snap, prev *stream.Snapshot) ([]byte, []slot, error) {
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
		b = appendString(b, string(snap.ResolveMethod))
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

// appendFloat formats f as encoding/json does: the shortest 'f' form,
// or the 'e' form below 1e-6 and at or above 1e21 with a one-digit
// negative exponent unpadded (e-7, not e-07). NaN and ±Inf are refused
// with json.Marshal's error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	fmt := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	b = strconv.AppendFloat(b, f, fmt, -1, 64)
	if fmt == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString quotes s as json.Marshal does: HTML-escaped (<, >, &),
// control bytes as \b \f \n \r \t or \u00XX, invalid UTF-8 as \ufffd,
// and U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
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
