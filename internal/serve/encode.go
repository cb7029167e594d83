package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

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
// of the encoded prev→snap delta (see appendCoords). It marshals the
// frame (every byte but the vector coordinates), cuts the coordinates
// of gravity, mean, fanouts and resolve, taken in order, into at most
// procs pieces of at least pieceCoords each, formats the pieces in
// parallel into pooled scratch, and copies frame and pieces into one
// exact-size body. A non-finite value fails the encode, as it fails
// json.Marshal.
func encodeSnapshot(snap, prev *stream.Snapshot, procs int) (body []byte, bound int, err error) {
	frame, slots, err := marshalFrame(snap, prev)
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

// placeholder stands for a non-empty vector while the frame is
// marshalled. It needs a coordinate: omitempty drops an empty resolve.
var placeholder = linalg.Vector{0}

// marshalFrame is json.Marshal(snap) with each non-empty vector written
// as "[]", a slot at the offset between its brackets: it marshals the
// vector as the placeholder and cuts the 0 found at its key, which no
// JSON string holds (strings escape quotes). A key missing in wire
// order (a renamed or reordered field) fails the encode. prev supplies
// the slots' delta bases.
func marshalFrame(snap, prev *stream.Snapshot) ([]byte, []slot, error) {
	var base stream.Snapshot
	if prev != nil {
		base = *prev
	}
	stub := *snap
	vecs := [...]struct {
		key       string
		vec, base linalg.Vector
		stub      *linalg.Vector
	}{
		{`"gravity":[0]`, snap.Gravity, base.Gravity, &stub.Gravity},
		{`"mean":[0]`, snap.Mean, base.Mean, &stub.Mean},
		{`"fanouts":[0]`, snap.Fanouts, base.Fanouts, &stub.Fanouts},
		{`"resolve":[0]`, snap.Resolve, base.Resolve, &stub.Resolve},
	}
	for _, v := range vecs {
		if len(v.vec) > 0 {
			*v.stub = placeholder
		}
	}
	frame, err := json.Marshal(&stub)
	if err != nil {
		return nil, nil, err
	}
	var slots []slot
	at := 0
	for _, v := range vecs {
		if len(v.vec) == 0 {
			continue
		}
		i := bytes.Index(frame[at:], []byte(v.key))
		if i < 0 {
			return nil, nil, fmt.Errorf("serve: snapshot frame lacks %s", v.key)
		}
		at += i + len(v.key) - len("0]")
		frame = append(frame[:at], frame[at+1:]...)
		slots = append(slots, slot{at: at, vec: v.vec, base: v.base})
	}
	return frame, slots, nil
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
