package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/stream"
)

// fuzzFloats are the values whose encodings stress the size bound and
// byte identity: signed zeros, the exponent-form thresholds of
// encoding/json (1e-6, 1e21), subnormals and integers past 2^53.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, 2.225073858507201e-308,
	1 << 53, 123456789012345678, 1e20, 0.1, 12.5, math.MaxFloat64,
}

// fuzzBytes hands out fuzz input bytes, then zeros once exhausted.
type fuzzBytes []byte

func (r *fuzzBytes) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// vec draws n coordinates over base. Per coordinate, the low two bits
// of one byte choose: carry base's value (0 past its end), an edge
// float, a plain number, or the raw bits of the next eight bytes (NaN
// and ±Inf included, which must fail to encode).
func (r *fuzzBytes) vec(n int, base linalg.Vector) linalg.Vector {
	v := linalg.NewVector(n)
	for i := range v {
		b := r.next()
		switch b % 4 {
		case 0:
			if i < len(base) {
				v[i] = base[i]
			}
		case 1:
			v[i] = fuzzFloats[int(b/4)%len(fuzzFloats)]
		case 2:
			v[i] = float64(b) * 1.37
		case 3:
			var raw [8]byte
			for k := range raw {
				raw[k] = r.next()
			}
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		}
	}
	return v
}

// snapshot draws one fuzzed snapshot over base. shape's low five bits
// are the pair count (lengths differ across a topology swap), bit 5
// leaves Gravity nil, and bit 6 adds pieceCoords pairs, so the encoder
// cuts the vectors into several pieces; resolve is 0 for a nil Resolve,
// 1 for an empty one and 2 for a drawn one.
func (r *fuzzBytes) snapshot(version uint64, shape, resolve byte, base stream.Snapshot) stream.Snapshot {
	n := int(shape & 31)
	if shape&64 != 0 {
		n += pieceCoords
	}
	s := stream.Snapshot{
		Version:    version,
		Interval:   int(version),
		Window:     6,
		Covered:    n,
		Drift:      float64(r.next()) / 7,
		GravityMRE: 0.25,
		Time:       time.Date(2026, 1, 1, 0, 0, int(version), 0, time.UTC),
	}
	if shape&32 == 0 {
		s.Gravity = r.vec(n, base.Gravity)
	}
	s.Mean = r.vec(n, base.Mean)
	s.Fanouts = r.vec(n, base.Fanouts)
	switch resolve % 3 {
	case 1:
		s.Resolve = linalg.Vector{}
	case 2:
		s.Resolve = r.vec(n, base.Resolve)
		s.ResolveMethod = stream.MethodEntropy
	}
	return s
}

// longDeltaSeeds are FuzzDelta inputs whose vectors are longer than one
// encode piece, as [shape, values]: every coordinate moved, one moved,
// and a NaN in the last coordinate of the last piece.
func longDeltaSeeds() [][2][]byte {
	const n = pieceCoords + 5
	shape := []byte{64 | 5, 64 | 5, 2 + 3*2, 0} // both with a drawn Resolve
	// A snapshot draws its drift byte, then one byte per coordinate
	// (1 mod 4 draws an edge float, 2 mod 4 a plain number, 0 carries
	// the base's value): prev's 1+4n bytes, then next's.
	const half = 1 + 4*n
	moved := make([]byte, 2*half)
	for i := range moved {
		moved[i] = byte(4*i + 1 + i%2)
	}
	one := append(append([]byte(nil), moved[:half]...), make([]byte, half)...)
	one[half+1+2*n+7] = 6
	nan := append([]byte(nil), moved[:2*half-1]...)
	nan = append(nan, 3, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f) // raw bits of a NaN
	return [][2][]byte{{shape, moved}, {shape, one}, {shape, nan}}
}

// FuzzDelta drives the hub's encode and a client's apply with fuzzed
// snapshot pairs and arbitrary delta bytes. shape is [prev shape, next
// shape, resolve modes (prev + 3·next), ratio]; values draws the
// vectors; wire is decoded and applied as a server-sent delta. It
// checks that
//
//	(a) the size bound never exceeds the encoded delta,
//	(b) NewEntry's bytes equal the rule without the bound (marshal the
//	    body, then EncodeDelta against its size),
//	(c) a fuzzed pair's delta applies back to the exact target bytes,
//	    and decoding plus applying arbitrary bytes never panics.
func FuzzDelta(f *testing.F) {
	for _, seed := range longDeltaSeeds() {
		f.Add(seed[0], seed[1], []byte(nil))
	}
	f.Fuzz(func(t *testing.T, shape, values, wire []byte) {
		sh := fuzzBytes(shape)
		prevShape, nextShape, modes, ratioByte := sh.next(), sh.next(), sh.next(), sh.next()
		ratio := float64(ratioByte%9) / 4 // 0 selects DefaultDeltaRatio
		r := fuzzBytes(values)
		prev := r.snapshot(3, prevShape, modes, stream.Snapshot{})
		next := r.snapshot(4, nextShape, modes/3, prev)

		// (c), hostile half: arbitrary bytes against a base that passes
		// the version check.
		if d, err := DecodeDelta(wire); err == nil {
			base := prev
			base.Version = d.From
			_, _ = Apply(base, d)
		}

		body, err := json.Marshal(next)
		e, entryErr := NewEntry(next, &prev, ratio)
		if err != nil {
			if entryErr == nil {
				t.Fatalf("NewEntry encoded a snapshot json.Marshal rejects (%v)", err)
			}
			return
		}
		if entryErr != nil {
			t.Fatal(entryErr)
		}

		// (a)
		delta, err := json.Marshal(ComputeDelta(prev, next))
		if err != nil {
			t.Fatal(err)
		}
		if _, bound, err := encodeSnapshot(&next, &prev, 3); err != nil || bound > len(delta) {
			t.Fatalf("bound %d B (%v) exceeds the %d B delta %s", bound, err, len(delta), delta)
		}

		// (b)
		body = append(body, '\n')
		want := EncodeDelta(prev, next, len(body), ratio)
		if !bytes.Equal(e.JSON, body) || !bytes.Equal(e.Delta, want) {
			t.Fatalf("NewEntry differs from the unbounded rule:\n body %s\nwant %s\ndelta %s\n want %s", e.JSON, body, e.Delta, want)
		}
		if want != nil && e.DeltaFrom != prev.Version {
			t.Fatalf("DeltaFrom %d, want %d", e.DeltaFrom, prev.Version)
		}

		// (c), round-trip half. Only Resolve's nil is on the wire: a
		// patch has no nil marker for Gravity, which engines publish from
		// the first snapshot on, so Gravity turning nil, or from nil to
		// empty, is out of the format's scope.
		if (prev.Gravity == nil) != (next.Gravity == nil) && len(next.Gravity) == 0 {
			return
		}
		d, err := DecodeDelta(delta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Apply(prev, d)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(gotB, '\n'), body) {
			t.Fatalf("applied delta differs from the target:\n got %s\nwant %s", gotB, body)
		}
	})
}
