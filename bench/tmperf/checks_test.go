package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/serve"
	"repro/internal/stream"
)

func testSnapshot(version uint64, scale float64) stream.Snapshot {
	v := linalg.Vector{1 * scale, 2 * scale, 3}
	return stream.Snapshot{Version: version, Interval: int(version), Window: 1,
		Gravity: v.Clone(), Mean: v.Clone(), Fanouts: linalg.Vector{0.5, 0.5, 1},
		Time: time.Unix(1700000000, int64(version))}
}

func deltaDoc(t *testing.T, from, to uint64, steps ...[]byte) []byte {
	t.Helper()
	doc := serve.DeltaDoc{Format: serve.DeltaFormat, From: from, To: to}
	for _, s := range steps {
		doc.Steps = append(doc.Steps, json.RawMessage(s))
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func response(code int, version uint64, contentType string) *http.Response {
	h := http.Header{}
	h.Set("X-Snapshot-Version", strconv.FormatUint(version, 10))
	h.Set("ETag", serve.ETag(version))
	if contentType != "" {
		h.Set("Content-Type", contentType)
	}
	return &http.Response{StatusCode: code, Header: h}
}

// TestPollerCatchesCorruptDeltaAndOutOfOrderVersion drives the poller's
// response handling with a sound delta, a corrupted one and a version
// that goes back, and checks that both faults are failed output checks.
func TestPollerCatchesCorruptDeltaAndOutOfOrderVersion(t *testing.T) {
	v5, v6 := testSnapshot(5, 1), testSnapshot(6, 2)
	full5, err := json.Marshal(v5)
	if err != nil {
		t.Fatal(err)
	}
	step := serve.EncodeDelta(v5, v6, 1<<30, 1)
	if step == nil {
		t.Fatal("no delta between the test snapshots")
	}
	p := newPoller(nil, 1)
	var rec pollRec
	if err := p.absorb("t", nil, response(http.StatusOK, 5, "application/json"), full5, &rec); err != nil {
		t.Fatalf("full body of version 5: %v", err)
	}
	held5 := p.held["t"]

	if err := p.absorb("t", held5, response(http.StatusOK, 6, serve.DeltaMediaType), deltaDoc(t, 5, 6, step), &rec); err != nil {
		t.Fatalf("sound delta 5→6: %v", err)
	}
	if got := p.held["t"]; got.version != 6 || got.snap.Gravity[0] != 2 {
		t.Fatalf("after the delta the poller holds %+v", got)
	}

	corrupt := strings.Replace(string(step), `"i":[0,1]`, `"i":[0,7]`, 1)
	if corrupt == string(step) {
		t.Fatalf("test delta has no patch to corrupt: %s", step)
	}
	p.checks["t"] = &versionCheck{last: 5}
	err = p.absorb("t", held5, response(http.StatusOK, 6, serve.DeltaMediaType), deltaDoc(t, 5, 6, []byte(corrupt)), &rec)
	if !errors.As(err, &checkError{}) {
		t.Errorf("corrupted delta: got %v, want a failed check", err)
	}

	err = p.absorb("t", p.held["t"], response(http.StatusOK, 4, "application/json"), full5, &rec)
	if !errors.As(err, &checkError{}) {
		t.Errorf("version 4 after 6: got %v, want a failed check", err)
	}
}

func TestApplyDeltaDocRejects(t *testing.T) {
	v5, v6 := testSnapshot(5, 1), testSnapshot(6, 2)
	step := serve.EncodeDelta(v5, v6, 1<<30, 1)
	for _, c := range []struct {
		name   string
		body   []byte
		header uint64
	}{
		{"base is another version", deltaDoc(t, 4, 6, step), 6},
		{"header names another version", deltaDoc(t, 5, 6, step), 7},
		{"document says another target", deltaDoc(t, 5, 7, step), 7},
		{"undecodable step", deltaDoc(t, 5, 6, []byte(`{"format":"x"}`)), 6},
		{"not a document", []byte("{"), 6},
	} {
		if _, err := applyDeltaDoc(v5, c.body, c.header); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	got, err := applyDeltaDoc(v5, deltaDoc(t, 5, 6, step), 6)
	if err != nil || got.Version != 6 || got.Gravity[1] != 4 {
		t.Errorf("sound delta: %+v, %v", got, err)
	}
}

func TestVersionCheck(t *testing.T) {
	strict := versionCheck{strict: true}
	for _, v := range []uint64{1, 2, 5} {
		if err := strict.next(v); err != nil {
			t.Fatalf("strict %d: %v", v, err)
		}
	}
	if strict.next(5) == nil || strict.next(4) == nil {
		t.Error("strict check accepted a repeated or older version")
	}
	loose := versionCheck{}
	if loose.next(3) != nil || loose.next(3) != nil {
		t.Error("loose check rejected a repeated version")
	}
	if loose.next(2) == nil {
		t.Error("loose check accepted an older version")
	}
}

func TestCheckVectors(t *testing.T) {
	if err := checkVectors(testSnapshot(1, 1)); err != nil {
		t.Fatalf("sound snapshot: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		s := testSnapshot(1, 1)
		s.Resolve = linalg.Vector{1, bad}
		if checkVectors(s) == nil {
			t.Errorf("accepted %v", bad)
		}
	}
}

func TestSameMRE(t *testing.T) {
	if !sameMRE(0.5, 0.5) || !sameMRE(0.5*(1+5e-10), 0.5) || sameMRE(0.5*(1+2e-9), 0.5) {
		t.Error("1e-9 relative tolerance misapplied")
	}
}
