package stream

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/netsim"
)

// FuzzCheckpoint throws hostile checkpoint bytes at the restore path.
// Each input is decoded the way LoadCheckpoint decodes a file and
// restored into a europe engine, and must end one of two ways: Restore
// refuses it with a named "stream: " error, or the restored engine's next
// consumed interval publishes a finite snapshot and its own checkpoint
// restores into a fresh engine as a fixed point. The committed seeds in
// testdata/fuzz/FuzzCheckpoint include a ring of 1e308 demands, whose
// link loads overflow to +Inf.
func FuzzCheckpoint(f *testing.F) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{Window: 3, ResolveEvery: 2}
	clean := sc.Series.Demands[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp Checkpoint
		if json.Unmarshal(data, &cp) != nil {
			return // LoadCheckpoint's "stream: parse checkpoint" refusal
		}
		eng, err := New(sc.Rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(cp); err != nil {
			if !strings.HasPrefix(err.Error(), "stream: ") {
				t.Fatalf("Restore refused with an unnamed error: %v", err)
			}
			return
		}
		eng.consume(eng.next, clean.Clone(), len(clean))
		snap, _ := eng.Latest()
		for name, v := range map[string]linalg.Vector{
			"gravity": snap.Gravity, "mean": snap.Mean, "fanouts": snap.Fanouts, "resolve": snap.Resolve,
		} {
			if !v.AllFinite() {
				t.Fatalf("restored engine published a non-finite %s", name)
			}
		}
		if !finite(snap.Drift, snap.GravityMRE, snap.ResolveMRE) {
			t.Fatalf("restored engine published drift %v gravity MRE %v resolve MRE %v",
				snap.Drift, snap.GravityMRE, snap.ResolveMRE)
		}

		first := eng.Checkpoint()
		fresh, err := New(sc.Rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(first); err != nil {
			t.Fatalf("an engine's own checkpoint does not restore: %v", err)
		}
		a, errA := json.Marshal(first)
		b, errB := json.Marshal(fresh.Checkpoint())
		if errA != nil || errB != nil {
			t.Fatalf("checkpoint does not marshal: %v / %v", errA, errB)
		}
		if string(a) != string(b) {
			t.Fatalf("Checkpoint → Restore is not a fixed point:\n%s\nvs\n%s", a, b)
		}
	})
}
