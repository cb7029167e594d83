package timeline

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/collector"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// interiorAdjacency names the first interior adjacency of the network
// as "RouterA-RouterB".
func interiorAdjacency(t *testing.T, net *topology.Network) string {
	t.Helper()
	for _, l := range net.Links {
		if l.Kind == topology.Interior && l.Src < l.Dst {
			return net.Routers[l.Src].Name + "-" + net.Routers[l.Dst].Name
		}
	}
	t.Fatal("no interior link")
	return ""
}

func mustParse(t *testing.T, src string) *Script {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

// TestParseRejectsMalformedScripts pins the must-fail surface: every
// rejection names the offending event by position (and anchor where it
// has one), so a hand-written script fails with a pointer, not a shrug.
func TestParseRejectsMalformedScripts(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			"unknown event kind",
			`{"format":1,"intervals":10,"events":[{"at":2,"melt_link":"X"}]}`,
			`event 0`,
		},
		{
			"out of order timestamps",
			`{"format":1,"intervals":10,"events":[{"at":5,"fail_link":"X"},{"at":3,"restore":"X"}]}`,
			`event 1 (at 3): out of order`,
		},
		{
			"anchor outside the timeline",
			`{"format":1,"intervals":10,"events":[{"at":10,"fail_link":"X"}]}`,
			`event 0 (at 10): outside the timeline [0, 10)`,
		},
		{
			"no kind",
			`{"format":1,"intervals":10,"events":[{"at":1}]}`,
			`event 0 (at 1): no event kind`,
		},
		{
			"two kinds on one event",
			`{"format":1,"intervals":10,"events":[{"at":1,"fail_link":"X","restore":"X"}]}`,
			`2 event kinds`,
		},
		{
			"bad flash crowd pair",
			`{"format":1,"intervals":10,"events":[{"at":1,"flash_crowd":{"pair":["A"],"factor":2}}]}`,
			`pair has 1 PoPs`,
		},
		{
			"non-positive factor",
			`{"format":1,"intervals":10,"events":[{"at":1,"flash_crowd":{"pair":["A","B"],"factor":0}}]}`,
			`factor 0`,
		},
		{
			"outage until before at",
			`{"format":1,"intervals":10,"events":[{"at":5,"outage":{"until":5}}]}`,
			`until 5 outside (5, 10]`,
		},
		{
			"duration anchor without step",
			`{"format":1,"intervals":10,"events":[{"at":"25m","outage":{"until":9}}]}`,
			`needs the script's step`,
		},
		{
			"duration not a step multiple",
			`{"format":1,"step":"10m","intervals":10,"events":[{"at":"25m","outage":{"until":9}}]}`,
			`not a multiple of step`,
		},
		{
			"wrong format",
			`{"format":9,"intervals":10}`,
			`format 9`,
		},
		{
			"no intervals",
			`{"format":1,"intervals":0}`,
			`intervals 0`,
		},
		{
			"too many intervals",
			`{"format":1,"intervals":9223372036854775807}`,
			`intervals 9223372036854775807, at most 65536`,
		},
		{
			"diurnal amplitude out of range",
			`{"format":1,"intervals":10,"events":[{"at":0,"diurnal":{"period":4,"amplitude":1.5}}]}`,
			`amplitude 1.5`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.src))
			if err == nil {
				t.Fatalf("accepted %s", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the offense %q", err, c.want)
			}
		})
	}
}

func TestParseDurationAnchors(t *testing.T) {
	s := mustParse(t, `{"format":1,"base":"scaled:europe","step":"5m","intervals":48,
		"events":[{"at":"30m","flash_crowd":{"pair":["London","Paris"],"factor":4,"until":"75m"}},
		          {"at":10,"outage":{"until":"1h"}}]}`)
	if s.Events[0].At != 6 || s.Events[0].FlashCrowd.Until != 15 {
		t.Fatalf("flash crowd anchors [%d, %d), want [6, 15)", s.Events[0].At, s.Events[0].FlashCrowd.Until)
	}
	if s.Events[1].At != 10 || s.Events[1].Outage.Until != 12 {
		t.Fatalf("outage anchors [%d, %d), want [10, 12)", s.Events[1].At, s.Events[1].Outage.Until)
	}
}

// TestCompileRejectsUnknownTargets pins compile-time must-fails: an
// unknown link or PoP names the offending event.
func TestCompileRejectsUnknownTargets(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, src, want string }{
		{
			"unknown link",
			`{"format":1,"intervals":10,"events":[{"at":2,"fail_link":"Atlantis-cr1-Lemuria-cr1"}]}`,
			`event 0 (at 2): unknown link "Atlantis-cr1-Lemuria-cr1"`,
		},
		{
			"unknown PoP",
			`{"format":1,"intervals":10,"events":[{"at":2,"flash_crowd":{"pair":["London","Narnia"],"factor":2}}]}`,
			`unknown PoP "Narnia"`,
		},
		{
			"restore of a healthy link",
			`{"format":1,"intervals":10,"events":[{"at":2,"restore":"` + interiorAdjacency(t, sc.Net) + `"}]}`,
			`not failed`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := mustParse(t, c.src)
			_, err := Compile(sc, 0, s)
			if err == nil {
				t.Fatal("compiled a script with an unknown target")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
			}
		})
	}
}

// TestCompileSemantics checks the compiled series: crowd windows scale
// exactly one pair, outage intervals are missing, diurnal bends every
// demand, and a fail/restore pair produces three epochs with the final
// routing matrix byte-identical to the base.
func TestCompileSemantics(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	link := interiorAdjacency(t, sc.Net)
	s := mustParse(t, `{"format":1,"intervals":20,"events":[
		{"at":2,"flash_crowd":{"pair":["London","Paris"],"factor":3,"until":5}},
		{"at":6,"fail_link":"`+link+`"},
		{"at":10,"outage":{"until":12}},
		{"at":14,"restore":"`+link+`"}]}`)
	tl, err := Compile(sc, 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Epochs) != 3 {
		t.Fatalf("%d epochs, want 3 (base, failed, restored)", len(tl.Epochs))
	}
	if !tl.Epochs[2].Rt.R.Equal(tl.Epochs[0].Rt.R) {
		t.Fatal("full restoration did not return the byte-identical base matrix")
	}
	if tl.Epochs[1].Rt.R.Equal(tl.Epochs[0].Rt.R) {
		t.Fatal("failure epoch routing equals the base; the link removal had no effect")
	}
	london, paris := -1, -1
	for i, p := range sc.Net.PoPs {
		if p.Name == "London" {
			london = i
		}
		if p.Name == "Paris" {
			paris = i
		}
	}
	idx := sc.Net.PairIndex(london, paris)
	for iv := 0; iv < 20; iv++ {
		st := tl.Steps[iv]
		base := sc.Series.Demands[iv]
		wantMissing := iv >= 10 && iv < 12
		if st.Missing != wantMissing {
			t.Fatalf("interval %d missing=%v, want %v", iv, st.Missing, wantMissing)
		}
		factor := 1.0
		if iv >= 2 && iv < 5 {
			factor = 3
		}
		if got, want := st.Demand[idx], base[idx]*factor; math.Abs(got-want) > 1e-9 {
			t.Fatalf("interval %d crowd pair %v, want %v", iv, got, want)
		}
		// Any other pair is untouched.
		other := (idx + 1) % len(base)
		if st.Demand[other] != base[other] {
			t.Fatalf("interval %d non-crowd pair scaled", iv)
		}
		wantEpoch := 0
		switch {
		case iv >= 14:
			wantEpoch = 2
		case iv >= 6:
			wantEpoch = 1
		}
		if st.Epoch != wantEpoch {
			t.Fatalf("interval %d epoch %d, want %d", iv, st.Epoch, wantEpoch)
		}
	}
}

// TestCompileDeterministic pins byte-identical recompilation: the same
// script against the same scenario yields the same compiled JSON, and
// Replay ingests the same records.
func TestCompileDeterministic(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	src := `{"format":1,"intervals":12,"events":[
		{"at":3,"flash_crowd":{"pair":["London","Paris"],"factor":2,"until":8}},
		{"at":5,"outage":{"until":7}}]}`
	render := func() string {
		tl, err := Compile(sc, 4, mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := tl.WriteCompiled(&b, true); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatal("recompiling the same script produced different bytes")
	}
}

// TestReplayFeedsStore checks the replay feed honors outage holes and
// cycle renumbering.
func TestReplayFeedsStore(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Compile(sc, 0, mustParse(t,
		`{"format":1,"intervals":6,"events":[{"at":2,"outage":{"until":3}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	if err := tl.Replay(context.Background(), store, 2, 0); err != nil {
		t.Fatal(err)
	}
	// Two cycles of 6 intervals, interval 2 of each missing: the second
	// cycle continues the numbering, so the last ingested interval is 11
	// and both holes (2 and 8) carry zero coverage.
	if got := store.LatestInterval(); got != 11 {
		t.Fatalf("latest interval %d, want 11", got)
	}
	for _, hole := range []int{2, 8} {
		if n, _ := store.Coverage(hole); n != 0 {
			t.Fatalf("outage interval %d has coverage %d, want 0", hole, n)
		}
	}
	if n, _ := store.Coverage(3); n != sc.Net.NumPairs() {
		t.Fatal("non-outage interval under-covered")
	}
}
