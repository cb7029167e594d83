package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// TestRegionRoundTrip writes the European scenario and loads it back: the
// file must rebuild the generated network and demand series exactly.
func TestRegionRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eu.json")
	var out bytes.Buffer
	if err := run([]string{"-region", "europe", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "wrote "+path+": ") {
		t.Fatalf("output %q", out.String())
	}
	got, err := netsim.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Net.NumPoPs() != want.Net.NumPoPs() || len(got.Net.Links) != len(want.Net.Links) {
		t.Fatalf("network: %d PoPs, %d links; want %d, %d",
			got.Net.NumPoPs(), len(got.Net.Links), want.Net.NumPoPs(), len(want.Net.Links))
	}
	if len(got.Series.Demands) != len(want.Series.Demands) {
		t.Fatalf("%d intervals, want %d", len(got.Series.Demands), len(want.Series.Demands))
	}
	for k, d := range want.Series.Demands {
		for p, x := range d {
			if got.Series.Demands[k][p] != x {
				t.Fatalf("interval %d pair %d: %v, want %v", k, p, got.Series.Demands[k][p], x)
			}
		}
	}
}

func TestFamilyAndTimeline(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"family", []string{"-family", "scaled:12", "-out", filepath.Join(dir, "s12.json")}, "12 PoPs"},
		{"timeline", []string{"-timeline", "../../examples/timelines/flash_crowd.json", "-out", filepath.Join(dir, "tl.json")}, "epochs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output %q lacks %q", out.String(), tc.want)
			}
			if fi, err := os.Stat(tc.args[len(tc.args)-1]); err != nil || fi.Size() == 0 {
				t.Fatalf("output file: %v", err)
			}
		})
	}
	if _, err := netsim.LoadFile(filepath.Join(dir, "s12.json")); err != nil {
		t.Fatalf("scaled:12 file does not load: %v", err)
	}
}

func TestUnknownRegion(t *testing.T) {
	if err := run([]string{"-region", "mars", "-out", filepath.Join(t.TempDir(), "x.json")}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown region accepted")
	}
}
