package timeline

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// FuzzTimeline feeds script bytes through Parse and, when they parse,
// through Compile against the europe backbone. Every input must either
// fail with a named "timeline:" error or compile; none may panic. The
// seeds are the shipped example scripts plus hostile ones: negative and
// huge ticks, unknown PoPs and links, an event past the end, and
// truncated JSON.
func FuzzTimeline(f *testing.F) {
	examples, err := filepath.Glob("../../examples/timelines/*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(examples) != 4 {
		f.Fatalf("found %d example timelines, want 4", len(examples))
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		`{"format":1,"intervals":10,"events":[{"at":-3,"outage":{"until":2}}]}`,
		`{"format":1,"intervals":10,"events":[{"at":9223372036854775807,"diurnal":{"period":4,"amplitude":0.5}}]}`,
		`{"format":1,"intervals":10,"events":[{"at":2,"diurnal":{"period":9223372036854775807,"amplitude":0.99}}]}`,
		`{"format":1,"intervals":9223372036854775807}`,
		`{"format":1,"intervals":-1}`,
		`{"format":1,"step":"1ns","intervals":10,"events":[{"at":"2562047h","outage":{"until":"-5m"}}]}`,
		`{"format":1,"intervals":10,"events":[{"at":2,"flash_crowd":{"pair":["Atlantis","0"],"factor":2}}]}`,
		`{"format":1,"intervals":10,"events":[{"at":2,"flash_crowd":{"pair":["-1","99999"],"factor":1e308}}]}`,
		`{"format":1,"intervals":10,"events":[{"at":2,"flash_crowd":{"pair":["0","0"],"factor":3}}]}`,
		`{"format":1,"intervals":10,"events":[{"at":10,"fail_link":"0"}]}`,
		`{"format":1,"intervals":10,"events":[{"at":3,"restore":"0"}]}`,
		`{"format":1,"intervals":10,"events":[{"at":3,"fail_link":"-5"},{"at":4,"fail_link":"999999"}]}`,
		`{"format":1,"intervals":10,"events":[{"at":3,"fail_link":"0"},{"at":3,"fail_link":"1"}]}`,
		`{"format":1,"intervals":3,"events":[null]}`,
		`{"format":1,"intervals":10,"events":[{"at":2,"outage"`,
		`{"format":1,`,
		``,
	} {
		f.Add([]byte(seed))
	}
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err == nil {
			_, err = Compile(sc, 0, s)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "timeline: ") {
			t.Fatalf("error without the timeline: prefix: %v", err)
		}
	})
}
