package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzFleetConfig feeds config bytes through ParseConfig. Every input
// must either fail with a named "fleet:" error or parse to a config that
// re-marshals to JSON ParseConfig accepts again and that encodes to the
// same bytes; none may panic. The committed seeds
// (testdata/fuzz/FuzzFleetConfig) are a valid config, an unknown field,
// format 99, duplicate names, negative numbers, bad durations, truncated
// JSON, out-of-range estimation fields (negative reg, sigma_inv2,
// solver budget, window and drift threshold, window -1 and 1025,
// min_coverage above 1, an unknown method), a valid live: source, and
// the two live: sources validation refuses (pace 0, a scripted
// timeline).
func FuzzFleetConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fleet: ") {
				t.Fatalf("error without the fleet: prefix: %v", err)
			}
			return
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseConfig(enc)
		if err != nil {
			t.Fatalf("re-marshalled config does not parse: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the config:\n%s\n%s", enc, again)
		}
	})
}
