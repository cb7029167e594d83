package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzClusterConfig feeds config bytes through Parse. Every input must
// either fail with a named "cluster:" error or parse to a config that
// re-marshals to JSON Parse accepts again and that encodes to the same
// bytes; none may panic. The committed seeds
// (testdata/fuzz/FuzzClusterConfig) are a valid config, empty maps,
// unknown fields, format 99, duplicate names, negative numbers, bad
// durations, an owner that is its own standby, truncated JSON, the
// removed "routing" field and the removed per-tenant "checkpoint" path.
func FuzzClusterConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "cluster: ") {
				t.Fatalf("error without the cluster: prefix: %v", err)
			}
			return
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(enc)
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
