package cluster

import (
	"strings"
	"testing"
)

// validConfig is the smallest interesting cluster: two primaries, one
// standby, one pinned tenant, one ring-placed.
const validConfig = `{
  "format": 1,
  "tenants": [
    {"name": "eu", "source": "europe"},
    {"name": "us", "source": "america"}
  ],
  "nodes": [
    {"name": "n1", "addr": "127.0.0.1:9101"},
    {"name": "n2", "addr": "127.0.0.1:9102"},
    {"name": "n3", "addr": "127.0.0.1:9103", "standby": true}
  ],
  "placement": {"eu": "n1"},
  "standbys": {"eu": "n3"}
}`

func TestParseValid(t *testing.T) {
	cfg, err := Parse([]byte(validConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Owner("eu") != "n1" {
		t.Fatalf("pinned owner %q, want n1", cfg.Owner("eu"))
	}
	// The ring places the unpinned tenant on a primary, never the standby.
	if o := cfg.Owner("us"); o != "n1" && o != "n2" {
		t.Fatalf("ring owner %q, want a primary", o)
	}
	if cfg.StandbyFor("eu") != "n3" {
		t.Fatalf("pinned standby %q, want n3", cfg.StandbyFor("eu"))
	}
	// The default standby comes from the standby-marked pool.
	if sb := cfg.StandbyFor("us"); sb != "n3" {
		t.Fatalf("ring standby %q, want n3", sb)
	}
	if cfg.probeEvery() != DefaultProbeEvery || cfg.probeFailures() != DefaultProbeFailures || cfg.syncEvery() != DefaultSyncEvery {
		t.Fatal("defaults not applied")
	}
	// OwnedBy/StandbyOn partition the tenants consistently with
	// Owner/StandbyFor.
	total := 0
	for _, n := range cfg.Nodes {
		for _, spec := range cfg.OwnedBy(n.Name) {
			if cfg.Owner(spec.Name) != n.Name {
				t.Fatalf("OwnedBy(%s) includes %s, Owner says %s", n.Name, spec.Name, cfg.Owner(spec.Name))
			}
			total++
		}
	}
	if total != len(cfg.Tenants) {
		t.Fatalf("OwnedBy partitions %d tenants, config has %d", total, len(cfg.Tenants))
	}
	if len(cfg.StandbyOn("n3")) != 2 {
		t.Fatalf("StandbyOn(n3) = %v, want both tenants", cfg.StandbyOn("n3"))
	}
}

func TestParseRejections(t *testing.T) {
	cases := []struct{ name, json, want string }{
		{"bad format", `{"format": 9, "tenants": [{"name":"a"}], "nodes": [{"name":"n","addr":"x:1"}]}`, "format 9"},
		{"unknown field", `{"format": 1, "wat": true, "tenants": [{"name":"a"}], "nodes": [{"name":"n","addr":"x:1"}]}`, "unknown field"},
		{"no tenants", `{"format": 1, "tenants": [], "nodes": [{"name":"n","addr":"x:1"}]}`, "no tenants"},
		{"bad tenant", `{"format": 1, "tenants": [{"name":"!"}], "nodes": [{"name":"n","addr":"x:1"}]}`, "identifier"},
		{"no nodes", `{"format": 1, "tenants": [{"name":"a"}], "nodes": []}`, "no nodes"},
		{"dup node", `{"format": 1, "tenants": [{"name":"a"}], "nodes": [{"name":"n","addr":"x:1"},{"name":"n","addr":"x:2"}]}`, "duplicate node"},
		{"no addr", `{"format": 1, "tenants": [{"name":"a"}], "nodes": [{"name":"n"}]}`, "no addr"},
		{"all standby", `{"format": 1, "tenants": [{"name":"a"}], "nodes": [{"name":"n","addr":"x:1","standby":true}]}`, "every node is a standby"},
		{"placement unknown tenant", `{"format": 1, "tenants": [{"name":"a"}], "nodes": [{"name":"n","addr":"x:1"}], "placement": {"b":"n"}}`, "unknown tenant"},
		{"placement unknown node", `{"format": 1, "tenants": [{"name":"a"}], "nodes": [{"name":"n","addr":"x:1"}], "placement": {"a":"m"}}`, "unknown node"},
		{"standby is owner", `{"format": 1, "tenants": [{"name":"a"}], "nodes": [{"name":"n","addr":"x:1"},{"name":"m","addr":"x:2"}], "placement": {"a":"n"}, "standbys": {"a":"n"}}`, "both owner and standby"},
		{"per-tenant checkpoint path", `{"format": 1, "tenants": [{"name":"a","checkpoint":"/x.ckpt"}], "nodes": [{"name":"n","addr":"x:1"}]}`, `unknown field "checkpoint"`},
		{"routing removed", `{"format": 1, "tenants": [{"name":"a"}], "nodes": [{"name":"n","addr":"x:1"}], "routing": "redirect"}`, `unknown field "routing"`},
		{"bad probe_every", `{"format": 1, "tenants": [{"name":"a"}], "nodes": [{"name":"n","addr":"x:1"}], "probe_every": "soon"}`, "not a positive duration"},
		{"negative sync_every", `{"format": 1, "tenants": [{"name":"a"}], "nodes": [{"name":"n","addr":"x:1"}], "sync_every": "-1s"}`, "not a positive duration"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.json))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestRingLookup: deterministic, order-independent, and stable under
// node addition for most keys — the properties placement leans on.
func TestRingLookup(t *testing.T) {
	if ringLookup(nil, "k") != "" {
		t.Fatal("empty ring should assign nothing")
	}
	if ringLookup([]string{"only"}, "k") != "only" {
		t.Fatal("single node takes everything")
	}
	nodes := []string{"n1", "n2", "n3"}
	reversed := []string{"n3", "n2", "n1"}
	counts := map[string]int{}
	moved := 0
	const keys = 200
	for i := 0; i < keys; i++ {
		key := "tenant-" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
		a := ringLookup(nodes, key)
		if b := ringLookup(reversed, key); a != b {
			t.Fatalf("key %q: order-dependent assignment %q vs %q", key, a, b)
		}
		if a != ringLookup(nodes, key) {
			t.Fatalf("key %q: nondeterministic", key)
		}
		counts[a]++
		if ringLookup(append([]string{"n4"}, nodes...), key) != a {
			moved++
		}
	}
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("node %s got no keys: %v", n, counts)
		}
	}
	// Consistency: adding a 4th node should move roughly a quarter of
	// the keys, not rehash everything. Allow a generous margin.
	if moved > keys/2 {
		t.Fatalf("adding one node moved %d/%d keys", moved, keys)
	}
}
